// Figure 3: the aggregate practical measures per established dataset —
// non-linear boost (NLB) and learning-based margin (LBM). Reuses the score
// cache written by table4_matchers when available; otherwise recomputes
// with the same defaults.
//
// Flags: --max-pairs, --datasets, --epoch-scale (only used on recompute),
//        --recompute (ignore the cache).
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("fig3_practical");
  auto ids = benchutil::ExistingTasks::SelectIds(flags, run);
  size_t failed = benchutil::PrintPractical(
      run, flags, ids, "table4_scores", "table4_matchers",
      [&](size_t* recompute_failed) {
        benchutil::ExistingTasks tasks(flags, run, 4000);
        return benchutil::ScoreLineups(run, flags, tasks, ids,
                                       "table4_scores", recompute_failed);
      },
      "Figure 3 (data series): non-linear boost and learning-based margin");
  std::printf(
      "\nReading: a challenging benchmark needs both NLB and LBM above 5%%\n"
      "(ideally 10%%); the paper marks only Ds4, Ds6, Dd4 and Dt1.\n");
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
