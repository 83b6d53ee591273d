// Figure 6 (the paper's second NLB/LBM chart, referenced in Section VI-A):
// non-linear boost and learning-based margin for the new benchmarks.
// Reuses table6's score cache when available.
//
// Flags: --scale, --recall, --kmax, --max-pairs, --epoch-scale,
//        --recompute, --datasets=...
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("fig6_practical_new");
  auto ids = benchutil::NewTasks::SelectIds(flags, run);
  size_t failed = benchutil::PrintPractical(
      run, flags, ids, "table6_scores", "table6_matchers_new",
      [&](size_t* recompute_failed) {
        benchutil::NewTasks tasks(flags, run, 4000);
        return benchutil::ScoreLineups(run, flags, tasks, ids,
                                       "table6_scores", recompute_failed);
      },
      "Figure 6 (data series): NLB and LBM per new benchmark");
  std::printf(
      "\nReading: the paper finds both measures well above 5%% for Dn1,\n"
      "Dn2, Dn6, Dn7 and near zero for the linearly separable Dn3/Dn8.\n");
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
