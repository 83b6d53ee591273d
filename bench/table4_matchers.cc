// Table IV: F1 of every matcher on every established benchmark —
// (a) the simulated DL matchers with two epoch settings each,
// (b) Magellan x4 and ZeroER, (c) the six linear ESDE matchers.
// Scores are cached under bench_results/ for the Figure 3 harness.
//
// Flags: --max-pairs=<n> (default 4000; the matcher sweep is the expensive
//        part of the reproduction), --datasets=..., --epoch-scale=<f>.
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("table4_matchers");
  benchutil::ExistingTasks tasks(flags, run, 4000);
  auto ids = benchutil::ExistingTasks::SelectIds(flags, run);
  size_t failed = 0;
  auto scores = benchutil::ScoreLineups(run, flags, tasks, ids,
                                        "table4_scores", &failed);
  benchutil::PrintMatcherTable("Table IV: F1 per method and dataset (x100)",
                               ids, scores);
  std::printf("\nScores cached to %s/table4_scores.csv (used by "
              "fig3_practical).\n",
              benchutil::ResultsDir().c_str());
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
