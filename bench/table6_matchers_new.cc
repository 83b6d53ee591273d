// Table VI: F1 of every matcher on the new benchmarks Dn1..Dn8, using the
// same matcher configurations as Table IV. Scores are cached for the
// Figure 6 harness.
//
// Flags: --scale, --recall, --kmax, --max-pairs (default 4000, caps the
//        candidate set fed to the matchers), --epoch-scale, --datasets=...
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("table6_matchers_new");
  benchutil::NewTasks tasks(flags, run, 4000);
  auto ids = benchutil::NewTasks::SelectIds(flags, run);
  size_t failed = 0;
  auto scores = benchutil::ScoreLineups(run, flags, tasks, ids,
                                        "table6_scores", &failed);
  benchutil::PrintMatcherTable(
      "Table VI: F1 per method and new dataset (x100)", ids, scores);
  std::printf("\nScores cached to %s/table6_scores.csv (used by "
              "fig6_practical_new).\n",
              benchutil::ResultsDir().c_str());
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
