// Figure 1: degree of linearity (Algorithm 1) of the 13 established
// benchmarks — the best-threshold F1 for the Cosine and Jaccard token-set
// similarities, plus the thresholds achieving them.
//
// Flags: --max-pairs=<n> (default 120000: full scale for all 13 datasets;
//        Algorithm 1 is cheap), --datasets=...
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("fig1_linearity");
  benchutil::ExistingTasks tasks(flags, run, 120000);
  auto ids = benchutil::ExistingTasks::SelectIds(flags, run);
  size_t failed = benchutil::PrintLinearity(
      run, tasks, ids,
      "Figure 1 (data series): degree of linearity per established dataset");
  std::printf(
      "\nReading: >0.8 marks an (almost) linearly separable benchmark; the\n"
      "paper finds six such datasets among the thirteen.\n");
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
