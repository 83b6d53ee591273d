// Figure 2: the 17 complexity measures per established dataset, plus the
// per-dataset average. Rows are datasets, columns are measures (Table I
// order); the O(n^2) measures run on a stratified subsample.
//
// Flags: --max-pairs=<n> (default 60000), --sample=<n> (default 2000),
//        --datasets=...
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("fig2_complexity");
  benchutil::ExistingTasks tasks(flags, run, 60000);
  size_t sample = static_cast<size_t>(flags.GetInt("sample", 2000));
  run.manifest().AddConfig("sample", static_cast<int64_t>(sample));
  auto ids = benchutil::ExistingTasks::SelectIds(flags, run);
  size_t failed = benchutil::PrintComplexity(
      run, tasks, ids, sample,
      "Figure 2 (data series): complexity measures per established dataset "
      "(sample=" + std::to_string(sample) + ")");
  std::printf(
      "\nReading: a mean score below 0.400 indicates an easy classification\n"
      "task (the paper marks only Ds4, Ds6, Dd4, Dt1, Dt2 as challenging).\n");
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
