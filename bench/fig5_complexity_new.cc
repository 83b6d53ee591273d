// Figure 5: the 17 complexity measures per new benchmark Dn1..Dn8.
//
// Flags: --scale, --recall, --kmax, --sample (default 2000), --datasets=...
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("fig5_complexity_new");
  benchutil::NewTasks tasks(flags, run);
  size_t sample = static_cast<size_t>(flags.GetInt("sample", 2000));
  run.manifest().AddConfig("sample", static_cast<int64_t>(sample));
  auto ids = benchutil::NewTasks::SelectIds(flags, run);
  size_t failed = benchutil::PrintComplexity(
      run, tasks, ids, sample,
      "Figure 5 (data series): complexity measures per new dataset");
  std::printf(
      "\nReading: the paper finds averages below 0.40 only for the\n"
      "bibliographic Dn3/Dn8 (and the outlier Dn5).\n");
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
