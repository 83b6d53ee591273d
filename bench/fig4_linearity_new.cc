// Figure 4(a): degree of linearity of the new benchmarks Dn1..Dn8.
//
// Flags: --scale, --recall, --kmax (Section VI defaults, shared with the
//        other new-benchmark benches), --datasets=Dn1,...
#include <cstdio>

#include "bench_util.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("fig4_linearity_new");
  benchutil::NewTasks tasks(flags, run);
  auto ids = benchutil::NewTasks::SelectIds(flags, run);
  size_t failed = benchutil::PrintLinearity(
      run, tasks, ids,
      "Figure 4(a) (data series): degree of linearity per new dataset");
  std::printf(
      "\nReading: the paper finds both measures high for the bibliographic\n"
      "Dn3/Dn8 and low for the challenging Dn1, Dn2, Dn5, Dn6, Dn7.\n");
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
