// Fault-layer overhead microbenchmark: the failpoint contract is "free
// when disabled" — one relaxed atomic load per evaluation. This harness
// measures that cost directly (ns per disabled evaluation), the armed but
// never-firing cost (probability 0), and the end-to-end import path with
// the layer disabled. Every timing is the median and MAD of --repeats runs
// after one warm-up, recorded in the run manifest's results; the
// reference invocation (no flags) publishes it as
// bench_results/BENCH_fault.json for regression tracking.
//
// Flags: --evals (default 5000000), --repeats (default 5: timed runs),
//        --scale (default 0.5, export/import workload size)
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/check.h"
#include "data/benchmark_io.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"

using namespace rlbench;

namespace {

// One failpoint-evaluation loop; returns the hit count so the optimizer
// cannot drop the evaluations.
size_t EvalLoop(size_t evals) {
  size_t hits = 0;
  for (size_t i = 0; i < evals; ++i) {
    if (RLBENCH_FAULT_POINT("bench/micro/probe")) ++hits;
  }
  return hits;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  size_t evals = static_cast<size_t>(flags.GetInt("evals", 5000000));
  int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  double scale = flags.GetDouble("scale", 0.5);

  benchutil::BenchRun run("micro_fault");
  if (argc == 1) run.PublishAs("fault");
  run.manifest().AddConfig("evals", static_cast<int64_t>(evals));
  run.manifest().AddConfig("repeats", static_cast<int64_t>(repeats));
  run.manifest().AddConfig("scale", scale);

  // 1. Disabled: the zero-cost contract under test.
  fault::Clear();
  size_t sink = 0;
  run.manifest().BeginPhase("disabled_evals");
  benchutil::Timing disabled =
      benchutil::Measure(repeats, [&] { sink += EvalLoop(evals); });
  run.manifest().EndPhase();
  RLBENCH_CHECK_MSG(sink == 0, "disabled failpoint produced hits");

  // 2. Armed at probability 0: full spec matching, decision drawn, no hit.
  RLBENCH_CHECK(fault::SetSpec("seed=1;bench/micro/probe=io:0").ok());
  run.manifest().BeginPhase("armed_zero_prob_evals");
  benchutil::Timing armed =
      benchutil::Measure(repeats, [&] { sink += EvalLoop(evals); });
  run.manifest().EndPhase();
  fault::Clear();
  RLBENCH_CHECK_MSG(sink == 0, "probability-0 failpoint produced hits");

  // 3. End-to-end: the hottest failpoint-bearing path (CSV export/import)
  //    with the layer disabled — the number the ≤1% regression gate on the
  //    real benches protects.
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), scale);
  std::string scratch = benchutil::ResultsDir() + "/micro_fault_scratch";
  run.manifest().BeginPhase("export");
  benchutil::Timing exported = benchutil::Measure(repeats, [&] {
    Status status = data::ExportBenchmark(task, scratch);
    RLBENCH_CHECK_MSG(status.ok(), "export failed");
  });
  run.manifest().EndPhase();
  run.manifest().BeginPhase("import");
  benchutil::Timing imported = benchutil::Measure(repeats, [&] {
    auto loaded = data::ImportBenchmark(scratch);
    RLBENCH_CHECK_MSG(loaded.ok(), "import failed");
  });
  run.manifest().EndPhase();
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);

  const double ns_per_eval = 1e9 / static_cast<double>(evals);
  std::printf("disabled failpoint: %.3f ns/eval\n",
              disabled.median_s * ns_per_eval);
  std::printf("armed (prob 0):     %.3f ns/eval\n",
              armed.median_s * ns_per_eval);
  std::printf("export %.4fs, import %.4fs (scale %.2f, faults off)\n",
              exported.median_s, imported.median_s, scale);

  run.AddTiming("disabled_evals", disabled);
  run.AddTiming("armed_zero_prob_evals", armed);
  run.manifest().AddResult("disabled_ns_per_eval",
                           disabled.median_s * ns_per_eval);
  run.manifest().AddResult("armed_zero_prob_ns_per_eval",
                           armed.median_s * ns_per_eval);
  run.AddTiming("export", exported);
  run.AddTiming("import", imported);
  run.Finish();
  return 0;
}
