// Scaling microbenchmark for the deterministic parallel layer: times the
// two hottest call sites — the O(n^2) complexity measures and Magellan
// batch feature extraction — at 1, 2, 4, and 8 threads, verifies the
// results are bit-identical across the sweep, and records the trajectory
// (median and MAD per thread count, speedup of the medians vs 1 thread)
// in the run manifest's results; the reference invocation (no flags)
// publishes it as bench_results/BENCH_parallel.json. Speedups are honest
// wall-clock numbers; on a 1-core host they hover near 1.0 by
// construction (the pool adds threads, the kernel has nowhere to run
// them).
//
// Flags: --scale (default 0.4), --sample (default 1500), --repeats
//        (default 3: timed runs), --dataset (default Ds1)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/parallel.h"
#include "core/complexity.h"
#include "core/linearity.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "obs/metrics.h"

using namespace rlbench;

namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.4);
  size_t sample = static_cast<size_t>(flags.GetInt("sample", 1500));
  int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  std::string dataset = flags.GetString("dataset", "Ds1");

  // Metrics are always on here, so the run manifest carries the pool's
  // job and chunk counters next to the timings.
  obs::Metrics::SetEnabled(true);
  benchutil::BenchRun run("micro_parallel");
  if (argc == 1) run.PublishAs("parallel");
  run.manifest().AddDataset(dataset);
  run.manifest().AddConfig("scale", scale);
  run.manifest().AddConfig("sample", static_cast<int64_t>(sample));
  run.manifest().AddConfig("repeats", static_cast<int64_t>(repeats));

  const auto* spec = datagen::FindExistingBenchmark(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset id %s\n", dataset.c_str());
    benchutil::RecordDatasetPhase(
        run, dataset, 0.0, Status::NotFound("unknown dataset id " + dataset));
    run.Finish();
    return 1;
  }
  auto task = datagen::BuildExistingBenchmark(*spec, scale);

  // Feature points are computed once, up front, so the complexity workload
  // times only ComputeComplexity itself.
  SetParallelThreads(1);
  run.manifest().BeginPhase("warm");
  matchers::MatchingContext warm_context(&task);
  auto points = core::PairFeaturePoints(warm_context);
  run.manifest().EndPhase();
  core::ComplexityOptions options;
  options.max_points = sample;

  std::vector<benchutil::Timing> complexity_timings;
  std::vector<benchutil::Timing> feature_timings;
  double reference_average = 0.0;
  run.manifest().BeginPhase("sweep");
  for (size_t threads : kThreadSweep) {
    SetParallelThreads(threads);

    double average = 0.0;
    complexity_timings.push_back(benchutil::Measure(repeats, [&] {
      average = core::ComputeComplexity(points, options).Average();
    }));
    // The determinism contract, spot-checked on real work: every thread
    // count must reproduce the 1-thread aggregate bit for bit.
    if (threads == 1) reference_average = average;
    RLBENCH_CHECK_MSG(average == reference_average,
                      "complexity average drifted across thread counts");

    feature_timings.push_back(benchutil::Measure(repeats, [&] {
      matchers::MatchingContext context(&task);
      context.MagellanTrain();  // forces the parallel batch extraction
    }));

    std::printf("threads=%zu complexity=%.3fs features=%.3fs (medians)\n",
                threads, complexity_timings.back().median_s,
                feature_timings.back().median_s);
  }
  run.manifest().EndPhase();
  SetParallelThreads(0);

  run.manifest().AddResult("labelled_pairs",
                           static_cast<double>(points.size()));
  auto record = [&run](const std::string& name,
                       const std::vector<benchutil::Timing>& timings) {
    for (size_t i = 0; i < timings.size(); ++i) {
      const std::string key =
          name + "/threads_" + std::to_string(kThreadSweep[i]);
      const double median = timings[i].median_s;
      run.AddTiming(key, timings[i]);
      run.manifest().AddResult(
          key + "_speedup", median > 0.0 ? timings[0].median_s / median : 0.0);
    }
  };
  record("complexity_measures", complexity_timings);
  record("magellan_features", feature_timings);
  run.Finish();
  return 0;
}
