// Out-of-core bulk resolution macro benchmark (ISSUE 8): stream a
// million-record synthetic source pair through the sharded spill-to-disk
// pipeline in each blocking mode and report throughput — records/sec into
// the spill, candidate pairs/sec through the scoring kernels — plus peak
// RSS, which stays bounded by the shard budget instead of the dataset
// size. Results land in the run manifest (peak RSS in its
// peak_rss_bytes), which the reference invocation (no flags) publishes as
// bench_results/BENCH_bulk.json; every shard also writes its own run
// manifest (bench_results/macro_bulk_<mode>.shard_NN.manifest.json) so a
// degraded shard is visible in the artefacts, not just the exit code.
//
// Flags: --records (total across both sides, default 1000000)
//        --mode    (sn | minhash | both, default both)
//        --shards  (default 64), --budget_mb (default 64)
//        --threshold (default 0.5), --seed (default 1)
//        --smoke   (CI preset: 20000 records, 4 shards, 16 MiB budget)
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bulk/options.h"
#include "bulk/resolver.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "datagen/bulk_source.h"
#include "datagen/spec.h"
#include "obs/resource.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool smoke = flags.GetBool("smoke", false);
  uint64_t records = static_cast<uint64_t>(
      flags.GetInt("records", smoke ? 20000 : 1000000));
  std::string mode_flag = flags.GetString("mode", "both");
  // 64 shards at full scale keeps the decoded size of any one shard (the
  // real memory high-water mark) in the same ballpark as the spill budget;
  // minhash replicates entries per band key, so its shards are the fattest.
  size_t shards =
      static_cast<size_t>(flags.GetInt("shards", smoke ? 4 : 64));
  size_t budget_mb =
      static_cast<size_t>(flags.GetInt("budget_mb", smoke ? 16 : 64));
  double threshold = flags.GetDouble("threshold", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  datagen::SourceDatasetSpec spec;
  spec.id = "bulk";
  spec.d1_name = "BulkA";
  spec.d2_name = "BulkB";
  spec.domain = datagen::Domain::kProduct;
  spec.d1_size = static_cast<size_t>(records / 2);
  spec.d2_size = static_cast<size_t>(records - records / 2);
  spec.matches = static_cast<size_t>(records / 10);
  spec.seed = seed;
  datagen::BulkSourceGenerator source(spec);
  uint64_t total_records = source.size(0) + source.size(1);

  benchutil::BenchRun run("macro_bulk");
  if (argc == 1) run.PublishAs("bulk");
  run.manifest().set_seed(seed);
  run.manifest().AddDataset(spec.id);
  run.manifest().AddConfig("records", static_cast<int64_t>(total_records));
  run.manifest().AddConfig("mode", mode_flag);
  run.manifest().AddConfig("shards", static_cast<int64_t>(shards));
  run.manifest().AddConfig("budget_mb", static_cast<int64_t>(budget_mb));
  run.manifest().AddConfig("threshold", threshold);
  run.manifest().AddConfig("smoke", std::string(smoke ? "true" : "false"));

  std::vector<bulk::BulkMode> modes;
  if (mode_flag == "sn" || mode_flag == "both") {
    modes.push_back(bulk::BulkMode::kSortedNeighborhood);
  }
  if (mode_flag == "minhash" || mode_flag == "both") {
    modes.push_back(bulk::BulkMode::kMinHash);
  }
  RLBENCH_CHECK_MSG(!modes.empty(), "unknown --mode (use sn|minhash|both)");

  uint64_t bytes_streamed = 0;
  bool all_resolved = true;
  for (bulk::BulkMode mode : modes) {
    const std::string mode_name = bulk::BulkModeName(mode);
    bulk::BulkOptions options;
    options.mode = mode;
    options.shards = shards;
    options.memory_budget_bytes = budget_mb << 20;
    options.threshold = threshold;
    // Per-process spill dir: each mode ends with remove_all(spill_dir), so
    // concurrent invocations sharing a cwd must not share spill space.
    options.spill_dir = flags.GetString(
        "spill_dir", "bulk_spill." + std::to_string(getpid()));
    options.manifest_dir = benchutil::ResultsDir();
    options.manifest_stem = "macro_bulk_" + mode_name;
    options.output_path = options.spill_dir + "/matches_" + mode_name + ".csv";

    run.manifest().BeginPhase("mode/" + mode_name);
    Stopwatch watch;
    auto resolved = bulk::BulkResolve(source, options);
    const double seconds = watch.ElapsedSeconds();
    if (!resolved.ok()) run.manifest().FailPhase(resolved.status().ToString());
    run.manifest().EndPhase();

    std::error_code ec;
    std::filesystem::remove_all(options.spill_dir, ec);

    if (!resolved.ok()) {
      all_resolved = false;
      std::printf("%-8s FAILED: %s\n", mode_name.c_str(),
                  resolved.status().ToString().c_str());
      continue;
    }
    const bulk::BulkResult& result = *resolved;
    bytes_streamed = result.bytes_streamed;
    const double records_per_sec =
        static_cast<double>(total_records) / seconds;
    const double candidates_per_sec =
        static_cast<double>(result.candidate_pairs) / seconds;
    std::printf(
        "%-8s %9.2fs  %11.0f rec/s  %12.0f cand/s  "
        "%llu candidates, %zu matched, %zu/%zu shards failed\n",
        mode_name.c_str(), seconds, records_per_sec, candidates_per_sec,
        static_cast<unsigned long long>(result.candidate_pairs),
        result.matches.size(), result.shards_failed, shards);
    obs::RunManifest& m = run.manifest();
    m.AddResult(mode_name + "/seconds", seconds);
    m.AddResult(mode_name + "/records_per_sec", records_per_sec);
    m.AddResult(mode_name + "/candidates_per_sec", candidates_per_sec);
    m.AddResult(mode_name + "/candidate_pairs",
                static_cast<double>(result.candidate_pairs));
    m.AddResult(mode_name + "/matched_pairs",
                static_cast<double>(result.matches.size()));
    m.AddResult(mode_name + "/spilled_bytes",
                static_cast<double>(result.spilled_bytes));
    m.AddResult(mode_name + "/shards_failed",
                static_cast<double>(result.shards_failed));
    if (result.shards_failed == shards) all_resolved = false;
  }

  int64_t peak_rss = obs::PeakRssBytes();
  std::printf("peak RSS %.1f MiB, streamed %.1f MiB of record bytes\n",
              static_cast<double>(peak_rss) / (1 << 20),
              static_cast<double>(bytes_streamed) / (1 << 20));

  run.manifest().AddResult("bytes_streamed",
                           static_cast<double>(bytes_streamed));
  run.Finish();
  return all_resolved ? 0 : 1;
}
