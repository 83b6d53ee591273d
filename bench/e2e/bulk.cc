// The bulk workloads: bulk::BulkResolve over a streamed synthetic source
// pair, in sorted-neighbourhood mode (bulk_sn: external sort + merge of
// sorted runs) or MinHash mode (bulk_minhash: hash-partitioned, unsorted
// runs with one copy of each record per band).
#include <algorithm>
#include <bit>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bulk/options.h"
#include "bulk/resolver.h"
#include "bulk/shard_io.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/feature_cache.h"
#include "data/file_source.h"
#include "datagen/bulk_source.h"
#include "e2e.h"
#include "serve/wire.h"
#include "text/similarity.h"

namespace rlbench::e2e {
namespace {

struct BulkSizes {
  uint64_t records;       // both sides together
  size_t shards;
  size_t budget_kb;
  size_t probe_records;   // sample the per-call probes time
};

// macro_bulk runs 1M records (sn) and 300k (minhash) with 64 shards and a
// 64 MiB budget; these sizes keep the spill-to-budget ratio (~3 for sn, ~10
// for minhash), so both modes still flush several runs and sn still merges
// them. A single-threaded resolve takes 0.25-0.6 s, so a run times 40-100
// of them, each against its own reference run (see OpTimings in e2e.h).
BulkSizes Sizes(bulk::BulkMode mode, bool smoke) {
  if (smoke) return {20000, 4, 4096, 2000};
  if (mode == bulk::BulkMode::kSortedNeighborhood) {
    return {20000, 16, 1280, 20000};
  }
  return {6000, 16, 1280, 6000};
}

uint64_t PairKey(uint64_t left, uint64_t right) { return (left << 32) | right; }

/// Jaccard of two streamed records recomputed independently of the
/// pipeline: one-record tables, the row cache's token sets, the scalar
/// similarity.
double Rescore(const datagen::BulkSourceGenerator& source, uint64_t left,
               uint64_t right) {
  data::Table a("a", source.schema());
  data::Table b("b", source.schema());
  a.Add(source.RecordAt(datagen::BulkSourceGenerator::kD1, left));
  b.Add(source.RecordAt(datagen::BulkSourceGenerator::kD2, right));
  data::RecordFeatureCache left_cache(&a);
  data::RecordFeatureCache right_cache(&b);
  return text::JaccardSimilarity(left_cache.TokenSetAll(0),
                                 right_cache.TokenSetAll(0));
}

/// Seconds per shard phase ("read", "candidates", "score"), summed over the
/// per-shard run manifests the resolver wrote.
std::map<std::string, double> ShardPhaseSeconds(const bulk::BulkResult& result) {
  std::map<std::string, double> seconds;
  for (const bulk::ShardOutcome& shard : result.shards) {
    if (shard.manifest_path.empty()) continue;
    auto text = data::FileSource::ReadAll(shard.manifest_path);
    if (!text.ok()) continue;
    auto manifest = serve::ParseJson(*text);
    if (!manifest.ok()) continue;
    const serve::JsonValue* phases = manifest->Find("phases");
    if (phases == nullptr) continue;
    for (const serve::JsonValue& phase : phases->AsArray()) {
      seconds[phase.GetString("name")] += phase.GetNumber("seconds");
    }
  }
  return seconds;
}

/// Per-call probes of the functions the streaming phase runs per record,
/// over the first `count` records of each side.
struct Probes {
  double record_us = 0.0;
  double key_us = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double entry_bytes = 0.0;  // encoded line incl. its newline
  bool decoded_ok = true;
};

Probes RunProbes(const datagen::BulkSourceGenerator& source,
                 const bulk::BulkOptions& options, size_t count,
                 Spans* spans) {
  Probes probes;
  std::vector<data::Record> records;
  records.reserve(count);
  {
    Spans::Scope span(spans, "datagen.record_at");
    Stopwatch watch;
    for (size_t i = 0; i < count; ++i) {
      records.push_back(source.RecordAt(i % 2, i / 2));
    }
    probes.record_us = watch.ElapsedSeconds() * 1e6 / static_cast<double>(count);
  }
  std::vector<bulk::SpillEntry> entries(count);
  {
    const bool sn = options.mode == bulk::BulkMode::kSortedNeighborhood;
    Spans::Scope span(spans, sn ? "block.sn_key" : "block.band_keys");
    Stopwatch watch;
    for (size_t i = 0; i < count; ++i) {
      if (sn) {
        entries[i].key =
            bulk::SortedNeighborhoodKey(records[i], options.sn.key_tokens);
      } else {
        entries[i].band_keys = bulk::BandKeysOf(records[i], options.minhash);
        entries[i].key = std::to_string(entries[i].band_keys[0]);
      }
    }
    probes.key_us = watch.ElapsedSeconds() * 1e6 / static_cast<double>(count);
  }
  for (size_t i = 0; i < count; ++i) {
    entries[i].side = static_cast<uint8_t>(i % 2);
    entries[i].position = i / 2;
    entries[i].values = records[i].values;
  }
  std::vector<std::string> lines(count);
  {
    Spans::Scope span(spans, "bulk.encode");
    Stopwatch watch;
    for (size_t i = 0; i < count; ++i) lines[i] = bulk::EncodeSpillEntry(entries[i]);
    probes.encode_us = watch.ElapsedSeconds() * 1e6 / static_cast<double>(count);
  }
  {
    Spans::Scope span(spans, "bulk.decode");
    Stopwatch watch;
    bulk::SpillEntry decoded;
    for (size_t i = 0; i < count; ++i) {
      probes.decoded_ok &= bulk::DecodeSpillEntry(lines[i], &decoded).ok() &&
                           decoded.values == entries[i].values;
    }
    probes.decode_us = watch.ElapsedSeconds() * 1e6 / static_cast<double>(count);
  }
  double bytes = 0.0;
  for (const std::string& line : lines) bytes += static_cast<double>(line.size() + 1);
  probes.entry_bytes = bytes / static_cast<double>(count);
  return probes;
}

/// The resolver's output guarantees: sorted by (left, right), unique, in range, at or
/// above the threshold; and 256 sampled scores recomputed bit for bit.
void CheckMatches(const datagen::BulkSourceGenerator& source,
                  const bulk::BulkOptions& options,
                  const std::vector<bulk::MatchedPair>& matches,
                  uint64_t seed, const std::string& mode, Report* report) {
  size_t disordered = 0;
  size_t invalid = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    const bulk::MatchedPair& m = matches[i];
    if (i > 0 && PairKey(matches[i - 1].left, matches[i - 1].right) >=
                     PairKey(m.left, m.right)) {
      ++disordered;
    }
    if (!(m.score >= options.threshold && m.score <= 1.0) ||
        m.left >= source.size(0) || m.right >= source.size(1)) {
      ++invalid;
    }
  }
  report->AddCheck(mode + ": matches sorted and unique", disordered == 0,
                   std::to_string(disordered) + " out of order");
  report->AddCheck(mode + ": matches in range and above threshold",
                   invalid == 0, std::to_string(invalid) + " invalid");

  std::vector<size_t> sample(std::min<size_t>(256, matches.size()));
  if (sample.size() < matches.size()) {
    sample = Rng(seed).SampleIndices(matches.size(), sample.size());
  } else {
    for (size_t i = 0; i < sample.size(); ++i) sample[i] = i;
  }
  size_t differing = 0;
  for (size_t i : sample) {
    const bulk::MatchedPair& m = matches[i];
    if (std::bit_cast<uint64_t>(Rescore(source, m.left, m.right)) !=
        std::bit_cast<uint64_t>(m.score)) {
      ++differing;
    }
  }
  report->AddCheck(mode + ": sampled scores recompute bit for bit",
                   differing == 0,
                   std::to_string(differing) + " of " +
                       std::to_string(sample.size()) + " differ");
}

}  // namespace

Status RunBulk(const Options& options, Pass* pass, Report* report) {
  const bulk::BulkMode mode = options.workload == "bulk_sn"
                                  ? bulk::BulkMode::kSortedNeighborhood
                                  : bulk::BulkMode::kMinHash;
  const BulkSizes sizes = Sizes(mode, options.smoke);
  const std::string name = options.workload;
  SetParallelThreads(kBatchThreads);

  // macro_bulk's source: seed 1 here is macro_bulk's seed 1.
  datagen::SourceDatasetSpec spec;
  spec.id = "bulk";
  spec.d1_name = "BulkA";
  spec.d2_name = "BulkB";
  spec.domain = datagen::Domain::kProduct;
  spec.d1_size = static_cast<size_t>(sizes.records / 2);
  spec.d2_size = static_cast<size_t>(sizes.records - sizes.records / 2);
  spec.matches = static_cast<size_t>(sizes.records / 10);
  spec.seed = options.seed;

  bulk::BulkOptions bulk_options;
  bulk_options.mode = mode;
  bulk_options.shards = sizes.shards;
  bulk_options.memory_budget_bytes = sizes.budget_kb << 10;
  bulk_options.spill_dir = options.scratch + "/spill";
  if (pass->traced) bulk_options.manifest_dir = options.scratch + "/manifests";

  Spans spans(name);
  std::optional<datagen::BulkSourceGenerator> source;
  std::unordered_set<uint64_t> truth;
  OpTimings timings;
  std::optional<bulk::BulkResult> first;
  std::string first_digest;
  size_t mismatches = 0;
  std::map<std::string, double> phase_seconds;
  Budget budget(pass->seconds);
  while (budget.Next()) {
    // Set-up: the generator, the ground truth the recall is measured
    // against, and the spill directory.
    {
      Stopwatch watch;
      Spans::Scope span(&spans, "datagen.setup");
      source.emplace(spec);
      truth.clear();
      truth.reserve(source->num_matches());
      for (uint64_t entity = 0; entity < source->num_matches(); ++entity) {
        auto [left, right] = source->MatchPositions(entity);
        truth.insert(PairKey(left, right));
      }
      std::error_code ec;
      std::filesystem::create_directories(bulk_options.spill_dir, ec);
      timings.setup_s.push_back(watch.ElapsedSeconds());
      if (ec) return Status::IOError("bulk: cannot create spill dir");
    }
    bulk_options.manifest_stem =
        name + "_" + std::to_string(timings.op_ms.size());
    RLBENCH_RETURN_NOT_OK(timings.Reference());
    Stopwatch watch;
    const double cpu_start_s = CpuSeconds();
    auto resolved = [&] {
      Spans::Scope span(&spans, "bulk.resolve");
      return bulk::BulkResolve(*source, bulk_options);
    }();
    timings.op_ms.push_back(watch.ElapsedMillis());
    timings.op_cpu_s.push_back(CpuSeconds() - cpu_start_s);
    if (!resolved.ok()) return resolved.status();
    pass->attempted += resolved->shards.size();
    pass->failed += resolved->shards_failed;
    for (const auto& [phase, seconds] : ShardPhaseSeconds(*resolved)) {
      phase_seconds[phase] += seconds;
    }
    std::string digest = Fnv1aHex(bulk::SerializeMatches(resolved->matches));
    if (!first.has_value()) {
      first = std::move(*resolved);
      first_digest = digest;
    } else if (digest != first_digest ||
               resolved->candidate_pairs != first->candidate_pairs ||
               resolved->spilled_bytes != first->spilled_bytes) {
      ++mismatches;
    }
  }
  const uint64_t records = source->size(0) + source->size(1);

  size_t found = 0;
  for (const bulk::MatchedPair& m : first->matches) {
    found += truth.count(PairKey(m.left, m.right));
  }
  const double recall =
      static_cast<double>(found) / static_cast<double>(truth.size());
  CheckMatches(*source, bulk_options, first->matches, options.seed, name,
               report);
  report->AddCheck(name + ": resolves agree byte for byte", mismatches == 0,
                   std::to_string(mismatches) + " of " +
                       std::to_string(timings.op_ms.size()) + " differ");
  report->AddCheck(name + ": no shard failed", pass->failed == 0,
                   std::to_string(pass->failed) + " failed");

  timings.Fill(static_cast<double>(records), "resolve", pass);
  pass->pins[name + "/digest"] = first_digest;
  pass->pins[name + "/matches"] = std::to_string(first->matches.size());
  pass->pins[name + "/candidates"] = std::to_string(first->candidate_pairs);
  pass->pins[name + "/recall"] = Exact(recall);
  if (!pass->traced) return Status::OK();

  const Probes probes =
      RunProbes(*source, bulk_options, sizes.probe_records, &spans);
  report->AddCheck(name + ": spill entries decode to what was encoded",
                   probes.decoded_ok);
  const double resolves = static_cast<double>(timings.op_ms.size());
  const Spans::Totals resolve = spans.Get("bulk.resolve");
  double shard_s = 0.0;
  for (const char* phase : {"read", "candidates", "score"}) {
    shard_s += phase_seconds[phase];
  }
  report->Layer("bulk.partition_share", (resolve.wall_s - shard_s) / resolve.wall_s,
                "ratio");
  report->Layer("bulk.shard_read_share", phase_seconds["read"] / resolve.wall_s,
                "ratio");
  report->Layer("bulk.candidates_share",
                phase_seconds["candidates"] / resolve.wall_s, "ratio");
  report->Layer("bulk.score_share", phase_seconds["score"] / resolve.wall_s,
                "ratio");
  report->Layer("bulk.cpu_ratio", resolve.cpu_s / resolve.wall_s, "ratio");
  const double spilled = static_cast<double>(first->spilled_bytes);
  const double candidates = static_cast<double>(first->candidate_pairs);
  report->Layer("bulk.spill_bytes_per_record",
                spilled / static_cast<double>(records), "B");
  report->Layer("bulk.candidates_per_record",
                candidates / static_cast<double>(records), "ratio");
  report->Layer("bulk.match_yield",
                candidates > 0.0
                    ? static_cast<double>(first->matches.size()) / candidates
                    : 0.0,
                "ratio");
  report->Layer("bulk.recall", recall, "ratio");

  // The per-call probes as shares of one resolve's CPU time: what each
  // per-record function costs the streaming pipeline. Spilled entries are
  // estimated from the spilled bytes and the probed encoded size.
  const double resolve_cpu_us = resolve.cpu_s / resolves * 1e6;
  const double entries = spilled / probes.entry_bytes;
  const bool sn = mode == bulk::BulkMode::kSortedNeighborhood;
  report->Layer("datagen.record_cpu_share",
                probes.record_us * static_cast<double>(records) / resolve_cpu_us,
                "ratio");
  report->Layer(sn ? "block.sn_key_cpu_share" : "block.band_keys_cpu_share",
                probes.key_us * static_cast<double>(records) / resolve_cpu_us,
                "ratio");
  report->Layer("bulk.encode_cpu_share", probes.encode_us * entries / resolve_cpu_us,
                "ratio");
  report->Layer("bulk.decode_cpu_share", probes.decode_us * entries / resolve_cpu_us,
                "ratio");
  report->Detail("datagen.record_us", probes.record_us, "us");
  report->Detail(sn ? "block.sn_key_us" : "block.band_keys_us", probes.key_us,
                 "us");
  report->Detail("bulk.encode_us", probes.encode_us, "us");
  report->Detail("bulk.decode_us", probes.decode_us, "us");
  report->Detail("bulk.spill_entries", entries, "count");
  report->Detail("bulk.resolve_s", resolve.wall_s / resolves, "s");
  report->Detail("bulk.partition_s", (resolve.wall_s - shard_s) / resolves, "s");
  report->Detail("bulk.shard_read_s", phase_seconds["read"] / resolves, "s");
  report->Detail("bulk.candidates_s", phase_seconds["candidates"] / resolves,
                 "s");
  report->Detail("bulk.score_s", phase_seconds["score"] / resolves, "s");
  report->Detail("bulk.spill_mb", spilled / (1024.0 * 1024.0), "MiB");
  report->Detail("e2e.reference_ms", Quantile(timings.reference_ms, 0.5), "ms");
  spans.Export(report);
  return Status::OK();
}

}  // namespace rlbench::e2e
