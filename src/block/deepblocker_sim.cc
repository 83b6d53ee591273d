#include "block/deepblocker_sim.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/normalize.h"
#include "text/tokenizer.h"

namespace rlbench::block {

std::string ConfigToString(const BlockerConfig& config,
                           const data::Schema& schema) {
  std::string out;
  out += config.attr < 0 ? "all" : schema.attribute(config.attr);
  out += config.clean ? " cl=y" : " cl=n";
  out += " K=" + std::to_string(config.k);
  out += config.index_d2 ? " ind=D2" : " ind=D1";
  return out;
}

embed::Vec DeepBlockerSim::EmbedRecord(const data::Record& record, int attr,
                                       bool clean) const {
  std::string raw = attr < 0 ? record.ConcatenatedValues()
                             : record.values[static_cast<size_t>(attr)];
  auto tokens = text::Tokenize(raw);
  if (clean) tokens = text::StemAll(text::RemoveStopWords(tokens));

  embed::Vec out(model_.dim(), 0.0F);
  if (tokens.empty()) return out;
  for (const auto& token : tokens) {
    auto it = token_cache_.find(token);
    if (it == token_cache_.end()) {
      it = token_cache_.emplace(token, model_.EmbedToken(token)).first;
    }
    embed::AddInPlace(&out, it->second);
  }
  embed::ScaleInPlace(&out, 1.0F / static_cast<float>(tokens.size()));
  embed::L2NormalizeInPlace(&out);
  return out;
}

std::vector<std::vector<uint32_t>> DeepBlockerSim::RankedNeighbors(
    const data::Table& index_table, const data::Table& query_table, int attr,
    bool clean, int k_max) const {
  RLBENCH_TRACE_SPAN("block/deepblocker/rank");
  size_t dim = model_.dim();
  size_t index_size = index_table.size();
  std::vector<float> index_matrix(index_size * dim);
  for (size_t i = 0; i < index_size; ++i) {
    embed::Vec v = EmbedRecord(index_table.record(i), attr, clean);
    std::copy(v.begin(), v.end(), index_matrix.begin() + i * dim);
  }

  size_t k = std::min<size_t>(k_max, index_size);
  std::vector<std::vector<uint32_t>> ranked(query_table.size());
  std::vector<std::pair<float, uint32_t>> scores(index_size);
  for (size_t q = 0; q < query_table.size(); ++q) {
    embed::Vec qv = EmbedRecord(query_table.record(q), attr, clean);
    for (size_t i = 0; i < index_size; ++i) {
      const float* row = &index_matrix[i * dim];
      float dot = 0.0F;
      for (size_t d = 0; d < dim; ++d) dot += row[d] * qv[d];
      scores[i] = {dot, static_cast<uint32_t>(i)};
    }
    std::partial_sort(scores.begin(), scores.begin() + k, scores.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    ranked[q].reserve(k);
    for (size_t r = 0; r < k; ++r) ranked[q].push_back(scores[r].second);
  }
  return ranked;
}

namespace {

uint64_t PairKey(uint32_t d1, uint32_t d2) {
  return (static_cast<uint64_t>(d1) << 32) | d2;
}

/// Translate ranked neighbour lists truncated at k into (d1, d2) candidate
/// pairs, respecting which table was indexed.
std::vector<CandidatePair> MaterializeCandidates(
    const std::vector<std::vector<uint32_t>>& ranked, int k, bool index_d2) {
  std::vector<CandidatePair> candidates;
  candidates.reserve(ranked.size() * static_cast<size_t>(k));
  for (size_t q = 0; q < ranked.size(); ++q) {
    size_t limit = std::min<size_t>(k, ranked[q].size());
    for (size_t r = 0; r < limit; ++r) {
      if (index_d2) {
        candidates.emplace_back(static_cast<uint32_t>(q), ranked[q][r]);
      } else {
        candidates.emplace_back(ranked[q][r], static_cast<uint32_t>(q));
      }
    }
  }
  return candidates;
}

}  // namespace

BlockingRun DeepBlockerSim::Run(const datagen::SourcePair& source,
                                const BlockerConfig& config) const {
  RLBENCH_TRACE_SPAN("block/deepblocker/run");
  const data::Table& index_table = config.index_d2 ? source.d2 : source.d1;
  const data::Table& query_table = config.index_d2 ? source.d1 : source.d2;
  auto ranked = RankedNeighbors(index_table, query_table, config.attr,
                                config.clean, config.k);
  BlockingRun run;
  run.config = config;
  run.candidates = MaterializeCandidates(ranked, config.k, config.index_d2);
  RLBENCH_COUNTER_ADD("block/deepblocker/candidates", run.candidates.size());
  run.metrics = EvaluateBlocking(run.candidates, source.matches);
  return run;
}

BlockingRun DeepBlockerSim::TuneForRecall(const datagen::SourcePair& source,
                                          const TuneOptions& options) const {
  RLBENCH_TRACE_SPAN("block/deepblocker/tune");
  size_t larger = std::max(source.d1.size(), source.d2.size());
  std::vector<int> attrs = {-1};
  if (larger <= options.per_attribute_limit) {
    for (size_t a = 0; a < source.d1.schema().num_attributes(); ++a) {
      attrs.push_back(static_cast<int>(a));
    }
  }

  // Ground truth as pair keys; the distinct count is EvaluateBlocking's PC
  // denominator.
  std::unordered_set<uint64_t> truth;
  truth.reserve(source.matches.size() * 2);
  for (const auto& [d1, d2] : source.matches) truth.insert(PairKey(d1, d2));

  bool found_any = false;
  BlockingRun best;
  BlockingRun best_recall_fallback;
  double best_fallback_pc = -1.0;

  for (int attr : attrs) {
    for (bool clean : {false, true}) {
      for (bool index_d2 : {true, false}) {
        const data::Table& index_table = index_d2 ? source.d2 : source.d1;
        const data::Table& query_table = index_d2 ? source.d1 : source.d2;
        auto ranked = RankedNeighbors(index_table, query_table, attr, clean,
                                      options.k_max);
        // Scan k = 1, 2, ... incrementally. Rank k adds one distinct
        // candidate per query that has a k-th neighbour (ranks within a
        // query are distinct index records), so the candidate and hit
        // counts at k are those at k - 1 plus rank k's; the metrics equal
        // EvaluateBlocking's on the materialised set bit for bit. PC is
        // monotone in k, so stop at the first k reaching the target (the
        // fewest candidates for this configuration).
        size_t num_candidates = 0;
        size_t hits = 0;
        for (int k = 1; k <= options.k_max; ++k) {
          const size_t rank = static_cast<size_t>(k - 1);
          for (size_t q = 0; q < ranked.size(); ++q) {
            if (rank >= ranked[q].size()) continue;
            uint32_t query = static_cast<uint32_t>(q);
            uint32_t neighbour = ranked[q][rank];
            ++num_candidates;
            hits += truth.count(index_d2 ? PairKey(query, neighbour)
                                         : PairKey(neighbour, query));
          }
          BlockingMetrics metrics =
              BlockingMetricsFromCounts(hits, num_candidates, truth.size());
          RLBENCH_COUNTER_INC("block/deepblocker/configs_tried");
          BlockerConfig config{attr, clean, index_d2, k};
          if (metrics.pair_completeness > best_fallback_pc) {
            best_fallback_pc = metrics.pair_completeness;
            best_recall_fallback = {
                config, MaterializeCandidates(ranked, k, index_d2), metrics};
          }
          if (metrics.pair_completeness >= options.min_recall) {
            if (!found_any || num_candidates < best.metrics.num_candidates) {
              best = {config, MaterializeCandidates(ranked, k, index_d2),
                      metrics};
              found_any = true;
            }
            break;  // larger k only adds candidates
          }
        }
      }
    }
  }
  BlockingRun chosen =
      found_any ? std::move(best) : std::move(best_recall_fallback);
  // The one full evaluation: the incremental counts must agree with it.
  BlockingMetrics evaluated =
      EvaluateBlocking(chosen.candidates, source.matches);
  RLBENCH_CHECK_EQ(evaluated.true_candidates, chosen.metrics.true_candidates);
  RLBENCH_CHECK_EQ(evaluated.num_candidates, chosen.metrics.num_candidates);
  chosen.metrics = evaluated;
  return chosen;
}

}  // namespace rlbench::block
