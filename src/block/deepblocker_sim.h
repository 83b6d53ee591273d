// DeepBlocker simulator: embedding-based top-K nearest-neighbour blocking
// plus the Section VI grid-search tuner.
//
// The original DeepBlocker embeds records with fastText + a self-supervised
// autoencoder and retrieves each query record's K most similar index
// records. We reproduce the same architecture with the deterministic hashed
// subword embeddings: index one source, query with the other, keep the K
// best by cosine. The tuner then explores {attribute choice, cleaning,
// indexed side} and picks the smallest K whose recall (PC) reaches the
// target, maximising precision (PQ) — exactly the methodology of Table V.
#ifndef RLBENCH_SRC_BLOCK_DEEPBLOCKER_SIM_H_
#define RLBENCH_SRC_BLOCK_DEEPBLOCKER_SIM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/metrics.h"
#include "datagen/source_builder.h"
#include "embed/hashed_embedding.h"

namespace rlbench::block {

/// One point of the DeepBlocker configuration grid.
struct BlockerConfig {
  /// Attribute supplying the blocked text; -1 = all attributes concatenated
  /// (the schema-agnostic setting).
  int attr = -1;
  /// Apply cleaning (stop-word removal + stemming) before embedding.
  bool clean = false;
  /// Index D2 and query with D1's records (false = the reverse).
  bool index_d2 = true;
  /// Neighbours retrieved per query record.
  int k = 10;
};

std::string ConfigToString(const BlockerConfig& config,
                           const data::Schema& schema);

struct BlockingRun {
  BlockerConfig config;
  std::vector<CandidatePair> candidates;
  BlockingMetrics metrics;
};

/// \brief Embedding top-K blocker with a recall-targeted tuner.
class DeepBlockerSim {
 public:
  DeepBlockerSim(size_t dim, uint64_t seed) : model_(dim, seed) {}

  /// Run blocking under one fixed configuration.
  BlockingRun Run(const datagen::SourcePair& source,
                  const BlockerConfig& config) const;

  struct TuneOptions {
    double min_recall = 0.9;
    int k_max = 64;
    /// Individual attributes join the grid only when the larger table has
    /// at most this many records (keeps the grid affordable at scale).
    size_t per_attribute_limit = 25000;
  };

  /// Section VI steps 1-2: grid-search the config space, and for each
  /// configuration pick the smallest K reaching min_recall; return the run
  /// with the fewest candidates (maximum PQ) among those reaching it. If no
  /// configuration reaches the target, the run with the highest PC wins.
  /// The K scan is incremental: each rank's hits are counted once, only a
  /// new best or fallback is materialised, and EvaluateBlocking runs once,
  /// on the returned candidates.
  BlockingRun TuneForRecall(const datagen::SourcePair& source,
                            const TuneOptions& options) const;

 private:
  /// Record embedding for the configured text selection, with a token-
  /// vector cache owned by this instance (records share a small
  /// vocabulary).
  embed::Vec EmbedRecord(const data::Record& record, int attr,
                         bool clean) const;

  /// Ranked top-k_max neighbour lists for every query record.
  std::vector<std::vector<uint32_t>> RankedNeighbors(
      const data::Table& index_table, const data::Table& query_table,
      int attr, bool clean, int k_max) const;

  embed::HashedEmbedding model_;
  mutable std::unordered_map<std::string, embed::Vec> token_cache_;
};

}  // namespace rlbench::block

#endif  // RLBENCH_SRC_BLOCK_DEEPBLOCKER_SIM_H_
