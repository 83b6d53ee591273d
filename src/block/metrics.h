// Blocking quality metrics: pair completeness (PC, recall) and pairs
// quality (PQ, precision), as used throughout Section VI and Table V.
#ifndef RLBENCH_SRC_BLOCK_METRICS_H_
#define RLBENCH_SRC_BLOCK_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rlbench::block {

/// One candidate pair: (index into D1, index into D2).
using CandidatePair = std::pair<uint32_t, uint32_t>;

struct BlockingMetrics {
  double pair_completeness = 0.0;  // PC: |candidates ∩ matches| / |matches|
  double pairs_quality = 0.0;      // PQ: |candidates ∩ matches| / |candidates|
  size_t true_candidates = 0;      // |candidates ∩ matches|
  size_t num_candidates = 0;
};

/// Evaluate a candidate set against the ground truth. Duplicate candidate
/// or match pairs are counted once; PC and PQ are guaranteed in [0, 1].
BlockingMetrics EvaluateBlocking(const std::vector<CandidatePair>& candidates,
                                 const std::vector<CandidatePair>& matches);

/// The metrics EvaluateBlocking reports for `num_candidates` candidates of
/// which `true_candidates` hit distinct ground-truth matches, out of
/// `distinct_matches` (0 = no ground truth: PC and PQ read 0).
BlockingMetrics BlockingMetricsFromCounts(size_t true_candidates,
                                          size_t num_candidates,
                                          size_t distinct_matches);

}  // namespace rlbench::block

#endif  // RLBENCH_SRC_BLOCK_METRICS_H_
