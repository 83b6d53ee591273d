#include "block/metrics.h"

#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbench::block {

namespace {
uint64_t Key(const CandidatePair& pair) {
  return (static_cast<uint64_t>(pair.first) << 32) | pair.second;
}
}  // namespace

BlockingMetrics BlockingMetricsFromCounts(size_t true_candidates,
                                          size_t num_candidates,
                                          size_t distinct_matches) {
  BlockingMetrics metrics;
  metrics.num_candidates = num_candidates;
  if (distinct_matches == 0) return metrics;
  RLBENCH_CHECK_LE(true_candidates, distinct_matches);
  RLBENCH_CHECK_LE(true_candidates, num_candidates);
  metrics.true_candidates = true_candidates;
  metrics.pair_completeness = static_cast<double>(true_candidates) /
                              static_cast<double>(distinct_matches);
  if (num_candidates > 0) {
    metrics.pairs_quality = static_cast<double>(true_candidates) /
                            static_cast<double>(num_candidates);
  }
  RLBENCH_CHECK_PROB(metrics.pair_completeness);
  RLBENCH_CHECK_PROB(metrics.pairs_quality);
  return metrics;
}

BlockingMetrics EvaluateBlocking(const std::vector<CandidatePair>& candidates,
                                 const std::vector<CandidatePair>& matches) {
  RLBENCH_TRACE_SPAN("block/evaluate");
  RLBENCH_COUNTER_ADD("block/evaluated_candidates", candidates.size());
  if (matches.empty()) {
    return BlockingMetricsFromCounts(0, candidates.size(), 0);
  }

  std::unordered_set<uint64_t> truth;
  truth.reserve(matches.size() * 2);
  for (const auto& match : matches) truth.insert(Key(match));
  size_t distinct_matches = truth.size();

  // Stage 1 (parallel): probe the immutable truth set for every candidate —
  // the O(candidates) hashing work. Concurrent reads of the set are safe
  // and each index writes only its own flag slot.
  std::vector<uint8_t> is_truth(candidates.size(), 0);
  ParallelFor(0, candidates.size(), kDefaultGrain, [&](size_t i) {
    is_truth[i] = truth.count(Key(candidates[i])) != 0 ? 1 : 0;
  });
  // Stage 2 (serial): erase flagged keys so a duplicated candidate pair
  // cannot count the same ground-truth match twice and push pair
  // completeness past 1.0. Only the (few) flagged candidates are touched.
  size_t true_candidates = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (is_truth[i] != 0 && truth.erase(Key(candidates[i])) != 0) {
      ++true_candidates;
    }
  }
  RLBENCH_COUNTER_ADD("block/true_candidates", true_candidates);
  return BlockingMetricsFromCounts(true_candidates, candidates.size(),
                                   distinct_matches);
}

}  // namespace rlbench::block
