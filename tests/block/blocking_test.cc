#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "block/deepblocker_sim.h"
#include "block/metrics.h"
#include "block/token_blocking.h"
#include "datagen/catalog.h"
#include "datagen/source_builder.h"
#include "obs/metrics.h"

namespace rlbench::block {
namespace {

TEST(BlockingMetricsTest, ExactValues) {
  std::vector<CandidatePair> matches = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  std::vector<CandidatePair> candidates = {{0, 0}, {1, 1}, {5, 5}, {6, 6},
                                           {7, 7}};
  auto metrics = EvaluateBlocking(candidates, matches);
  EXPECT_EQ(metrics.true_candidates, 2u);
  EXPECT_DOUBLE_EQ(metrics.pair_completeness, 0.5);
  EXPECT_DOUBLE_EQ(metrics.pairs_quality, 0.4);
}

TEST(BlockingMetricsTest, EmptyCandidates) {
  auto metrics = EvaluateBlocking({}, {{0, 0}});
  EXPECT_DOUBLE_EQ(metrics.pair_completeness, 0.0);
  EXPECT_DOUBLE_EQ(metrics.pairs_quality, 0.0);
}

data::Table SmallTable(const char* name,
                       std::vector<std::vector<std::string>> rows) {
  data::Table table(name, data::Schema({"text"}));
  int i = 0;
  for (auto& row : rows) {
    table.Add(data::Record{name + std::to_string(i++), std::move(row)});
  }
  return table;
}

TEST(TokenBlockingTest, SharedTokenMakesCandidate) {
  auto d1 = SmallTable("a", {{"apple iphone"}, {"samsung galaxy"}});
  auto d2 = SmallTable("b", {{"iphone case"}, {"dell laptop"}});
  auto candidates = TokenBlocking(d1, d2, {});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].first, 0u);
  EXPECT_EQ(candidates[0].second, 0u);
}

TEST(TokenBlockingTest, StopTokenBlocksSkipped) {
  std::vector<std::vector<std::string>> left;
  std::vector<std::vector<std::string>> right;
  for (int i = 0; i < 10; ++i) {
    // The numeric suffixes never collide across tables, so "common" is the
    // only shared token — and its block is oversized.
    left.push_back({"common token l" + std::to_string(i)});
    right.push_back({"common other r" + std::to_string(i)});
  }
  auto d1 = SmallTable("a", left);
  auto d2 = SmallTable("b", right);
  TokenBlockingOptions options;
  options.max_block_size = 5;  // "common" appears 10 times -> skipped
  auto candidates = TokenBlocking(d1, d2, options);
  EXPECT_TRUE(candidates.empty());
}

TEST(TokenBlockingTest, CandidateCapRespected) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({"shared"});
  auto d1 = SmallTable("a", rows);
  auto d2 = SmallTable("b", rows);
  TokenBlockingOptions options;
  options.max_block_size = 1000;
  options.max_candidates = 37;
  EXPECT_EQ(TokenBlocking(d1, d2, options).size(), 37u);
}

class DeepBlockerTest : public ::testing::Test {
 protected:
  datagen::SourcePair MakeSource() {
    auto spec = *datagen::FindSourceDataset("Dn3");
    return datagen::BuildSourceDataset(spec, 0.1);
  }
};

TEST_F(DeepBlockerTest, TopKRecallGrowsWithK) {
  auto source = MakeSource();
  DeepBlockerSim blocker(32, 5);
  BlockerConfig config;
  config.k = 1;
  auto run1 = blocker.Run(source, config);
  config.k = 10;
  auto run10 = blocker.Run(source, config);
  EXPECT_GE(run10.metrics.pair_completeness,
            run1.metrics.pair_completeness);
  EXPECT_GE(run1.metrics.pairs_quality, run10.metrics.pairs_quality);
  EXPECT_EQ(run10.candidates.size(), source.d1.size() * 10);
}

TEST_F(DeepBlockerTest, LowNoiseSourceReachesHighRecallAtSmallK) {
  auto source = MakeSource();  // Dn3: bibliographic, low noise
  DeepBlockerSim blocker(32, 5);
  BlockerConfig config;
  config.k = 5;
  auto run = blocker.Run(source, config);
  EXPECT_GT(run.metrics.pair_completeness, 0.85);
}

TEST_F(DeepBlockerTest, TunerReachesTargetRecall) {
  auto source = MakeSource();
  DeepBlockerSim blocker(32, 5);
  DeepBlockerSim::TuneOptions options;
  options.min_recall = 0.9;
  options.k_max = 16;
  auto best = blocker.TuneForRecall(source, options);
  EXPECT_GE(best.metrics.pair_completeness, 0.9);
  // Tuning must not return an absurdly loose configuration: PQ above the
  // all-pairs baseline.
  double all_pairs_pq =
      static_cast<double>(source.matches.size()) /
      (static_cast<double>(source.d1.size()) * source.d2.size());
  EXPECT_GT(best.metrics.pairs_quality, all_pairs_pq);
}

TEST_F(DeepBlockerTest, IndexSideSwapsOrientation) {
  auto source = MakeSource();
  DeepBlockerSim blocker(32, 5);
  BlockerConfig config;
  config.k = 2;
  config.index_d2 = true;
  auto a = blocker.Run(source, config);
  config.index_d2 = false;
  auto b = blocker.Run(source, config);
  EXPECT_EQ(a.candidates.size(), source.d1.size() * 2);
  EXPECT_EQ(b.candidates.size(), source.d2.size() * 2);
  for (const auto& [l, r] : b.candidates) {
    EXPECT_LT(l, source.d1.size());
    EXPECT_LT(r, source.d2.size());
  }
}

TEST_F(DeepBlockerTest, DeterministicForSeed) {
  auto source = MakeSource();
  DeepBlockerSim a(32, 5);
  DeepBlockerSim b(32, 5);
  BlockerConfig config;
  config.k = 3;
  EXPECT_EQ(a.Run(source, config).candidates,
            b.Run(source, config).candidates);
}

/// The exhaustive reference scan: for every configuration and every
/// k = 1..k_max, re-materialise the candidate set and re-evaluate it from
/// scratch. The ranked neighbour lists come from Run at k = k_max, which
/// ranks exactly as the tuner does; each query's top-k are the first k of
/// its block.
BlockingRun ExhaustiveTune(const DeepBlockerSim& blocker,
                           const datagen::SourcePair& source,
                           const DeepBlockerSim::TuneOptions& options,
                           uint64_t* configs_tried) {
  size_t larger = std::max(source.d1.size(), source.d2.size());
  std::vector<int> attrs = {-1};
  if (larger <= options.per_attribute_limit) {
    for (size_t a = 0; a < source.d1.schema().num_attributes(); ++a) {
      attrs.push_back(static_cast<int>(a));
    }
  }
  bool found_any = false;
  BlockingRun best;
  BlockingRun fallback;
  double best_fallback_pc = -1.0;
  for (int attr : attrs) {
    for (bool clean : {false, true}) {
      for (bool index_d2 : {true, false}) {
        const data::Table& index_table = index_d2 ? source.d2 : source.d1;
        const data::Table& query_table = index_d2 ? source.d1 : source.d2;
        BlockingRun full = blocker.Run(
            source, BlockerConfig{attr, clean, index_d2, options.k_max});
        size_t per_query =
            std::min<size_t>(options.k_max, index_table.size());
        EXPECT_EQ(full.candidates.size(), per_query * query_table.size());
        for (int k = 1; k <= options.k_max; ++k) {
          size_t take = std::min<size_t>(k, per_query);
          std::vector<CandidatePair> candidates;
          for (size_t q = 0; q < query_table.size(); ++q) {
            for (size_t r = 0; r < take; ++r) {
              candidates.push_back(full.candidates[q * per_query + r]);
            }
          }
          BlockingMetrics metrics =
              EvaluateBlocking(candidates, source.matches);
          ++*configs_tried;
          BlockerConfig config{attr, clean, index_d2, k};
          if (metrics.pair_completeness > best_fallback_pc) {
            best_fallback_pc = metrics.pair_completeness;
            fallback = {config, candidates, metrics};
          }
          if (metrics.pair_completeness >= options.min_recall) {
            if (!found_any || candidates.size() < best.candidates.size()) {
              best = {config, std::move(candidates), metrics};
              found_any = true;
            }
            break;
          }
        }
      }
    }
  }
  return found_any ? best : fallback;
}

uint64_t ConfigsTried() {
  return obs::Metrics::Instance()
      .GetCounter("block/deepblocker/configs_tried")
      .Value();
}

void ExpectTunerMatchesExhaustiveScan(
    const datagen::SourcePair& source,
    const DeepBlockerSim::TuneOptions& options, const std::string& label) {
  SCOPED_TRACE(label);
  DeepBlockerSim blocker(32, 5);
  obs::Metrics::SetEnabled(true);
  uint64_t before = ConfigsTried();
  BlockingRun tuned = blocker.TuneForRecall(source, options);
  uint64_t tried = ConfigsTried() - before;
  obs::Metrics::SetEnabled(false);
  uint64_t expected_tried = 0;
  BlockingRun expected =
      ExhaustiveTune(blocker, source, options, &expected_tried);
  EXPECT_EQ(tried, expected_tried);
  EXPECT_EQ(tuned.config.attr, expected.config.attr);
  EXPECT_EQ(tuned.config.clean, expected.config.clean);
  EXPECT_EQ(tuned.config.index_d2, expected.config.index_d2);
  EXPECT_EQ(tuned.config.k, expected.config.k);
  EXPECT_EQ(tuned.candidates, expected.candidates);
  EXPECT_EQ(tuned.metrics.pair_completeness,
            expected.metrics.pair_completeness);
  EXPECT_EQ(tuned.metrics.pairs_quality, expected.metrics.pairs_quality);
  EXPECT_EQ(tuned.metrics.true_candidates, expected.metrics.true_candidates);
  EXPECT_EQ(tuned.metrics.num_candidates, expected.metrics.num_candidates);
}

datagen::SourcePair SeededSource(const char* id, double scale, uint64_t seed) {
  auto spec = *datagen::FindSourceDataset(id);
  spec.seed = seed;
  return datagen::BuildSourceDataset(spec, scale);
}

TEST_F(DeepBlockerTest, IncrementalTunerMatchesExhaustiveScan) {
  DeepBlockerSim::TuneOptions options;
  options.min_recall = 0.9;
  options.k_max = 16;
  const char* ids[] = {"Dn3", "Dn7", "Dn1", "Dn3", "Dn7"};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const char* id = ids[seed - 1];
    ExpectTunerMatchesExhaustiveScan(SeededSource(id, 0.04, seed), options,
                                     std::string(id) + " seed " +
                                         std::to_string(seed));
  }

  // An unreachable target: every configuration falls short, so the run
  // with the highest PC (the fallback) is returned.
  auto source = SeededSource("Dn7", 0.04, 11);
  DeepBlockerSim::TuneOptions unreachable = options;
  unreachable.min_recall = 1.0;
  unreachable.k_max = 2;
  EXPECT_LT(DeepBlockerSim(32, 5)
                .TuneForRecall(source, unreachable)
                .metrics.pair_completeness,
            1.0);
  ExpectTunerMatchesExhaustiveScan(source, unreachable, "min_recall 1.0");

  // k_max above the index-table size: every ranked list is shorter than
  // the scan.
  auto tiny = SeededSource("Dn3", 0.01, 12);
  DeepBlockerSim::TuneOptions beyond = options;
  beyond.k_max = static_cast<int>(std::max(tiny.d1.size(), tiny.d2.size())) +
                 5;
  ExpectTunerMatchesExhaustiveScan(tiny, beyond, "k_max above table size");

  // No ground-truth matches: PC and PQ read 0 throughout, so every scan
  // runs to k_max — past the table size on the tiny source, where later
  // ranks add no candidates.
  auto unmatched = SeededSource("Dn1", 0.04, 13);
  unmatched.matches.clear();
  ExpectTunerMatchesExhaustiveScan(unmatched, options, "no matches");
  tiny.matches.clear();
  ExpectTunerMatchesExhaustiveScan(tiny, beyond,
                                   "no matches, k_max above table size");
}

TEST(ConfigToStringTest, Readable) {
  data::Schema schema({"title", "year"});
  BlockerConfig config{1, true, false, 7};
  std::string text = ConfigToString(config, schema);
  EXPECT_NE(text.find("year"), std::string::npos);
  EXPECT_NE(text.find("K=7"), std::string::npos);
  EXPECT_NE(text.find("ind=D1"), std::string::npos);
}

}  // namespace
}  // namespace rlbench::block
