#include "data/feature_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "text/qgrams.h"

namespace rlbench::data {
namespace {

Table MakeTable() {
  Table table("t", Schema({"title", "brand"}));
  table.Add(Record{"r0", {"iPhone 14 Pro", "Apple"}});
  table.Add(Record{"r1", {"Galaxy S22", "Samsung"}});
  table.Add(Record{"r2", {"", ""}});
  return table;
}

TEST(FeatureCacheTest, TokensAcrossAttributes) {
  Table table = MakeTable();
  RecordFeatureCache cache(&table);
  auto& tokens = cache.Tokens(0);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "iphone");
  EXPECT_EQ(tokens[3], "apple");
}

TEST(FeatureCacheTest, TokenSetAllIsDeduplicated) {
  Table table("t", Schema({"a", "b"}));
  table.Add(Record{"r", {"alpha beta", "beta gamma"}});
  RecordFeatureCache cache(&table);
  EXPECT_EQ(cache.TokenSetAll(0).size(), 3u);
}

TEST(FeatureCacheTest, PerAttributeSets) {
  Table table = MakeTable();
  RecordFeatureCache cache(&table);
  EXPECT_EQ(cache.TokenSetAttr(0, 0).size(), 3u);  // iphone 14 pro
  EXPECT_EQ(cache.TokenSetAttr(0, 1).size(), 1u);  // apple
  EXPECT_EQ(cache.TokensAttr(1, 1).size(), 1u);
}

TEST(FeatureCacheTest, EmptyRecordYieldsEmptySets) {
  Table table = MakeTable();
  RecordFeatureCache cache(&table);
  EXPECT_TRUE(cache.TokenSetAll(2).empty());
  EXPECT_TRUE(cache.QGramSetAll(2, 3).empty());
}

TEST(FeatureCacheTest, QGramSetsPerQ) {
  Table table = MakeTable();
  RecordFeatureCache cache(&table);
  const auto& g2 = cache.QGramSetAll(0, 2);
  const auto& g3 = cache.QGramSetAll(0, 3);
  EXPECT_GT(g2.size(), 0u);
  EXPECT_GT(g3.size(), 0u);
  // 2-grams and 3-grams never alias thanks to the q-salt.
  EXPECT_EQ(g2.IntersectionSize(g3), 0u);
}

TEST(FeatureCacheTest, RepeatedAccessReturnsSameObject) {
  Table table = MakeTable();
  RecordFeatureCache cache(&table);
  const auto* first = &cache.TokenSetAll(0);
  const auto* second = &cache.TokenSetAll(0);
  EXPECT_EQ(first, second);  // memoised, not recomputed
}

TEST(FeatureCacheTest, QGramAttrMatchesDirectComputation) {
  Table table = MakeTable();
  RecordFeatureCache cache(&table);
  auto direct = text::QGramSet("Apple", 3);
  EXPECT_EQ(cache.QGramSetAttr(0, 1, 3).IntersectionSize(direct),
            direct.size());
}

}  // namespace
}  // namespace rlbench::data
