#include "text/similarity.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rlbench::text {
namespace {

TokenSet Set(std::vector<std::string> tokens) { return TokenSet(tokens); }

TEST(SetSimilarityTest, ExactValues) {
  TokenSet a = Set({"a", "b", "c"});
  TokenSet b = Set({"b", "c", "d", "e"});
  // |A∩B| = 2, |A| = 3, |B| = 4, |A∪B| = 5.
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 2.0 / std::sqrt(12.0));
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, b), 4.0 / 7.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(a, b), 2.0 / 3.0);
}

TEST(SetSimilarityTest, IdenticalSetsAreOne) {
  TokenSet a = Set({"x", "y"});
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(a, a), 1.0);
}

TEST(SetSimilarityTest, DisjointSetsAreZero) {
  TokenSet a = Set({"x"});
  TokenSet b = Set({"y"});
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(a, b), 0.0);
}

TEST(SetSimilarityTest, EmptySets) {
  TokenSet empty;
  TokenSet a = Set({"x"});
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, a), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(empty, a), 0.0);
}

// Paper Section III-A: Dice is monotone in Jaccard (Dice = 2J/(1+J)), so it
// adds no threshold-sweep information. Verify the functional relation.
TEST(SetSimilarityTest, DiceIsMonotoneFunctionOfJaccard) {
  TokenSet a = Set({"a", "b", "c", "d"});
  TokenSet b = Set({"c", "d", "e"});
  double j = JaccardSimilarity(a, b);
  double d = DiceSimilarity(a, b);
  EXPECT_NEAR(d, 2.0 * j / (1.0 + j), 1e-12);
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
}

TEST(LevenshteinTest, SimilarityNormalisation) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  // Classic reference: JARO("MARTHA","MARHTA") = 0.944444...
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  // JARO("DWAYNE","DUANE") = 0.822222...
  EXPECT_NEAR(JaroSimilarity("DWAYNE", "DUANE"), 0.822222, 1e-5);
}

TEST(JaroWinklerTest, KnownValues) {
  // JW("MARTHA","MARHTA") = 0.961111...
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961111, 1e-5);
  // JW("DIXON","DICKSONX") = 0.813333...
  EXPECT_NEAR(JaroWinklerSimilarity("DIXON", "DICKSONX"), 0.813333, 1e-5);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("same", "same"), 1.0);
}

TEST(JaroWinklerTest, NeverBelowJaro) {
  const char* pairs[][2] = {{"apple", "apply"}, {"micro", "macro"},
                            {"data", "date"},   {"abcdef", "fedcba"}};
  for (auto& p : pairs) {
    EXPECT_GE(JaroWinklerSimilarity(p[0], p[1]), JaroSimilarity(p[0], p[1]));
  }
}

TEST(MongeElkanTest, IdenticalTokenLists) {
  std::vector<std::string> a = {"john", "smith"};
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity(a, a), 1.0);
}

TEST(MongeElkanTest, PartialOverlap) {
  std::vector<std::string> a = {"john", "smith"};
  std::vector<std::string> b = {"jon", "smith"};
  double sim = MongeElkanSimilarity(a, b);
  EXPECT_GT(sim, 0.8);
  EXPECT_LT(sim, 1.0);
}

TEST(MongeElkanTest, EmptyCases) {
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity({"a"}, {}), 0.0);
}

TEST(ExactMatchTest, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(ExactMatchSimilarity("ABC", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(ExactMatchSimilarity("abc", "abd"), 0.0);
}

TEST(NumericSimilarityTest, Values) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("100", "100"), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("100", "50"), 0.5);
  EXPECT_DOUBLE_EQ(NumericSimilarity("0", "0"), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("abc", "100"), 0.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("", "1"), 0.0);
  EXPECT_NEAR(NumericSimilarity("19.99", "21.99"), 1.0 - 2.0 / 21.99, 1e-9);
}

// Property sweep: all set similarities stay in [0,1] and are symmetric on
// arbitrary token-set pairs.
class SetSimilarityPropertyTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(SetSimilarityPropertyTest, BoundedAndSymmetric) {
  auto [s1, s2] = GetParam();
  TokenSet a = TokenSet::FromText(s1);
  TokenSet b = TokenSet::FromText(s2);
  for (auto fn : {CosineSimilarity, JaccardSimilarity, DiceSimilarity,
                  OverlapSimilarity}) {
    double ab = fn(a, b);
    double ba = fn(b, a);
    EXPECT_DOUBLE_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
  }
  // Ordering property: Jaccard <= Dice <= Overlap on non-empty sets.
  if (!a.empty() && !b.empty()) {
    EXPECT_LE(JaccardSimilarity(a, b), DiceSimilarity(a, b) + 1e-12);
    EXPECT_LE(DiceSimilarity(a, b), OverlapSimilarity(a, b) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SetSimilarityPropertyTest,
    ::testing::Values(
        std::pair("apple iphone 14 pro", "apple iphone 14"),
        std::pair("dblp conference on vldb", "acm sigmod conference"),
        std::pair("", "nonempty text here"),
        std::pair("a b c d e f", "a b c d e f"),
        std::pair("samsung galaxy s22 ultra 256gb", "galaxy s22 128gb"),
        std::pair("x", "y")));

}  // namespace
}  // namespace rlbench::text
