#include "text/tfidf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace rlbench::text {
namespace {

TfIdfModel BuildModel() {
  TfIdfModel model;
  model.AddDocument({"apple", "iphone", "case"});
  model.AddDocument({"apple", "macbook", "pro"});
  model.AddDocument({"samsung", "galaxy", "case"});
  model.AddDocument({"apple", "watch"});
  model.Finalize();
  return model;
}

TEST(TfIdfTest, RareTokensScoreHigher) {
  TfIdfModel model = BuildModel();
  EXPECT_GT(model.Idf("galaxy"), model.Idf("apple"));
  EXPECT_GT(model.Idf("never_seen"), model.Idf("apple"));
}

TEST(TfIdfTest, IdfFormula) {
  TfIdfModel model = BuildModel();
  // df(apple) = 3, N = 4 -> log(1 + 4/4) = log 2.
  EXPECT_NEAR(model.Idf("apple"), std::log(2.0), 1e-12);
}

TEST(TfIdfTest, DuplicateTokensCountOncePerDocument) {
  TfIdfModel model;
  model.AddDocument({"dup", "dup", "dup"});
  model.AddDocument({"other"});
  model.Finalize();
  // df(dup) must be 1, not 3: Idf = log(1 + 2/2) = log 2.
  EXPECT_NEAR(model.Idf("dup"), std::log(2.0), 1e-12);
}

TEST(SummarizeTest, ShortSequencesUntouched) {
  TfIdfModel model = BuildModel();
  std::vector<std::string> tokens = {"a", "b"};
  EXPECT_EQ(model.Summarize(tokens, 10), tokens);
}

TEST(SummarizeTest, KeepsHighWeightTokensInOrder) {
  TfIdfModel model = BuildModel();
  // "the"/"of" are stop-words -> dropped first; rare tokens survive.
  std::vector<std::string> tokens = {"the", "samsung", "of",
                                     "galaxy", "apple", "case"};
  auto kept = model.Summarize(tokens, 3);
  ASSERT_EQ(kept.size(), 3u);
  // Order must be preserved relative to the input.
  EXPECT_EQ(kept[0], "samsung");
  EXPECT_EQ(kept[1], "galaxy");
}

TEST(SummarizeTest, ExactBudget) {
  TfIdfModel model = BuildModel();
  std::vector<std::string> tokens(20, "word");
  auto kept = model.Summarize(tokens, 5);
  EXPECT_EQ(kept.size(), 5u);
}

class WeightedSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_.AddDocument({"apple", "iphone", "case"});
    model_.AddDocument({"apple", "macbook", "pro"});
    model_.AddDocument({"samsung", "galaxy", "case"});
    model_.AddDocument({"rare", "token"});
    model_.Finalize();
  }
  TfIdfModel model_;
};

TEST_F(WeightedSimTest, IdenticalIsOne) {
  std::vector<std::string> tokens = {"apple", "iphone"};
  EXPECT_NEAR(model_.WeightedCosine(tokens, tokens), 1.0, 1e-9);
}

TEST_F(WeightedSimTest, RareSharedTokenOutweighsCommonOne) {
  // Sharing the rare "rare" must score higher than sharing the common
  // "apple" (same-length token lists).
  double rare = model_.WeightedCosine({"rare", "iphone"}, {"rare", "galaxy"});
  double common = model_.WeightedCosine({"apple", "iphone"},
                                        {"apple", "galaxy"});
  EXPECT_GT(rare, common);
}

TEST_F(WeightedSimTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(model_.WeightedCosine({"apple"}, {"galaxy"}), 0.0);
  EXPECT_DOUBLE_EQ(model_.WeightedCosine({}, {"x"}), 0.0);
}

TEST_F(WeightedSimTest, SoftTfIdfMatchesTypos) {
  // "iphonee" has no exact counterpart but Jaro-Winkler-matches "iphone",
  // so the soft variant scores higher than the exact-token cosine.
  double hard = model_.WeightedCosine({"apple", "iphonee"},
                                      {"apple", "iphone"});
  double soft = model_.SoftTfIdf({"apple", "iphonee"}, {"apple", "iphone"});
  EXPECT_GT(soft, hard);
  EXPECT_LE(soft, 1.0);
}

TEST_F(WeightedSimTest, SoftTfIdfThresholdGates) {
  // Below the JW threshold the soft match must not fire.
  double strict = model_.SoftTfIdf({"zebra"}, {"iphone"}, 0.95);
  EXPECT_DOUBLE_EQ(strict, 0.0);
}

}  // namespace
}  // namespace rlbench::text
