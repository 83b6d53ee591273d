#include "core/linearity.h"

#include <gtest/gtest.h>

#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "ml/metrics.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace rlbench::core {
namespace {

TEST(LinearityTest, EasyBenchmarkNearOne) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds7"), 0.5);
  matchers::MatchingContext context(&task);
  auto result = ComputeLinearity(context);
  EXPECT_GT(result.f1_cosine, 0.95);
  EXPECT_GT(result.f1_jaccard, 0.95);
}

TEST(LinearityTest, HardBenchmarkClearlyLower) {
  auto easy_task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds1"), 0.15);
  auto hard_task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds4"), 0.15);
  matchers::MatchingContext easy(&easy_task);
  matchers::MatchingContext hard(&hard_task);
  auto easy_result = ComputeLinearity(easy);
  auto hard_result = ComputeLinearity(hard);
  EXPECT_GT(easy_result.f1_cosine, hard_result.f1_cosine + 0.1);
}

TEST(LinearityTest, ThresholdsInSweepRange) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 1.0);
  matchers::MatchingContext context(&task);
  auto result = ComputeLinearity(context);
  for (double t : {result.threshold_cosine, result.threshold_jaccard}) {
    EXPECT_GE(t, 0.01);
    EXPECT_LE(t, 0.99);
  }
}

TEST(LinearityTest, CosineAtLeastJaccardThresholdHigher) {
  // CS >= JS pointwise (|∩|/sqrt(|A||B|) >= |∩|/|A∪B|), so the optimal
  // cosine threshold sits at or above the Jaccard one.
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Dt1"), 0.05);
  matchers::MatchingContext context(&task);
  auto result = ComputeLinearity(context);
  EXPECT_GE(result.threshold_cosine, result.threshold_jaccard);
}

// Independent oracle: the columnar measures must equal the scalar
// text::CosineSimilarity / JaccardSimilarity over text::TokenSets of the
// raw values, bit for bit, schema-agnostic and per attribute.
TEST(LinearityTest, MeasuresEqualScalarTokenSetSimilarities) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 0.5);
  matchers::MatchingContext context(&task);
  auto all = task.AllPairs();
  auto points = PairFeaturePoints(context);
  ASSERT_EQ(points.size(), all.size());
  std::vector<uint8_t> labels(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    text::TokenSet a(text::TokenizeAll(task.left().record(all[i].left).values));
    text::TokenSet b(
        text::TokenizeAll(task.right().record(all[i].right).values));
    ASSERT_EQ(points[i].cs, text::CosineSimilarity(a, b)) << "pair " << i;
    ASSERT_EQ(points[i].js, text::JaccardSimilarity(a, b)) << "pair " << i;
    ASSERT_EQ(points[i].is_match, all[i].is_match);
    labels[i] = all[i].is_match ? 1 : 0;
  }

  auto per_attr = ComputeLinearityPerAttribute(context);
  ASSERT_EQ(per_attr.size(), task.left().schema().num_attributes());
  for (size_t attr = 0; attr < per_attr.size(); ++attr) {
    std::vector<double> cosine(all.size());
    std::vector<double> jaccard(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      auto a = text::TokenSet::FromText(
          task.left().record(all[i].left).values[attr]);
      auto b = text::TokenSet::FromText(
          task.right().record(all[i].right).values[attr]);
      cosine[i] = text::CosineSimilarity(a, b);
      jaccard[i] = text::JaccardSimilarity(a, b);
    }
    auto cs = ml::SweepThresholds(cosine, labels);
    auto js = ml::SweepThresholds(jaccard, labels);
    EXPECT_EQ(per_attr[attr].f1_cosine, cs.best_f1) << "attr " << attr;
    EXPECT_EQ(per_attr[attr].threshold_cosine, cs.best_threshold);
    EXPECT_EQ(per_attr[attr].f1_jaccard, js.best_f1) << "attr " << attr;
    EXPECT_EQ(per_attr[attr].threshold_jaccard, js.best_threshold);
  }
}

TEST(FeaturePointsTest, OnePointPerPairInUnitSquare) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 1.0);
  matchers::MatchingContext context(&task);
  auto points = PairFeaturePoints(context);
  EXPECT_EQ(points.size(), task.AllPairs().size());
  size_t positives = 0;
  for (const auto& p : points) {
    EXPECT_GE(p.cs, 0.0);
    EXPECT_LE(p.cs, 1.0);
    EXPECT_GE(p.js, 0.0);
    EXPECT_LE(p.js, 1.0);
    EXPECT_GE(p.cs, p.js - 1e-12);  // cosine dominates jaccard
    positives += p.is_match ? 1 : 0;
  }
  EXPECT_EQ(positives, task.TotalStats().positives);
}

}  // namespace
}  // namespace rlbench::core
