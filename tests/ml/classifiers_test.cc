#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/scaler.h"

namespace rlbench::ml {
namespace {

/// Linearly separable blobs around (0.2, 0.2) and (0.8, 0.8).
Dataset LinearBlobs(size_t n, uint64_t seed, double spread = 0.08) {
  Rng rng(seed);
  Dataset data(2);
  for (size_t i = 0; i < n; ++i) {
    bool label = i % 2 == 0;
    double cx = label ? 0.8 : 0.2;
    data.Add({static_cast<float>(cx + rng.Gaussian(0, spread)),
              static_cast<float>(cx + rng.Gaussian(0, spread))},
             label);
  }
  return data;
}

/// XOR pattern: not linearly separable, easy for trees / MLPs.
Dataset XorData(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset data(2);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform();
    double y = rng.Uniform();
    bool label = (x > 0.5) != (y > 0.5);
    data.Add({static_cast<float>(x), static_cast<float>(y)}, label);
  }
  return data;
}

TEST(ScalerTest, ZeroMeanUnitVariance) {
  Dataset data(1);
  for (float v : {2.0F, 4.0F, 6.0F, 8.0F}) data.Add({v}, false);
  StandardScaler scaler;
  scaler.Fit(data);
  EXPECT_FLOAT_EQ(scaler.means()[0], 5.0F);
  Dataset scaled = scaler.TransformAll(data);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = 0; i < scaled.size(); ++i) {
    sum += scaled.row(i)[0];
    sum_sq += scaled.row(i)[0] * scaled.row(i)[0];
  }
  EXPECT_NEAR(sum, 0.0, 1e-5);
  EXPECT_NEAR(sum_sq / 4.0, 1.0, 1e-5);
}

TEST(ScalerTest, ConstantFeaturePassesThrough) {
  Dataset data(1);
  for (int i = 0; i < 4; ++i) data.Add({3.0F}, false);
  StandardScaler scaler;
  scaler.Fit(data);
  EXPECT_FLOAT_EQ(scaler.stddevs()[0], 1.0F);  // no division blow-up
}

TEST(LogisticRegressionTest, SeparableBlobs) {
  Dataset train = LinearBlobs(400, 1);
  Dataset test = LinearBlobs(100, 2);
  LogisticRegression model;
  model.Fit(train, {});
  EXPECT_GT(model.EvaluateF1(test), 0.97);
}

TEST(LogisticRegressionTest, ScoresAreProbabilities) {
  Dataset train = LinearBlobs(200, 3);
  LogisticRegression model;
  model.Fit(train, {});
  for (size_t i = 0; i < train.size(); ++i) {
    double p = model.PredictScore(train.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LinearSvmTest, SeparableBlobs) {
  Dataset train = LinearBlobs(400, 4);
  Dataset test = LinearBlobs(100, 5);
  LinearSvm model;
  model.Fit(train, {});
  EXPECT_GT(model.EvaluateF1(test), 0.97);
}

TEST(LinearSvmTest, HingeLossLowWhenSeparable) {
  Dataset train = LinearBlobs(400, 6, 0.02);
  LinearSvm model;
  model.Fit(train, {});
  EXPECT_LT(model.MeanHingeLoss(train), 0.3);
}

TEST(LinearSvmTest, CannotSolveXor) {
  Dataset train = XorData(600, 7);
  LinearSvm model;
  model.Fit(train, {});
  // A linear model is near chance on XOR: accuracy around 0.5.
  size_t correct = 0;
  for (size_t i = 0; i < train.size(); ++i) {
    if (model.Predict(train.row(i)) == train.label(i)) ++correct;
  }
  EXPECT_LT(static_cast<double>(correct) / train.size(), 0.72);
}

// PredictScored is one scoring pass that must return exactly what
// PredictScore and Predict return separately, for every classifier
// (LinearSvm decides by its margin, the others by score >= 0.5).
TEST(ClassifierTest, PredictScoredAgreesWithPredictScoreAndPredict) {
  Dataset train = XorData(400, 21);
  Dataset test = LinearBlobs(200, 22, 0.3);
  LogisticRegression lr;
  LinearSvm svm;
  DecisionTree dt;
  RandomForest rf;
  Classifier* all[] = {&lr, &svm, &dt, &rf};
  for (Classifier* model : all) {
    SCOPED_TRACE(model->name());
    model->Fit(train, {});
    for (size_t i = 0; i < test.size(); ++i) {
      ScoredDecision scored = model->PredictScored(test.row(i));
      ASSERT_EQ(scored.score, model->PredictScore(test.row(i))) << "row " << i;
      ASSERT_EQ(scored.match, model->Predict(test.row(i))) << "row " << i;
    }
  }
}

TEST(DecisionTreeTest, SolvesXor) {
  Dataset train = XorData(600, 8);
  Dataset test = XorData(200, 9);
  DecisionTree model;
  model.Fit(train, {});
  EXPECT_GT(model.EvaluateF1(test), 0.9);
}

TEST(DecisionTreeTest, DeterministicForSeed) {
  Dataset train = XorData(300, 10);
  DecisionTreeOptions options;
  options.seed = 5;
  DecisionTree a(options);
  DecisionTree b(options);
  a.Fit(train, {});
  b.Fit(train, {});
  Dataset test = XorData(100, 11);
  EXPECT_EQ(a.PredictAll(test), b.PredictAll(test));
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Dataset train = XorData(300, 12);
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree stump(options);
  stump.Fit(train, {});
  EXPECT_LE(stump.num_nodes(), 3u);
}

TEST(DecisionTreeTest, EmptyTrainingSetPredictsZero) {
  Dataset train(2);
  DecisionTree model;
  model.Fit(train, {});
  std::vector<float> row = {0.5F, 0.5F};
  EXPECT_DOUBLE_EQ(model.PredictScore(row), 0.0);
}

TEST(RandomForestTest, SolvesXorBetterThanLinear) {
  Dataset train = XorData(600, 13);
  Dataset test = XorData(200, 14);
  RandomForest forest;
  forest.Fit(train, {});
  EXPECT_GT(forest.EvaluateF1(test), 0.9);
}

TEST(RandomForestTest, DeterministicForSeed) {
  Dataset train = XorData(300, 15);
  RandomForestOptions options;
  options.num_trees = 8;
  options.seed = 3;
  RandomForest a(options);
  RandomForest b(options);
  a.Fit(train, {});
  b.Fit(train, {});
  Dataset test = XorData(80, 16);
  EXPECT_EQ(a.PredictAll(test), b.PredictAll(test));
}

TEST(MlpTest, SolvesXor) {
  Dataset train = XorData(800, 17);
  Dataset valid = XorData(200, 18);
  Dataset test = XorData(200, 19);
  MlpOptions options;
  options.epochs = 60;
  Mlp model(options);
  model.Fit(train, valid);
  EXPECT_GT(model.EvaluateF1(test), 0.9);
}

TEST(MlpTest, EpochSelectionUsesValidation) {
  Dataset train = LinearBlobs(300, 20);
  Dataset valid = LinearBlobs(100, 21);
  MlpOptions options;
  options.epochs = 10;
  Mlp model(options);
  model.Fit(train, valid);
  EXPECT_GE(model.best_epoch(), 0);
  EXPECT_GT(model.best_valid_f1(), 0.9);
}

TEST(MlpTest, DeterministicForSeed) {
  Dataset train = XorData(300, 22);
  Dataset valid = XorData(100, 23);
  MlpOptions options;
  options.epochs = 10;
  options.seed = 77;
  Mlp a(options);
  Mlp b(options);
  a.Fit(train, valid);
  b.Fit(train, valid);
  Dataset test = XorData(50, 24);
  EXPECT_EQ(a.PredictAll(test), b.PredictAll(test));
}

TEST(MlpTest, ImbalanceHandled) {
  // 1:19 imbalance: without class weighting an MLP often collapses to the
  // majority class; the balanced loss must keep recall alive.
  Rng rng(25);
  Dataset train(2);
  Dataset valid(2);
  for (Dataset* part : {&train, &valid}) {
    size_t n = part == &train ? 800 : 200;
    for (size_t i = 0; i < n; ++i) {
      bool label = i % 20 == 0;
      double cx = label ? 0.75 : 0.25;
      part->Add({static_cast<float>(cx + rng.Gaussian(0, 0.08)),
                 static_cast<float>(cx + rng.Gaussian(0, 0.08))},
                label);
    }
  }
  MlpOptions options;
  options.epochs = 30;
  Mlp model(options);
  model.Fit(train, valid);
  EXPECT_GT(model.EvaluateF1(valid), 0.8);
}

}  // namespace
}  // namespace rlbench::ml
