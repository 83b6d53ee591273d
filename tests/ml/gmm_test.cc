#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/gmm_em.h"

namespace rlbench::ml {
namespace {

Dataset TwoGaussians(size_t n, double match_fraction, uint64_t seed) {
  Rng rng(seed);
  Dataset data(2);
  for (size_t i = 0; i < n; ++i) {
    bool match = rng.Bernoulli(match_fraction);
    double c = match ? 0.85 : 0.2;
    data.Add({static_cast<float>(c + rng.Gaussian(0, 0.07)),
              static_cast<float>(c + rng.Gaussian(0, 0.07))},
             match);
  }
  return data;
}

TEST(GmmTest, RecoversWellSeparatedComponents) {
  Dataset data = TwoGaussians(1000, 0.15, 31);
  GaussianMixtureMatcher gmm;
  gmm.Fit(data);
  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (gmm.Predict(data.row(i)) == data.label(i)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.95);
  EXPECT_NEAR(gmm.match_prior(), 0.15, 0.05);
}

TEST(GmmTest, LogLikelihoodMonotoneNonDecreasing) {
  Dataset data = TwoGaussians(500, 0.2, 32);
  GaussianMixtureMatcher gmm;
  gmm.Fit(data);
  const auto& trace = gmm.log_likelihood_trace();
  ASSERT_GE(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i], trace[i - 1] - 1e-6) << "EM step " << i;
  }
}

TEST(GmmTest, ConvergesBeforeMaxIterations) {
  Dataset data = TwoGaussians(500, 0.2, 33);
  GmmOptions options;
  options.max_iterations = 200;
  GaussianMixtureMatcher gmm(options);
  gmm.Fit(data);
  EXPECT_LT(gmm.iterations_run(), 200);
}

TEST(GmmTest, MatchComponentOrientedHigh) {
  // Even when seeded badly, the match component must end up on the
  // high-similarity side.
  Dataset data = TwoGaussians(600, 0.5, 34);
  GaussianMixtureMatcher gmm;
  gmm.Fit(data);
  std::vector<float> high = {0.9F, 0.9F};
  std::vector<float> low = {0.1F, 0.1F};
  EXPECT_GT(gmm.PredictScore(high), 0.5);
  EXPECT_LT(gmm.PredictScore(low), 0.5);
}

TEST(GmmTest, EmptyInputSafe) {
  GaussianMixtureMatcher gmm;
  gmm.Fit(Dataset(2));
  std::vector<float> row = {0.5F, 0.5F};
  EXPECT_DOUBLE_EQ(gmm.PredictScore(row), 0.0);
}

}  // namespace
}  // namespace rlbench::ml
