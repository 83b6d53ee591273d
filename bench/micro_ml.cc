// google-benchmark microbenchmarks for the learning substrate: classifier
// training / inference and the threshold sweep of Algorithm 1.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/linear_svm.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"

namespace {

using namespace rlbench;

ml::Dataset MakeBlobs(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data(dim);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    bool label = i % 5 == 0;
    double c = label ? 0.7 : 0.3;
    for (size_t f = 0; f < dim; ++f) {
      row[f] = static_cast<float>(c + rng.Gaussian(0, 0.15));
    }
    data.Add(row, label);
  }
  return data;
}

void BM_ThresholdSweep(benchmark::State& state) {
  Rng rng(3);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> scores(n);
  std::vector<uint8_t> truth(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = rng.Bernoulli(0.2) ? 1 : 0;
    scores[i] = truth[i] != 0 ? rng.Uniform(0.4, 1.0) : rng.Uniform(0.0, 0.6);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::SweepThresholds(scores, truth));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ThresholdSweep)->Arg(1000)->Arg(10000);

void BM_LinearSvmFit(benchmark::State& state) {
  auto train = MakeBlobs(static_cast<size_t>(state.range(0)), 8, 5);
  for (auto _ : state) {
    ml::LinearSvm svm;
    svm.Fit(train, {});
    benchmark::DoNotOptimize(svm.Margin(train.row(0)));
  }
}
BENCHMARK(BM_LinearSvmFit)->Arg(1000);

void BM_DecisionTreeFit(benchmark::State& state) {
  auto train = MakeBlobs(static_cast<size_t>(state.range(0)), 8, 7);
  for (auto _ : state) {
    ml::DecisionTree tree;
    tree.Fit(train, {});
    benchmark::DoNotOptimize(tree.PredictScore(train.row(0)));
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(1000);

void BM_RandomForestFit(benchmark::State& state) {
  auto train = MakeBlobs(1000, 8, 9);
  ml::RandomForestOptions options;
  options.num_trees = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest forest(options);
    forest.Fit(train, {});
    benchmark::DoNotOptimize(forest.PredictScore(train.row(0)));
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(16);

void BM_MlpEpoch(benchmark::State& state) {
  auto train = MakeBlobs(2000, 25, 11);
  auto valid = MakeBlobs(200, 25, 12);
  ml::MlpOptions options;
  options.epochs = 1;
  for (auto _ : state) {
    ml::Mlp mlp(options);
    mlp.Fit(train, valid);
    benchmark::DoNotOptimize(mlp.PredictScore(train.row(0)));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_MlpEpoch);

// Full training at the DL line-up's shapes: 240 training and 80 validation
// rows (a 400-pair benchmark's 3:1:1 split), 40 epochs, input width 27
// (the transformer-family features) or 160 (DeepMatcher over 5 attributes).
void BM_MlpFit(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  auto train = MakeBlobs(240, dim, 15);
  auto valid = MakeBlobs(80, dim, 16);
  ml::MlpOptions options;
  options.epochs = 40;
  for (auto _ : state) {
    ml::Mlp mlp(options);
    mlp.Fit(train, valid);
    benchmark::DoNotOptimize(mlp.best_valid_f1());
    benchmark::DoNotOptimize(mlp.PredictScore(train.row(0)));
  }
  state.SetItemsProcessed(state.iterations() * 240 * 40);
}
BENCHMARK(BM_MlpFit)->Arg(27)->Arg(160)->Unit(benchmark::kMillisecond);

void BM_MlpPredict(benchmark::State& state) {
  auto train = MakeBlobs(500, 25, 13);
  auto valid = MakeBlobs(100, 25, 14);
  ml::MlpOptions options;
  options.epochs = 3;
  ml::Mlp mlp(options);
  mlp.Fit(train, valid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.PredictScore(train.row(0)));
  }
}
BENCHMARK(BM_MlpPredict);

}  // namespace

BENCHMARK_MAIN();
