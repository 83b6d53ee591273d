// Differential suite for ml::Mlp's panel training: Fit followed by
// PredictScoresBatch and PredictScore must reproduce the per-sample
// reference (mlp_reference.h) bit for bit, across input widths, hidden
// sizes, mini-batch sizes with ragged tails, and the option and data edge
// cases the training loop branches on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/mlp.h"
#include "ml/mlp_reference.h"

namespace rlbench::ml {
namespace {

Dataset RandomDataset(Rng& rng, size_t rows, size_t dim,
                      double positive_rate) {
  Dataset data(dim);
  std::vector<float> row(dim);
  for (size_t i = 0; i < rows; ++i) {
    bool label = rng.Bernoulli(positive_rate);
    for (float& x : row) {
      x = static_cast<float>(rng.Gaussian(label ? 0.4 : -0.2, 1.0));
    }
    data.Add(row, label);
  }
  return data;
}

/// Fit both models and require identical selection and identical scores
/// from both scoring paths on every test row.
void ExpectMatchesReference(const MlpOptions& options, const Dataset& train,
                            const Dataset& valid, const Dataset& test,
                            const std::string& label) {
  SCOPED_TRACE(label);
  Mlp mlp(options);
  testing::ReferenceMlp reference(options);
  mlp.Fit(train, valid);
  reference.Fit(train, valid);
  ASSERT_EQ(mlp.best_epoch(), reference.best_epoch());
  ASSERT_EQ(mlp.best_valid_f1(), reference.best_valid_f1());
  std::vector<double> batch(test.size());
  mlp.PredictScoresBatch(test, batch);
  for (size_t i = 0; i < test.size(); ++i) {
    double expected = reference.PredictScore(test.row(i));
    ASSERT_EQ(batch[i], expected) << "row " << i;
    ASSERT_EQ(mlp.PredictScore(test.row(i)), expected) << "row " << i;
  }
}

// n = 45 is a multiple of none of the batch sizes (45 = 6*7 + 3 =
// 32 + 13), and batch n + 3 puts the whole set in one short panel.
constexpr size_t kTrainRows = 45;

TEST(MlpPanelTest, FitMatchesPerSampleReference) {
  Rng rng(SplitSeed(0x3A1E, 1));
  for (size_t dim : {1u, 27u, 160u}) {
    Dataset train = RandomDataset(rng, kTrainRows, dim, 0.35);
    Dataset valid = RandomDataset(rng, 19, dim, 0.35);
    Dataset test = RandomDataset(rng, 150, dim, 0.35);
    for (size_t hidden : {1u, 5u, 32u}) {
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{32},
                                kTrainRows + 3}) {
        MlpOptions options;
        options.hidden = hidden;
        options.batch_size = batch_size;
        options.epochs = 4;
        options.seed = 7 + dim + hidden + batch_size;
        ExpectMatchesReference(options, train, valid, test,
                               "d=" + std::to_string(dim) +
                                   " hidden=" + std::to_string(hidden) +
                                   " batch=" + std::to_string(batch_size));
      }
    }
  }
}

TEST(MlpPanelTest, EdgeCasesMatchPerSampleReference) {
  Rng rng(SplitSeed(0x3A1E, 2));
  constexpr size_t kDim = 27;
  Dataset train = RandomDataset(rng, kTrainRows, kDim, 0.35);
  Dataset valid = RandomDataset(rng, 19, kDim, 0.35);
  Dataset test = RandomDataset(rng, 150, kDim, 0.35);
  MlpOptions options;
  options.batch_size = 7;
  options.epochs = 5;

  ExpectMatchesReference(options, train, Dataset(kDim), test,
                         "empty validation set");
  ExpectMatchesReference(options, RandomDataset(rng, kTrainRows, kDim, 0.0),
                         valid, test, "one-class training set");
  ExpectMatchesReference(options, Dataset(kDim), valid, test,
                         "empty training set");

  MlpOptions no_selection = options;
  no_selection.select_best_epoch_on_valid = false;
  ExpectMatchesReference(no_selection, train, valid, test,
                         "select_best_epoch_on_valid off");

  MlpOptions unbalanced = options;
  unbalanced.balance_classes = false;
  ExpectMatchesReference(unbalanced, train, valid, test,
                         "balance_classes off");
}

}  // namespace
}  // namespace rlbench::ml
