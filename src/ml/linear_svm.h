// Linear support vector machine trained with Pegasos-style stochastic
// sub-gradient descent on the hinge loss. Backs Magellan-SVM and the l1/l2
// complexity measures (error rate and error distance of a linear SVM).
#ifndef RLBENCH_SRC_ML_LINEAR_SVM_H_
#define RLBENCH_SRC_ML_LINEAR_SVM_H_

#include <cstdint>

#include "common/blob.h"
#include "ml/classifier.h"
#include "ml/scaler.h"

namespace rlbench::ml {

struct LinearSvmOptions {
  int epochs = 60;
  double lambda = 1e-3;  // regularisation strength (Pegasos λ)
  bool balance_classes = true;
  uint64_t seed = 42;
};

/// \brief Soft-margin linear SVM.
class LinearSvm : public Classifier {
 public:
  explicit LinearSvm(LinearSvmOptions options = {}) : options_(options) {}

  std::string name() const override { return "LinearSVM"; }
  void Fit(const Dataset& train, const Dataset& valid) override;

  /// Signed margin squashed through a logistic link for a [0,1] score.
  double PredictScore(std::span<const float> row) const override;
  bool Predict(std::span<const float> row) const override {
    return Margin(row) >= 0.0;
  }
  /// One margin: the score's sigmoid can round to 0.5 at a tiny negative
  /// margin, so the decision keeps the margin rule of Predict.
  ScoredDecision PredictScored(std::span<const float> row) const override;

  /// Raw signed distance-like margin w·x + b (positive = match side).
  double Margin(std::span<const float> row) const;

  /// Mean hinge loss of the training data under the learned hyperplane,
  /// i.e. the "sum of the error distance" statistic behind measure l1.
  double MeanHingeLoss(const Dataset& data) const;

  /// Snapshot hooks (src/serve/): fitted scaler + hyperplane. A non-zero
  /// `num_features` rejects blobs fitted for a different schema.
  void Save(BlobWriter* writer) const;
  [[nodiscard]] Status Load(BlobReader* reader, size_t num_features = 0);

 private:
  LinearSvmOptions options_;
  StandardScaler scaler_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace rlbench::ml

#endif  // RLBENCH_SRC_ML_LINEAR_SVM_H_
