// Common interface for all supervised binary classifiers in the substrate.
#ifndef RLBENCH_SRC_ML_CLASSIFIER_H_
#define RLBENCH_SRC_ML_CLASSIFIER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/metrics.h"

namespace rlbench::ml {

/// A row's score together with its hard decision.
struct ScoredDecision {
  double score = 0.0;
  bool match = false;
};

/// \brief Supervised binary classifier over dense feature rows.
///
/// Implementations are deterministic given their constructor seed. The
/// validation set may be used for model selection (epoch choice, decision
/// threshold); it must never leak into gradient updates.
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual std::string name() const = 0;

  /// Train on `train`; `valid` is available for model selection only.
  virtual void Fit(const Dataset& train, const Dataset& valid) = 0;

  /// Match probability (or calibrated score) in [0, 1] for one row.
  virtual double PredictScore(std::span<const float> row) const = 0;

  /// Hard decision; default thresholds PredictScore at 0.5.
  virtual bool Predict(std::span<const float> row) const {
    return PredictScore(row) >= 0.5;
  }

  /// PredictScore and Predict from one scoring pass. The default decides
  /// score >= 0.5; a classifier that overrides Predict overrides this too.
  virtual ScoredDecision PredictScored(std::span<const float> row) const {
    double score = PredictScore(row);
    return {score, score >= 0.5};
  }

  /// Predict all rows of a dataset.
  std::vector<uint8_t> PredictAll(const Dataset& data) const;

  /// Convenience: F1 of Predict over the dataset's labels.
  double EvaluateF1(const Dataset& data) const;
};

}  // namespace rlbench::ml

#endif  // RLBENCH_SRC_ML_CLASSIFIER_H_
