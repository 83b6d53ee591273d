#include "ml/linear_svm.h"

#include "common/check.h"

#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace rlbench::ml {

void LinearSvm::Fit(const Dataset& train, const Dataset& valid) {
  (void)valid;
  scaler_.Fit(train);
  Dataset scaled = scaler_.TransformAll(train);

  size_t dim = scaled.num_features();
  weights_.assign(dim, 0.0);
  bias_ = 0.0;
  if (scaled.empty()) return;

  double positives = static_cast<double>(scaled.CountPositives());
  double negatives = static_cast<double>(scaled.size()) - positives;
  double pos_weight = 1.0;
  if (options_.balance_classes && positives > 0.0 && negatives > 0.0) {
    pos_weight = negatives / positives;
  }

  Rng rng(options_.seed);
  std::vector<size_t> order(scaled.size());
  std::iota(order.begin(), order.end(), size_t{0});

  size_t t = 0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t index : order) {
      ++t;
      double eta = 1.0 / (options_.lambda * static_cast<double>(t));
      auto row = scaled.row(index);
      double y = scaled.label(index) ? 1.0 : -1.0;
      double margin = bias_;
      for (size_t f = 0; f < dim; ++f) margin += weights_[f] * row[f];
      // Weight-decay step of Pegasos.
      double decay = 1.0 - eta * options_.lambda;
      for (size_t f = 0; f < dim; ++f) weights_[f] *= decay;
      if (y * margin < 1.0) {
        double w = scaled.label(index) ? pos_weight : 1.0;
        for (size_t f = 0; f < dim; ++f) {
          weights_[f] += eta * w * y * row[f];
        }
        bias_ += eta * w * y;
      }
    }
  }
}

double LinearSvm::Margin(std::span<const float> row) const {
  std::vector<float> scaled(row.begin(), row.end());
  scaler_.Transform(scaled);
  double z = bias_;
  for (size_t f = 0; f < weights_.size() && f < scaled.size(); ++f) {
    z += weights_[f] * scaled[f];
  }
  return z;
}

namespace {

/// Logistic link of a margin, split by sign so exp never overflows.
double MarginScore(double z) {
  double score;
  if (z >= 0.0) {
    score = 1.0 / (1.0 + std::exp(-z));
  } else {
    double e = std::exp(z);
    score = e / (1.0 + e);
  }
  RLBENCH_DCHECK_PROB(score);
  return score;
}

}  // namespace

double LinearSvm::PredictScore(std::span<const float> row) const {
  return MarginScore(Margin(row));
}

ScoredDecision LinearSvm::PredictScored(std::span<const float> row) const {
  double z = Margin(row);
  return {MarginScore(z), z >= 0.0};
}

void LinearSvm::Save(BlobWriter* writer) const {
  scaler_.Save(writer);
  writer->WriteDoubleVec(weights_);
  writer->WriteDouble(bias_);
}

Status LinearSvm::Load(BlobReader* reader, size_t num_features) {
  RLBENCH_RETURN_NOT_OK(scaler_.Load(reader));
  RLBENCH_ASSIGN_OR_RETURN(weights_, reader->ReadDoubleVec());
  RLBENCH_ASSIGN_OR_RETURN(bias_, reader->ReadDouble());
  if (weights_.size() != scaler_.means().size()) {
    return Status::IOError("linear svm: scaler/weight arity mismatch");
  }
  if (num_features != 0 && weights_.size() != num_features) {
    return Status::IOError("linear svm: unexpected weight count");
  }
  return Status::OK();
}

double LinearSvm::MeanHingeLoss(const Dataset& data) const {
  if (data.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    double y = data.label(i) ? 1.0 : -1.0;
    total += std::max(0.0, 1.0 - y * Margin(data.row(i)));
  }
  double loss = total / static_cast<double>(data.size());
  RLBENCH_CHECK_FINITE(loss);
  RLBENCH_CHECK_GE(loss, 0.0);
  return loss;
}

}  // namespace rlbench::ml
