// Feed-forward neural network: Dense+ReLU -> Highway -> sigmoid output,
// trained with mini-batch Adam. This is the classification head shared by
// all simulated DL matchers; the highway layer mirrors DeepMatcher's
// two-layer HighwayNet classifier. The validation set selects the best
// epoch (the paper aligned EMTransformer to do exactly this).
//
// Training, validation and scoring all run on panels: a mini-batch of rows
// stored column-major flows through the batched affine kernels in one call
// per layer. Every gradient accumulator still adds its per-sample terms in
// sample order, so the trained parameters carry the same bits as a
// row-at-a-time loop (tests/ml/mlp_reference.h is that loop, the oracle).
#ifndef RLBENCH_SRC_ML_MLP_H_
#define RLBENCH_SRC_ML_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.h"
#include "ml/scaler.h"

namespace rlbench::ml {

struct MlpOptions {
  size_t hidden = 32;
  int epochs = 15;
  size_t batch_size = 32;
  double learning_rate = 2e-3;
  double l2 = 1e-5;
  bool balance_classes = true;
  /// Snapshot the parameters after every epoch and keep the snapshot with
  /// the best validation F1.
  bool select_best_epoch_on_valid = true;
  uint64_t seed = 42;
};

/// \brief Two-layer highway MLP binary classifier.
class Mlp : public Classifier {
 public:
  explicit Mlp(MlpOptions options = {}) : options_(options) {}

  std::string name() const override { return "MLP"; }
  void Fit(const Dataset& train, const Dataset& valid) override;
  double PredictScore(std::span<const float> row) const override;

  /// Score every row of `rows` into `out` (same length). Bit-identical to
  /// calling PredictScore per row (a one-row panel); transposes blocks of
  /// rows into column-major panels for the batched affine kernels
  /// (text/kernels.h), so each weight matrix streams once per block
  /// instead of once per row.
  void PredictScoresBatch(const Dataset& rows, std::span<double> out) const;

  /// Validation F1 of the selected snapshot (for diagnostics).
  double best_valid_f1() const { return best_valid_f1_; }
  int best_epoch() const { return best_epoch_; }

 private:
  struct Params {
    // Dense input layer: hidden x input.
    std::vector<double> w1, b1;
    // Highway transform gate and candidate: hidden x hidden.
    std::vector<double> wt, bt, wh, bh;
    // Output layer: hidden -> 1.
    std::vector<double> w2;
    double b2 = 0.0;
  };

  /// Forward pass of one panel: `batch` scaled rows stored column-major in
  /// `xt` (feature j of row r at xt[j * batch + r]). Writes the dense ReLU
  /// `z1`, the transform gate `t`, the ReLU candidate `g` and the highway
  /// output `z2`, each laid out [unit * batch + r], and one logit per row.
  /// Every accumulator walks its inputs in ascending order, so a row's
  /// values do not depend on the panel it rides in.
  void ForwardPanel(const float* xt, size_t batch, double* z1, double* t,
                    double* g, double* z2, double* logits) const;

  MlpOptions options_;
  StandardScaler scaler_;
  size_t input_dim_ = 0;
  Params params_;
  double best_valid_f1_ = 0.0;
  int best_epoch_ = -1;
};

}  // namespace rlbench::ml

#endif  // RLBENCH_SRC_ML_MLP_H_
