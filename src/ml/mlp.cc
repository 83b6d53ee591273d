#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "text/kernels.h"

namespace rlbench::ml {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  double e = std::exp(z);
  return e / (1.0 + e);
}

/// Adam state over one flat parameter group.
struct Adam {
  std::vector<double> m, v;
  double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  size_t t = 0;

  explicit Adam(size_t n) : m(n, 0.0), v(n, 0.0) {}

  void Step(std::vector<double>* params, const std::vector<double>& grad,
            double lr, double l2) {
    ++t;
    double correction1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    double correction2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (size_t i = 0; i < params->size(); ++i) {
      double g = grad[i] + l2 * (*params)[i];
      m[i] = beta1 * m[i] + (1.0 - beta1) * g;
      v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
      double mhat = m[i] / correction1;
      double vhat = v[i] / correction2;
      (*params)[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
};

/// Weight (and bias) gradients of one layer over a panel:
///   g[i * dim + j] += a[i * batch + r] * x[r * dim + j]
///   g_bias[i]      += a[i * batch + r]
/// for every row r of the panel, each accumulator adding its per-sample
/// terms in ascending r, the order a row-at-a-time loop adds them in. Four
/// rows' terms are chained through a register before each store; the chain
/// keeps that order, so every accumulator rounds exactly as it would one
/// row at a time.
template <typename T>
void AccumulateOuter(const double* a, size_t units, size_t batch,
                     const T* x, size_t dim, double* g, double* g_bias) {
  for (size_t i = 0; i < units; ++i) {
    double* gi = g + i * dim;
    const double* ai = a + i * batch;
    size_t r = 0;
    for (; r + 4 <= batch; r += 4) {
      const T* x0 = x + r * dim;
      const T* x1 = x0 + dim;
      const T* x2 = x1 + dim;
      const T* x3 = x2 + dim;
      double a0 = ai[r], a1 = ai[r + 1], a2 = ai[r + 2], a3 = ai[r + 3];
      for (size_t j = 0; j < dim; ++j) {
        double acc = gi[j];
        acc += a0 * x0[j];
        acc += a1 * x1[j];
        acc += a2 * x2[j];
        acc += a3 * x3[j];
        gi[j] = acc;
      }
    }
    for (; r < batch; ++r) {
      const T* xr = x + r * dim;
      for (size_t j = 0; j < dim; ++j) gi[j] += ai[r] * xr[j];
    }
    for (r = 0; r < batch; ++r) g_bias[i] += ai[r];
  }
}

}  // namespace

void Mlp::ForwardPanel(const float* xt, size_t batch, double* z1, double* t,
                       double* g, double* z2, double* logits) const {
  namespace k = text::kernels;
  const Params& p = params_;
  size_t h = options_.hidden;
  size_t n = h * batch;
  // The [unit * batch + r] output layout of one affine is exactly the
  // column-major input layout the next one consumes, so the panel flows
  // through the network with no further transposes.
  k::BatchedAffineF32(p.w1.data(), p.b1.data(), h, input_dim_, xt, batch,
                      z1);
  for (size_t i = 0; i < n; ++i) z1[i] = std::max(0.0, z1[i]);
  k::DualBatchedAffineF64(p.wt.data(), p.bt.data(), p.wh.data(), p.bh.data(),
                          h, h, z1, batch, t, g);
  for (size_t i = 0; i < n; ++i) {
    t[i] = Sigmoid(t[i]);
    g[i] = std::max(0.0, g[i]);
    z2[i] = t[i] * g[i] + (1.0 - t[i]) * z1[i];
  }
  k::BatchedAffineF64(p.w2.data(), &p.b2, 1, h, z2, batch, logits);
}

void Mlp::Fit(const Dataset& train, const Dataset& valid) {
  scaler_.Fit(train);
  Dataset scaled = scaler_.TransformAll(train);
  Dataset scaled_valid = scaler_.TransformAll(valid);

  input_dim_ = scaled.num_features();
  size_t h = options_.hidden;
  size_t d = input_dim_;

  Rng rng(options_.seed);
  auto init = [&](std::vector<double>* w, size_t n, double scale) {
    w->resize(n);
    for (double& x : *w) x = rng.Gaussian(0.0, scale);
  };
  double s1 = std::sqrt(2.0 / static_cast<double>(d + 1));
  double s2 = std::sqrt(2.0 / static_cast<double>(h + 1));
  init(&params_.w1, h * d, s1);
  params_.b1.assign(h, 0.0);
  init(&params_.wt, h * h, s2);
  // Bias the transform gate towards the carry behaviour initially, the
  // standard highway initialisation.
  params_.bt.assign(h, -1.0);
  init(&params_.wh, h * h, s2);
  params_.bh.assign(h, 0.0);
  init(&params_.w2, h, s2);
  params_.b2 = 0.0;

  if (scaled.empty()) return;
  RLBENCH_CHECK_GE(options_.batch_size, size_t{1});

  double positives = static_cast<double>(scaled.CountPositives());
  double negatives = static_cast<double>(scaled.size()) - positives;
  double pos_weight = 1.0;
  if (options_.balance_classes && positives > 0.0 && negatives > 0.0) {
    pos_weight = negatives / positives;
  }

  Adam adam_w1(h * d), adam_b1(h), adam_wt(h * h), adam_bt(h), adam_wh(h * h),
      adam_bh(h), adam_w2(h), adam_b2(1);

  std::vector<size_t> order(scaled.size());
  std::iota(order.begin(), order.end(), size_t{0});

  std::vector<double> g_w1(h * d), g_b1(h), g_wt(h * h), g_bt(h), g_wh(h * h),
      g_bh(h), g_w2(h), g_b2(1);

  // Panel scratch, sized once for the largest panel: a training mini-batch
  // or a block of validation rows.
  const size_t cap = std::min(options_.batch_size,
                              std::max(scaled.size(), scaled_valid.size()));
  std::vector<float> xt(d * cap), x_rows(cap * d);
  std::vector<double> z1(h * cap), t(h * cap), g(h * cap), z2(h * cap),
      logits(cap), dlogit(cap), dz1(h * cap), dpre_t(h * cap),
      dpre_h(h * cap), z1_rows(cap * h);

  // The validation panels never change across epochs: transpose them once.
  std::vector<float> valid_xt(scaled_valid.size() * d);
  for (size_t begin = 0; begin < scaled_valid.size(); begin += cap) {
    size_t batch = std::min(cap, scaled_valid.size() - begin);
    float* panel = valid_xt.data() + begin * d;
    for (size_t r = 0; r < batch; ++r) {
      auto row = scaled_valid.row(begin + r);
      for (size_t j = 0; j < d; ++j) panel[j * batch + r] = row[j];
    }
  }

  Params best = params_;
  best_valid_f1_ = -1.0;
  best_epoch_ = -1;

  // The backward pass runs on the mini-batch's panel. Each gradient
  // accumulator adds its per-sample terms in sample order (r ascending),
  // and dz1 adds its per-unit terms in unit order, exactly as a
  // row-at-a-time loop would: loops are only reordered across independent
  // accumulators, so the parameters are bit-identical to per-sample
  // training.
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      size_t end = std::min(order.size(), start + options_.batch_size);
      size_t batch = end - start;
      std::fill(g_w1.begin(), g_w1.end(), 0.0);
      std::fill(g_b1.begin(), g_b1.end(), 0.0);
      std::fill(g_wt.begin(), g_wt.end(), 0.0);
      std::fill(g_bt.begin(), g_bt.end(), 0.0);
      std::fill(g_wh.begin(), g_wh.end(), 0.0);
      std::fill(g_bh.begin(), g_bh.end(), 0.0);
      std::fill(g_w2.begin(), g_w2.end(), 0.0);
      g_b2[0] = 0.0;

      // The mini-batch as a panel (column-major, for the forward kernels)
      // and as rows (row-major, for the weight gradients).
      for (size_t r = 0; r < batch; ++r) {
        auto row = scaled.row(order[start + r]);
        std::copy(row.begin(), row.end(), x_rows.begin() + r * d);
        for (size_t j = 0; j < d; ++j) xt[j * batch + r] = row[j];
      }
      ForwardPanel(xt.data(), batch, z1.data(), t.data(), g.data(),
                   z2.data(), logits.data());
      for (size_t r = 0; r < batch; ++r) {
        bool label = scaled.label(order[start + r]);
        double y = label ? 1.0 : 0.0;
        double p = Sigmoid(logits[r]);
        double weight = label ? pos_weight : 1.0;
        dlogit[r] = weight * (p - y);
      }

      // Output layer.
      for (size_t i = 0; i < h; ++i) {
        const double* z2i = z2.data() + i * batch;
        for (size_t r = 0; r < batch; ++r) g_w2[i] += dlogit[r] * z2i[r];
      }
      for (size_t r = 0; r < batch; ++r) g_b2[0] += dlogit[r];

      // Highway backward, element by element. dz1 starts from the carry
      // path's term (added to zero, as the accumulator it is).
      for (size_t i = 0; i < h; ++i) {
        for (size_t r = 0; r < batch; ++r) {
          size_t at = i * batch + r;
          double dz2 = dlogit[r] * params_.w2[i];
          double dt = dz2 * (g[at] - z1[at]);
          double dg = dz2 * t[at];
          dz1[at] = 0.0 + dz2 * (1.0 - t[at]);
          dpre_t[at] = dt * t[at] * (1.0 - t[at]);
          dpre_h[at] = g[at] > 0.0 ? dg : 0.0;
        }
      }
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < h; ++j) z1_rows[r * h + j] = z1[j * batch + r];
      }
      AccumulateOuter(dpre_t.data(), h, batch, z1_rows.data(), h, g_wt.data(),
                      g_bt.data());
      AccumulateOuter(dpre_h.data(), h, batch, z1_rows.data(), h, g_wh.data(),
                      g_bh.data());
      // dz1 adds each unit's term in ascending unit order, two units per
      // pass through the panel.
      for (size_t i = 0; i < h; i += 2) {
        size_t pair = std::min<size_t>(2, h - i);
        const double* dt0 = dpre_t.data() + i * batch;
        const double* dh0 = dpre_h.data() + i * batch;
        const double* rt0 = params_.wt.data() + i * h;
        const double* rh0 = params_.wh.data() + i * h;
        for (size_t j = 0; j < h; ++j) {
          double* dz1j = dz1.data() + j * batch;
          double wt0 = rt0[j], wh0 = rh0[j];
          if (pair == 2) {
            double wt1 = rt0[h + j], wh1 = rh0[h + j];
            const double* dt1 = dt0 + batch;
            const double* dh1 = dh0 + batch;
            for (size_t r = 0; r < batch; ++r) {
              double acc = dz1j[r];
              acc += wt0 * dt0[r] + wh0 * dh0[r];
              acc += wt1 * dt1[r] + wh1 * dh1[r];
              dz1j[r] = acc;
            }
          } else {
            for (size_t r = 0; r < batch; ++r) {
              dz1j[r] += wt0 * dt0[r] + wh0 * dh0[r];
            }
          }
        }
      }

      // Dense backward; z1 > 0 exactly where the pre-activation is.
      for (size_t at = 0; at < h * batch; ++at) {
        if (!(z1[at] > 0.0)) dz1[at] = 0.0;
      }
      AccumulateOuter(dz1.data(), h, batch, x_rows.data(), d, g_w1.data(),
                      g_b1.data());

      double inv = 1.0 / static_cast<double>(batch);
      for (double& v : g_w1) v *= inv;
      for (double& v : g_b1) v *= inv;
      for (double& v : g_wt) v *= inv;
      for (double& v : g_bt) v *= inv;
      for (double& v : g_wh) v *= inv;
      for (double& v : g_bh) v *= inv;
      for (double& v : g_w2) v *= inv;
      g_b2[0] *= inv;

      double lr = options_.learning_rate;
      double l2 = options_.l2;
      adam_w1.Step(&params_.w1, g_w1, lr, l2);
      adam_b1.Step(&params_.b1, g_b1, lr, 0.0);
      adam_wt.Step(&params_.wt, g_wt, lr, l2);
      adam_bt.Step(&params_.bt, g_bt, lr, 0.0);
      adam_wh.Step(&params_.wh, g_wh, lr, l2);
      adam_bh.Step(&params_.bh, g_bh, lr, 0.0);
      adam_w2.Step(&params_.w2, g_w2, lr, l2);
      std::vector<double> b2vec = {params_.b2};
      adam_b2.Step(&b2vec, g_b2, lr, 0.0);
      params_.b2 = b2vec[0];
    }

    if (options_.select_best_epoch_on_valid && !scaled_valid.empty()) {
      // Evaluate the current epoch's model on the validation panels.
      Confusion c;
      for (size_t begin = 0; begin < scaled_valid.size(); begin += cap) {
        size_t batch = std::min(cap, scaled_valid.size() - begin);
        ForwardPanel(valid_xt.data() + begin * d, batch, z1.data(), t.data(),
                     g.data(), z2.data(), logits.data());
        for (size_t r = 0; r < batch; ++r) {
          bool predicted = logits[r] >= 0.0;
          if (scaled_valid.label(begin + r)) {
            predicted ? ++c.true_positives : ++c.false_negatives;
          } else {
            predicted ? ++c.false_positives : ++c.true_negatives;
          }
        }
      }
      double f1 = c.F1();
      if (f1 > best_valid_f1_) {
        best_valid_f1_ = f1;
        best_epoch_ = epoch;
        best = params_;
      }
    }
  }

  if (options_.select_best_epoch_on_valid && best_epoch_ >= 0) {
    params_ = best;
  }
  // Diverged training (non-finite parameters) must fail loudly rather than
  // emit NaN scores downstream.
  for (double w : params_.w1) RLBENCH_CHECK_FINITE(w);
  for (double w : params_.w2) RLBENCH_CHECK_FINITE(w);
}

void Mlp::PredictScoresBatch(const Dataset& rows, std::span<double> out) const {
  RLBENCH_CHECK_EQ(out.size(), rows.size());
  if (rows.empty()) return;
  RLBENCH_CHECK_EQ(rows.num_features(), input_dim_);
  size_t h = options_.hidden;
  size_t d = input_dim_;
  // Rows per panel: large enough that each weight matrix read is amortised
  // over the whole panel, small enough that the double scratch stays in
  // cache for typical hidden sizes.
  constexpr size_t kBlock = 128;
  size_t blocks = (rows.size() + kBlock - 1) / kBlock;
  ParallelFor(0, blocks, 1, [&](size_t blk) {
    size_t begin = blk * kBlock;
    size_t batch = std::min(rows.size() - begin, kBlock);
    // One arena per worker thread, sized for a full block so the size never
    // oscillates: a fresh ~200KB allocation per block costs an mmap plus
    // page faults every time, while a thread-local arena pays that once and
    // stays hot across blocks and calls. Every slice is fully overwritten
    // before it is read.
    static thread_local std::vector<float> fscratch;
    static thread_local std::vector<double> dscratch;
    fscratch.resize(d + d * kBlock);
    dscratch.resize(4 * h * kBlock + kBlock);
    float* scaled = fscratch.data();
    float* xt = scaled + d;
    double* z1 = dscratch.data();
    double* t = z1 + h * batch;
    double* g = t + h * batch;
    double* z2 = g + h * batch;
    double* logits = z2 + h * batch;
    // Scale each row exactly as PredictScore does, then transpose the
    // panel to column-major so the affine kernels walk contiguous floats.
    for (size_t r = 0; r < batch; ++r) {
      auto row = rows.row(begin + r);
      std::copy(row.begin(), row.end(), scaled);
      scaler_.Transform(std::span<float>(scaled, d));
      for (size_t j = 0; j < d; ++j) xt[j * batch + r] = scaled[j];
    }
    ForwardPanel(xt, batch, z1, t, g, z2, logits);
    for (size_t r = 0; r < batch; ++r) {
      RLBENCH_DCHECK_FINITE(logits[r]);
      double score = Sigmoid(logits[r]);
      RLBENCH_DCHECK_PROB(score);
      out[begin + r] = score;
    }
  });
}

double Mlp::PredictScore(std::span<const float> row) const {
  RLBENCH_CHECK_EQ(row.size(), input_dim_);
  // A one-row panel: its column-major layout is the scaled row itself.
  std::vector<float> scaled(row.begin(), row.end());
  scaler_.Transform(scaled);
  size_t h = options_.hidden;
  std::vector<double> scratch(4 * h);
  double* z1 = scratch.data();
  double logit = 0.0;
  ForwardPanel(scaled.data(), 1, z1, z1 + h, z1 + 2 * h, z1 + 3 * h, &logit);
  RLBENCH_DCHECK_FINITE(logit);
  double score = Sigmoid(logit);
  RLBENCH_DCHECK_PROB(score);
  return score;
}

}  // namespace rlbench::ml
