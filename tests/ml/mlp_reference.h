// Test-only oracle for ml::Mlp: the row-at-a-time forward pass and
// per-sample mini-batch Adam loop that Mlp's panel training must reproduce
// bit for bit. Same scaler, same parameter initialisation and shuffle
// draws, same accumulation order in every reduction; only the layout
// differs (one row at a time instead of column-major panels).
#ifndef RLBENCH_TESTS_ML_MLP_REFERENCE_H_
#define RLBENCH_TESTS_ML_MLP_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/scaler.h"

namespace rlbench::ml::testing {

class ReferenceMlp {
 public:
  explicit ReferenceMlp(MlpOptions options) : options_(options) {}

  void Fit(const Dataset& train, const Dataset& valid) {
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
    params_.bt.assign(h, -1.0);
    init(&params_.wh, h * h, s2);
    params_.bh.assign(h, 0.0);
    init(&params_.w2, h, s2);
    params_.b2 = 0.0;

    if (scaled.empty()) return;

    double positives = static_cast<double>(scaled.CountPositives());
    double negatives = static_cast<double>(scaled.size()) - positives;
    double pos_weight = 1.0;
    if (options_.balance_classes && positives > 0.0 && negatives > 0.0) {
      pos_weight = negatives / positives;
    }

    Adam adam_w1(h * d), adam_b1(h), adam_wt(h * h), adam_bt(h),
        adam_wh(h * h), adam_bh(h), adam_w2(h), adam_b2(1);

    std::vector<size_t> order(scaled.size());
    std::iota(order.begin(), order.end(), size_t{0});

    std::vector<double> z1, pre1, pre_t, pre_h, z2;
    std::vector<double> g_w1(h * d), g_b1(h), g_wt(h * h), g_bt(h),
        g_wh(h * h), g_bh(h), g_w2(h), g_b2(1);
    std::vector<double> dz1(h), dz2(h), dpre_t(h), dpre_h(h), dpre1(h);

    Params best = params_;
    best_valid_f1_ = -1.0;
    best_epoch_ = -1;

    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      rng.Shuffle(&order);
      for (size_t start = 0; start < order.size();
           start += options_.batch_size) {
        size_t end = std::min(order.size(), start + options_.batch_size);
        std::fill(g_w1.begin(), g_w1.end(), 0.0);
        std::fill(g_b1.begin(), g_b1.end(), 0.0);
        std::fill(g_wt.begin(), g_wt.end(), 0.0);
        std::fill(g_bt.begin(), g_bt.end(), 0.0);
        std::fill(g_wh.begin(), g_wh.end(), 0.0);
        std::fill(g_bh.begin(), g_bh.end(), 0.0);
        std::fill(g_w2.begin(), g_w2.end(), 0.0);
        g_b2[0] = 0.0;

        for (size_t k = start; k < end; ++k) {
          auto x = scaled.row(order[k]);
          double y = scaled.label(order[k]) ? 1.0 : 0.0;
          double logit = Forward(x, params_, &z1, &pre1, &pre_t, &pre_h, &z2);
          double p = Sigmoid(logit);
          double weight = scaled.label(order[k]) ? pos_weight : 1.0;
          double dlogit = weight * (p - y);

          for (size_t i = 0; i < h; ++i) g_w2[i] += dlogit * z2[i];
          g_b2[0] += dlogit;

          for (size_t i = 0; i < h; ++i) dz2[i] = dlogit * params_.w2[i];

          // Highway backward.
          std::fill(dz1.begin(), dz1.end(), 0.0);
          for (size_t i = 0; i < h; ++i) {
            double t = Sigmoid(pre_t[i]);
            double g = std::max(0.0, pre_h[i]);
            double dt = dz2[i] * (g - z1[i]);
            double dg = dz2[i] * t;
            dz1[i] += dz2[i] * (1.0 - t);
            dpre_t[i] = dt * t * (1.0 - t);
            dpre_h[i] = pre_h[i] > 0.0 ? dg : 0.0;
          }
          for (size_t i = 0; i < h; ++i) {
            double* gt = &g_wt[i * h];
            double* gh = &g_wh[i * h];
            const double* rt = &params_.wt[i * h];
            const double* rh = &params_.wh[i * h];
            for (size_t j = 0; j < h; ++j) {
              gt[j] += dpre_t[i] * z1[j];
              gh[j] += dpre_h[i] * z1[j];
              dz1[j] += rt[j] * dpre_t[i] + rh[j] * dpre_h[i];
            }
            g_bt[i] += dpre_t[i];
            g_bh[i] += dpre_h[i];
          }

          // Dense backward.
          for (size_t i = 0; i < h; ++i) {
            dpre1[i] = pre1[i] > 0.0 ? dz1[i] : 0.0;
          }
          for (size_t i = 0; i < h; ++i) {
            double* gw = g_w1.data() + i * d;
            for (size_t j = 0; j < d; ++j) gw[j] += dpre1[i] * x[j];
            g_b1[i] += dpre1[i];
          }
        }

        double inv = 1.0 / static_cast<double>(end - start);
        for (double& g : g_w1) g *= inv;
        for (double& g : g_b1) g *= inv;
        for (double& g : g_wt) g *= inv;
        for (double& g : g_bt) g *= inv;
        for (double& g : g_wh) g *= inv;
        for (double& g : g_bh) g *= inv;
        for (double& g : g_w2) g *= inv;
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
        Confusion c;
        std::vector<double> tz1, tpre1, tpre_t, tpre_h, tz2;
        for (size_t i = 0; i < scaled_valid.size(); ++i) {
          double logit = Forward(scaled_valid.row(i), params_, &tz1, &tpre1,
                                 &tpre_t, &tpre_h, &tz2);
          bool predicted = logit >= 0.0;
          if (scaled_valid.label(i)) {
            predicted ? ++c.true_positives : ++c.false_negatives;
          } else {
            predicted ? ++c.false_positives : ++c.true_negatives;
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
  }

  double PredictScore(std::span<const float> row) const {
    std::vector<float> scaled(row.begin(), row.end());
    scaler_.Transform(scaled);
    std::vector<double> z1, pre1, pre_t, pre_h, z2;
    return Sigmoid(Forward(scaled, params_, &z1, &pre1, &pre_t, &pre_h, &z2));
  }

  double best_valid_f1() const { return best_valid_f1_; }
  int best_epoch() const { return best_epoch_; }

 private:
  struct Params {
    std::vector<double> w1, b1, wt, bt, wh, bh, w2;
    double b2 = 0.0;
  };

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

  static double Sigmoid(double z) {
    if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
    double e = std::exp(z);
    return e / (1.0 + e);
  }

  /// One row through Dense+ReLU -> Highway -> logit, every sum a single
  /// accumulator over ascending inputs.
  double Forward(std::span<const float> x, const Params& p,
                 std::vector<double>* z1, std::vector<double>* pre1,
                 std::vector<double>* pre_t, std::vector<double>* pre_h,
                 std::vector<double>* z2) const {
    size_t h = options_.hidden;
    size_t d = input_dim_;
    pre1->assign(h, 0.0);
    for (size_t i = 0; i < h; ++i) {
      double sum = p.b1[i];
      const double* row = p.w1.data() + i * d;
      for (size_t j = 0; j < d; ++j) sum += row[j] * x[j];
      (*pre1)[i] = sum;
    }
    z1->assign(h, 0.0);
    for (size_t i = 0; i < h; ++i) (*z1)[i] = std::max(0.0, (*pre1)[i]);

    pre_t->assign(h, 0.0);
    pre_h->assign(h, 0.0);
    for (size_t i = 0; i < h; ++i) {
      double st = p.bt[i];
      double sh = p.bh[i];
      const double* rt = &p.wt[i * h];
      const double* rh = &p.wh[i * h];
      for (size_t j = 0; j < h; ++j) {
        st += rt[j] * (*z1)[j];
        sh += rh[j] * (*z1)[j];
      }
      (*pre_t)[i] = st;
      (*pre_h)[i] = sh;
    }
    z2->assign(h, 0.0);
    for (size_t i = 0; i < h; ++i) {
      double t = Sigmoid((*pre_t)[i]);
      double g = std::max(0.0, (*pre_h)[i]);
      (*z2)[i] = t * g + (1.0 - t) * (*z1)[i];
    }
    double logit = p.b2;
    for (size_t i = 0; i < h; ++i) logit += p.w2[i] * (*z2)[i];
    return logit;
  }

  MlpOptions options_;
  StandardScaler scaler_;
  size_t input_dim_ = 0;
  Params params_;
  double best_valid_f1_ = 0.0;
  int best_epoch_ = -1;
};

}  // namespace rlbench::ml::testing

#endif  // RLBENCH_TESTS_ML_MLP_REFERENCE_H_
