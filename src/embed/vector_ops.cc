#include "embed/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rlbench::embed {

double Dot(const Vec& a, const Vec& b) {
  RLBENCH_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += double{a[i]} * b[i];
  return sum;
}

double Norm(const Vec& a) { return std::sqrt(Dot(a, a)); }

namespace {

double CosineFromDot(double dot, double na, double nb) {
  if (na == 0.0 || nb == 0.0) return 0.0;
  // Rounding can push the quotient a hair outside [-1, 1]; clamp so the
  // [0, 1] rescaling below stays a valid probability.
  return std::clamp(dot / (na * nb), -1.0, 1.0);
}

}  // namespace

double Cosine(const Vec& a, const Vec& b) {
  double na = Norm(a);
  double nb = Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return CosineFromDot(Dot(a, b), na, nb);
}

double CosineSimilarity01(const Vec& a, const Vec& b) {
  double sim = 0.5 * (1.0 + Cosine(a, b));
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double CosineSimilarity01FromDot(double dot, double norm_a, double norm_b) {
  double sim = 0.5 * (1.0 + CosineFromDot(dot, norm_a, norm_b));
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double EuclideanDistance(const Vec& a, const Vec& b) {
  RLBENCH_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = double{a[i]} - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double EuclideanSimilarity(const Vec& a, const Vec& b) {
  double sim = 1.0 / (1.0 + EuclideanDistance(a, b));
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double WassersteinSimilarity(const Vec& a, const Vec& b) {
  RLBENCH_CHECK_EQ(a.size(), b.size());
  Vec sa = a;
  Vec sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  double w = 0.0;
  for (size_t i = 0; i < sa.size(); ++i) w += std::fabs(double{sa[i]} - sb[i]);
  if (!sa.empty()) w /= static_cast<double>(sa.size());
  RLBENCH_DCHECK_FINITE(w);
  return 1.0 / (1.0 + w);
}

void AddInPlace(Vec* a, const Vec& b) {
  RLBENCH_CHECK_EQ(a->size(), b.size());
  for (size_t i = 0; i < a->size(); ++i) (*a)[i] += b[i];
}

void ScaleInPlace(Vec* a, float factor) {
  for (float& x : *a) x *= factor;
}

void AxpyInPlace(Vec* a, float factor, const Vec& b) {
  RLBENCH_CHECK_EQ(a->size(), b.size());
  for (size_t i = 0; i < a->size(); ++i) (*a)[i] += factor * b[i];
}

void L2NormalizeInPlace(Vec* a) {
  double norm = Norm(*a);
  if (norm == 0.0) return;
  RLBENCH_DCHECK_FINITE(norm);
  ScaleInPlace(a, static_cast<float>(1.0 / norm));
}

Vec InteractionFeatures(const Vec& a, const Vec& b) {
  RLBENCH_CHECK_EQ(a.size(), b.size());
  Vec out(2 * a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    out[i] = std::fabs(a[i] - b[i]);
    out[a.size() + i] = a[i] * b[i];
  }
  return out;
}

}  // namespace rlbench::embed
