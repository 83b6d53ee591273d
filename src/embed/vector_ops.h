// Dense vector operations shared by the embedding substrates, the
// DL-matcher simulators and the SAS/SBS-ESDE feature extractors.
#ifndef RLBENCH_SRC_EMBED_VECTOR_OPS_H_
#define RLBENCH_SRC_EMBED_VECTOR_OPS_H_

#include <vector>

namespace rlbench::embed {

using Vec = std::vector<float>;

double Dot(const Vec& a, const Vec& b);
double Norm(const Vec& a);

/// Cosine similarity mapped to [0, 1]: (1 + cos) / 2 for general vectors;
/// returns 0.5 (cos = 0) when either vector is zero.
double CosineSimilarity01(const Vec& a, const Vec& b);

/// CosineSimilarity01 from a precomputed dot product and norms. The same
/// arithmetic, so the result is bit-identical to CosineSimilarity01(a, b)
/// when given Dot(a, b), Norm(a) and Norm(b). Dot and the norm product are
/// symmetric bit for bit, so one value serves (a, b) and (b, a).
double CosineSimilarity01FromDot(double dot, double norm_a, double norm_b);

/// Raw cosine in [-1, 1] (0 for zero vectors).
double Cosine(const Vec& a, const Vec& b);

double EuclideanDistance(const Vec& a, const Vec& b);

/// Euclidean similarity 1 / (1 + dist), as used by SAS-ESDE.
double EuclideanSimilarity(const Vec& a, const Vec& b);

/// 1-D Wasserstein (earth mover's) distance between the sorted coordinate
/// distributions of the two vectors, turned into a similarity 1 / (1 + W).
/// This is the paper's "Wasserstein similarity" of embedding vectors.
double WassersteinSimilarity(const Vec& a, const Vec& b);

void AddInPlace(Vec* a, const Vec& b);
void ScaleInPlace(Vec* a, float factor);
void AxpyInPlace(Vec* a, float factor, const Vec& b);  // a += factor * b

/// Normalise to unit L2 norm (no-op for zero vectors).
void L2NormalizeInPlace(Vec* a);

/// Element-wise |a - b| followed by element-wise a * b, concatenated:
/// the standard interaction features fed to matcher classifiers.
Vec InteractionFeatures(const Vec& a, const Vec& b);

}  // namespace rlbench::embed

#endif  // RLBENCH_SRC_EMBED_VECTOR_OPS_H_
