// Vectorized similarity kernels over columnar data (ISSUE 7 tentpole).
//
// Every kernel here has a retained scalar reference (text/similarity.h,
// embed/vector_ops.h, tests/ml/mlp_reference.h) and a differential test
// (tests/text/kernels_differential_test.cc) proving agreement. The contract
// per kernel is either:
//
//   * BIT-EXACT — identical double arithmetic to the reference, same
//     operation order, same empty-input special cases. These kernels are
//     safe to wire into golden-pinned matcher paths. All set similarities,
//     the banded Levenshtein, Jaro/Jaro-Winkler/Monge-Elkan, the span
//     float ops, and the batched affine fall in this class.
//   * TOLERANCE — float re-association is the speedup (multi-accumulator
//     reductions), with a documented bound. Only DotBlocked is in this
//     class; it must NOT be wired into matcher feature paths.
//
// See docs/kernels.md for the layout, the tolerance policy, and the recipe
// for adding a kernel. tools/rlbench_lint.py's `kernels` rule bans map
// lookups and heap allocation inside kernels.cc loop bodies; keep new
// kernels allocation-free (stack buffers, caller-provided scratch).
#ifndef RLBENCH_SRC_TEXT_KERNELS_H_
#define RLBENCH_SRC_TEXT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace rlbench::text::kernels {

// --- Sorted-set merge scans ----------------------------------------------
//
// Columnar token columns store sorted unique ids (uint32 ranks of the
// global hash vocabulary), q-gram columns store sorted unique uint64
// hashes. Because rank interning is a monotone bijection on the hashes,
// intersection counts over id spans equal TokenSet::IntersectionSize over
// the original hash sets — the similarity values are bit-identical.

/// |A∩B| of two sorted unique uint32 spans (two-pointer merge).
[[nodiscard]] size_t IntersectSortedU32(std::span<const uint32_t> a,
                                        std::span<const uint32_t> b);

/// |A∩B| of two sorted unique uint64 spans (two-pointer merge).
[[nodiscard]] size_t IntersectSortedU64(std::span<const uint64_t> a,
                                        std::span<const uint64_t> b);

// --- Set similarities from counts ----------------------------------------
//
// Exactly the arithmetic of text/similarity.cc, factored over
// (|A∩B|, |A|, |B|) so one merge scan feeds many similarities.

/// BIT-EXACT vs text::CosineSimilarity.
[[nodiscard]] double CosineFromCounts(size_t inter, size_t size_a,
                                      size_t size_b);
/// BIT-EXACT vs text::JaccardSimilarity.
[[nodiscard]] double JaccardFromCounts(size_t inter, size_t size_a,
                                       size_t size_b);
/// BIT-EXACT vs text::DiceSimilarity.
[[nodiscard]] double DiceFromCounts(size_t inter, size_t size_a,
                                    size_t size_b);
/// BIT-EXACT vs text::OverlapSimilarity.
[[nodiscard]] double OverlapFromCounts(size_t inter, size_t size_a,
                                       size_t size_b);
/// BIT-EXACT vs text::ContainmentSimilarity (directed |A∩B| / |A|).
[[nodiscard]] double ContainmentFromCounts(size_t inter, size_t size_a,
                                           size_t size_b);

/// The ESDE per-variant triple (Cosine, Dice, Jaccard) from ONE merge scan;
/// the scalar path recomputes the intersection three times.
struct SetSims {
  double cosine = 0.0;
  double dice = 0.0;
  double jaccard = 0.0;
};

[[nodiscard]] SetSims SetFamilyFromCounts(size_t inter, size_t size_a,
                                          size_t size_b);
[[nodiscard]] SetSims SetFamilySortedU32(std::span<const uint32_t> a,
                                         std::span<const uint32_t> b);
[[nodiscard]] SetSims SetFamilySortedU64(std::span<const uint64_t> a,
                                         std::span<const uint64_t> b);

/// BIT-EXACT vs text::JaccardSimilarity over the equivalent token sets.
[[nodiscard]] double JaccardSortedU32(std::span<const uint32_t> a,
                                      std::span<const uint32_t> b);
[[nodiscard]] double OverlapSortedU32(std::span<const uint32_t> a,
                                      std::span<const uint32_t> b);
[[nodiscard]] double ContainmentSortedU32(std::span<const uint32_t> a,
                                          std::span<const uint32_t> b);

/// One (A, B) set pair of a batched sweep: raw pointers + lengths into the
/// columnar id pools (32 bytes, so a pair array streams well).
struct U32SetPair {
  const uint32_t* a = nullptr;
  const uint32_t* b = nullptr;
  uint32_t size_a = 0;
  uint32_t size_b = 0;
};

/// Batched Jaccard over sorted unique id spans: out[i] is BIT-EXACT equal
/// to JaccardSortedU32({pairs[i].a, pairs[i].size_a},
/// {pairs[i].b, pairs[i].size_b}). One call amortizes per-pair call
/// overhead across the sweep, and on AVX2 hosts small sets (the common
/// case for per-record token sets) take an all-lanes membership path
/// instead of the serial two-pointer merge; the intersection count is an
/// integer either way, so the double arithmetic is unchanged. Requires ids
/// < 0xFFFFFFFF (rank interning guarantees ranks are far below that; the
/// top id value is reserved as the SIMD sentinel). `out` must hold n
/// doubles.
void JaccardSortedU32Batch(const U32SetPair* pairs, size_t n, double* out);

// --- Edit distance with a banded early-exit buffer -----------------------

/// Levenshtein distance, EXACT (equal to text::LevenshteinDistance for all
/// inputs): common prefix/suffix stripping, then the Myers bit-parallel
/// scan when the shorter operand fits one 64-bit word (the Magellan path
/// truncates to 48 chars, so this is the hot case), else an Ukkonen band
/// of doubling half-width over stack buffers. Strings longer than
/// kLevenshteinStackCap after stripping fall back to the scalar reference.
[[nodiscard]] size_t LevenshteinBanded(std::string_view a, std::string_view b);

/// BIT-EXACT vs text::LevenshteinSimilarity (same normalisation formula
/// over the exact distance).
[[nodiscard]] double LevenshteinSimilarityBanded(std::string_view a,
                                                 std::string_view b);

/// Longest stripped operand the banded kernel handles on the stack.
inline constexpr size_t kLevenshteinStackCap = 128;

// --- Jaro family without per-pair allocation -----------------------------

/// BIT-EXACT vs text::JaroSimilarity. Uses uint64 match bitmasks instead of
/// two heap vector<bool>; strings longer than 64 bytes fall back to the
/// scalar reference (Magellan truncates to 48 chars, so the hot path never
/// allocates).
[[nodiscard]] double JaroKernel(std::string_view a, std::string_view b);

/// BIT-EXACT vs text::JaroWinklerSimilarity.
[[nodiscard]] double JaroWinklerKernel(std::string_view a, std::string_view b);

/// BIT-EXACT vs text::MongeElkanSimilarity over the same token lists.
/// Operates on string_view spans into the columnar token arena, so the
/// per-pair CapTokens copy of the row path disappears.
[[nodiscard]] double MongeElkanKernel(std::span<const std::string_view> a,
                                      std::span<const std::string_view> b);

// --- Attribute-value kernels over precomputed columns --------------------

/// BIT-EXACT vs text::NumericSimilarity(a, b) when (ok_*, x, y) were
/// produced by ParseNumeric on the raw values; the per-pair strtod parse is
/// hoisted to one parse per record at store-build time.
[[nodiscard]] double NumericFromParsed(bool ok_a, double x, bool ok_b,
                                       double y);

/// Parse helper matching text::NumericSimilarity's parse step (strip ASCII
/// whitespace, strtod over the full token, reject non-finite). Returns
/// false (and leaves *out untouched) when the value is not numeric.
[[nodiscard]] bool ParseNumeric(std::string_view value, double* out);

/// BIT-EXACT vs text::ExactMatchSimilarity when both views are the
/// lower-cased originals (the per-pair ToLowerAscii copies are hoisted to
/// store-build time).
[[nodiscard]] double ExactMatchLowered(std::string_view lowered_a,
                                       std::string_view lowered_b);

// --- Dense float kernels --------------------------------------------------

/// BIT-EXACT vs embed::Dot (single accumulator, ascending index).
[[nodiscard]] double DotSpan(std::span<const float> a,
                             std::span<const float> b);

/// TOLERANCE kernel: 4-accumulator re-associated dot. Relative error vs
/// DotSpan is bounded by ~|a|·eps·(Σ|a_i b_i| / |Σ a_i b_i|); the
/// differential test asserts 1e-6 relative on unit-scale inputs. Not for
/// matcher feature paths.
[[nodiscard]] double DotBlocked(std::span<const float> a,
                                std::span<const float> b);

/// BIT-EXACT vs embed::CosineSimilarity01 over equal vectors.
[[nodiscard]] double CosineSimilarity01Span(std::span<const float> a,
                                            std::span<const float> b);

/// BIT-EXACT vs embed::EuclideanSimilarity.
[[nodiscard]] double EuclideanSimilaritySpan(std::span<const float> a,
                                             std::span<const float> b);

/// BIT-EXACT vs embed::WassersteinSimilarity when fed coordinate-sorted
/// copies of the vectors (the per-pair sort is hoisted to store build).
[[nodiscard]] double WassersteinFromSorted(std::span<const float> sorted_a,
                                           std::span<const float> sorted_b);

// --- Batched affine (blocked matrix-vector) ------------------------------
//
// The MLP hot loop. Both kernels compute, for every unit i and batch row r,
//     out[i * batch + r] = bias[i] + Σ_j w[i * dim + j] · xt[j * batch + r]
// with j ascending and a single double accumulator per (i, r) — the exact
// accumulation order of a per-row forward loop, so batching across rows is
// BIT-EXACT vs per-row scoring (ml::Mlp trains and scores through them). xt
// is the transposed input block (column-major: feature j contiguous across
// the batch), which is what lets the inner r-loop autovectorize.

/// Input block of floats (layer 1: scaled feature rows).
void BatchedAffineF32(const double* w, const double* bias, size_t units,
                      size_t dim, const float* xt, size_t batch, double* out);

/// Input block of doubles (hidden layers: activations).
void BatchedAffineF64(const double* w, const double* bias, size_t units,
                      size_t dim, const double* xt, size_t batch, double* out);

/// Two affines over ONE shared input block in a single pass (the highway
/// layer's transform gate and candidate both read the same activations, so
/// fusing them halves the panel traffic). Each output is BIT-EXACT equal to
/// the corresponding BatchedAffineF64 call. out_a and out_b must not alias
/// each other, the inputs, or the weights.
void DualBatchedAffineF64(const double* w_a, const double* bias_a,
                          const double* w_b, const double* bias_b,
                          size_t units, size_t dim, const double* xt,
                          size_t batch, double* out_a, double* out_b);

}  // namespace rlbench::text::kernels

#endif  // RLBENCH_SRC_TEXT_KERNELS_H_
