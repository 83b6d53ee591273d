#include "text/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

// SSE2 is part of the x86-64 baseline: no runtime dispatch.
#if defined(__SSE2__)
#include <emmintrin.h>
#define RLBENCH_KERNELS_HAVE_SSE2 1
#endif

#include "common/check.h"
#include "common/strings.h"
#include "text/similarity.h"

namespace rlbench::text::kernels {

size_t IntersectSortedU32(std::span<const uint32_t> a,
                          std::span<const uint32_t> b) {
  const uint32_t* pa = a.data();
  const uint32_t* pb = b.data();
  const uint32_t* ea = pa + a.size();
  const uint32_t* eb = pb + b.size();
  size_t count = 0;
  while (pa != ea && pb != eb) {
    uint32_t x = *pa;
    uint32_t y = *pb;
    count += static_cast<size_t>(x == y);
    pa += static_cast<size_t>(x <= y);
    pb += static_cast<size_t>(y <= x);
  }
  return count;
}

size_t IntersectSortedU64(std::span<const uint64_t> a,
                          std::span<const uint64_t> b) {
  const uint64_t* pa = a.data();
  const uint64_t* pb = b.data();
  const uint64_t* ea = pa + a.size();
  const uint64_t* eb = pb + b.size();
  size_t count = 0;
  while (pa != ea && pb != eb) {
    uint64_t x = *pa;
    uint64_t y = *pb;
    count += static_cast<size_t>(x == y);
    pa += static_cast<size_t>(x <= y);
    pb += static_cast<size_t>(y <= x);
  }
  return count;
}

double CosineFromCounts(size_t inter, size_t size_a, size_t size_b) {
  if (size_a == 0 || size_b == 0) return 0.0;
  double i = static_cast<double>(inter);
  double sim = i / std::sqrt(static_cast<double>(size_a) *
                             static_cast<double>(size_b));
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double JaccardFromCounts(size_t inter, size_t size_a, size_t size_b) {
  if (size_a == 0 && size_b == 0) return 0.0;
  double i = static_cast<double>(inter);
  double uni = static_cast<double>(size_a + size_b) - i;
  double sim = uni <= 0.0 ? 0.0 : i / uni;
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double DiceFromCounts(size_t inter, size_t size_a, size_t size_b) {
  if (size_a == 0 && size_b == 0) return 0.0;
  double i = static_cast<double>(inter);
  double sim = 2.0 * i / static_cast<double>(size_a + size_b);
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double OverlapFromCounts(size_t inter, size_t size_a, size_t size_b) {
  if (size_a == 0 || size_b == 0) return 0.0;
  return static_cast<double>(inter) /
         static_cast<double>(std::min(size_a, size_b));
}

double ContainmentFromCounts(size_t inter, size_t size_a, size_t size_b) {
  (void)size_b;
  if (size_a == 0) return 0.0;
  double sim = static_cast<double>(inter) / static_cast<double>(size_a);
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

SetSims SetFamilyFromCounts(size_t inter, size_t size_a, size_t size_b) {
  SetSims sims;
  sims.cosine = CosineFromCounts(inter, size_a, size_b);
  sims.dice = DiceFromCounts(inter, size_a, size_b);
  sims.jaccard = JaccardFromCounts(inter, size_a, size_b);
  return sims;
}

SetSims SetFamilySortedU32(std::span<const uint32_t> a,
                           std::span<const uint32_t> b) {
  return SetFamilyFromCounts(IntersectSortedU32(a, b), a.size(), b.size());
}

SetSims SetFamilySortedU64(std::span<const uint64_t> a,
                           std::span<const uint64_t> b) {
  return SetFamilyFromCounts(IntersectSortedU64(a, b), a.size(), b.size());
}

double JaccardSortedU32(std::span<const uint32_t> a,
                        std::span<const uint32_t> b) {
  return JaccardFromCounts(IntersectSortedU32(a, b), a.size(), b.size());
}

double OverlapSortedU32(std::span<const uint32_t> a,
                        std::span<const uint32_t> b) {
  return OverlapFromCounts(IntersectSortedU32(a, b), a.size(), b.size());
}

double ContainmentSortedU32(std::span<const uint32_t> a,
                            std::span<const uint32_t> b) {
  return ContainmentFromCounts(IntersectSortedU32(a, b), a.size(), b.size());
}

namespace {

void JaccardBatchMerge(const U32SetPair* pairs, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    size_t inter = IntersectSortedU32({pairs[i].a, pairs[i].size_a},
                                      {pairs[i].b, pairs[i].size_b});
    out[i] = JaccardFromCounts(inter, pairs[i].size_a, pairs[i].size_b);
  }
}

#if defined(__GNUC__) && defined(__x86_64__)
#define RLBENCH_KERNELS_HAVE_AVX2 1

// Lane masks for a partial 8-lane load: kLaneMask[n] has lanes [0, n) set.
alignas(32) const uint32_t kLaneMask[9][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},
    {~0u, 0, 0, 0, 0, 0, 0, 0},
    {~0u, ~0u, 0, 0, 0, 0, 0, 0},
    {~0u, ~0u, ~0u, 0, 0, 0, 0, 0},
    {~0u, ~0u, ~0u, ~0u, 0, 0, 0, 0},
    {~0u, ~0u, ~0u, ~0u, ~0u, 0, 0, 0},
    {~0u, ~0u, ~0u, ~0u, ~0u, ~0u, 0, 0},
    {~0u, ~0u, ~0u, ~0u, ~0u, ~0u, ~0u, 0},
    {~0u, ~0u, ~0u, ~0u, ~0u, ~0u, ~0u, ~0u},
};

// All-lanes membership count: hold one side (up to 16 ids) in two ymm
// registers, masked-loaded so no byte past the span is touched and dead
// lanes forced to the 0xFFFFFFFF sentinel (never a valid rank id), then
// test every element of the other side against all lanes at once. Sets are
// deduped, so each element matches at most one lane and summing cmpeq
// lanes counts |A∩B| exactly — the same integer the two-pointer merge
// produces, just without its serial loop-carried dependency.
__attribute__((target("avx2"))) void JaccardBatchAvx2(const U32SetPair* pairs,
                                                      size_t n, double* out) {
  const __m256i sentinel = _mm256_set1_epi32(-1);
  for (size_t i = 0; i < n; ++i) {
    size_t na = pairs[i].size_a;
    size_t nb = pairs[i].size_b;
    if (na == 0 || nb == 0) {
      out[i] = JaccardFromCounts(0, na, nb);
      continue;
    }
    // Iterate the smaller side; keep the larger side in registers.
    const uint32_t* iter = pairs[i].a;
    const uint32_t* held = pairs[i].b;
    size_t n_iter = na;
    size_t n_held = nb;
    if (n_held < n_iter) {
      std::swap(iter, held);
      std::swap(n_iter, n_held);
    }
    if (n_held > 16) {
      size_t inter = IntersectSortedU32({pairs[i].a, na}, {pairs[i].b, nb});
      out[i] = JaccardFromCounts(inter, na, nb);
      continue;
    }
    __m256i m0 = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLaneMask[n_held > 8 ? 8 : n_held]));
    __m256i h0 = _mm256_maskload_epi32(reinterpret_cast<const int*>(held), m0);
    h0 = _mm256_blendv_epi8(sentinel, h0, m0);
    __m256i acc = _mm256_setzero_si256();
    if (n_held > 8) {
      __m256i m1 = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kLaneMask[n_held - 8]));
      __m256i h1 =
          _mm256_maskload_epi32(reinterpret_cast<const int*>(held + 8), m1);
      h1 = _mm256_blendv_epi8(sentinel, h1, m1);
      for (size_t k = 0; k < n_iter; ++k) {
        __m256i x = _mm256_set1_epi32(static_cast<int>(iter[k]));
        __m256i hit = _mm256_or_si256(_mm256_cmpeq_epi32(x, h0),
                                      _mm256_cmpeq_epi32(x, h1));
        acc = _mm256_sub_epi32(acc, hit);
      }
    } else {
      for (size_t k = 0; k < n_iter; ++k) {
        __m256i x = _mm256_set1_epi32(static_cast<int>(iter[k]));
        acc = _mm256_sub_epi32(acc, _mm256_cmpeq_epi32(x, h0));
      }
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
    size_t inter = static_cast<uint32_t>(_mm_cvtsi128_si32(s));
    out[i] = JaccardFromCounts(inter, na, nb);
  }
}

#endif  // AVX2-capable toolchain

}  // namespace

void JaccardSortedU32Batch(const U32SetPair* pairs, size_t n, double* out) {
#ifdef RLBENCH_KERNELS_HAVE_AVX2
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (has_avx2) {
    JaccardBatchAvx2(pairs, n, out);
    return;
  }
#endif
  JaccardBatchMerge(pairs, n, out);
}

namespace {

/// Banded single-pass DP over stack rows. Returns the exact distance when
/// it is <= k, otherwise any value > k (the caller retries with 2k). Band
/// condition |i - j| <= k is sound: any alignment path leaving the band
/// costs more than k insertions+deletions.
size_t LevenshteinWithin(std::string_view a, std::string_view b, size_t k) {
  size_t m = a.size();
  size_t n = b.size();
  RLBENCH_DCHECK_LE(m, n);
  RLBENCH_DCHECK_LE(m, kLevenshteinStackCap);
  RLBENCH_DCHECK_GE(k, n - m);
  const size_t big = m + n + 1;
  size_t buf0[kLevenshteinStackCap + 1];
  size_t buf1[kLevenshteinStackCap + 1];
  size_t* prev = buf0;
  size_t* curr = buf1;
  for (size_t i = 0; i <= m; ++i) prev[i] = i <= k ? i : big;
  for (size_t j = 1; j <= n; ++j) {
    size_t lo = j > k ? j - k : 1;
    size_t hi = std::min(m, j + k);
    // k >= n - m guarantees a non-empty band on every row.
    RLBENCH_DCHECK_LE(lo, hi);
    curr[lo - 1] = lo == 1 ? j : big;
    size_t row_min = big;
    for (size_t i = lo; i <= hi; ++i) {
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      size_t v =
          std::min({prev[i] + 1, curr[i - 1] + 1, prev[i - 1] + cost});
      curr[i] = v;
      row_min = std::min(row_min, v);
    }
    if (hi < m) curr[hi + 1] = big;
    if (row_min > k) return big;
    std::swap(prev, curr);
  }
  return prev[m];
}

/// Full two-row DP on the stack. For short strings the band bookkeeping
/// (plus the risk of a doubling retry) costs more than the cells it skips;
/// this path still beats the scalar reference by avoiding its two heap
/// allocations per call.
size_t LevenshteinFullStack(std::string_view a, std::string_view b) {
  size_t m = a.size();
  RLBENCH_DCHECK_LE(m, kLevenshteinStackCap);
  size_t buf0[kLevenshteinStackCap + 1];
  size_t buf1[kLevenshteinStackCap + 1];
  size_t* prev = buf0;
  size_t* curr = buf1;
  for (size_t i = 0; i <= m; ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    curr[0] = j;
    char bj = b[j - 1];
    for (size_t i = 1; i <= m; ++i) {
      size_t cost = a[i - 1] == bj ? 0 : 1;
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, prev[i - 1] + cost});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

/// Myers' bit-parallel scan (Myers 1999): the DP column is encoded as
/// positive/negative delta bitvectors, one word of bit operations per text
/// character instead of m DP cells. Exact for any byte strings with the
/// pattern (the shorter operand) at most 64 bytes.
size_t LevenshteinMyers64(std::string_view a, std::string_view b) {
  size_t m = a.size();
  RLBENCH_DCHECK(m >= 1 && m <= 64);
  uint64_t peq[256] = {};
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<uint8_t>(a[i])] |= uint64_t{1} << i;
  }
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  uint64_t last = uint64_t{1} << (m - 1);
  size_t score = m;
  for (size_t j = 0; j < b.size(); ++j) {
    uint64_t eq = peq[static_cast<uint8_t>(b[j])];
    uint64_t xv = eq | mv;
    uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++score;
    if (mh & last) --score;
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

}  // namespace

size_t LevenshteinBanded(std::string_view a, std::string_view b) {
  // Common prefix and suffix contribute nothing to the distance.
  size_t prefix = 0;
  size_t limit = std::min(a.size(), b.size());
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  a.remove_prefix(prefix);
  b.remove_prefix(prefix);
  size_t suffix = 0;
  limit = std::min(a.size(), b.size());
  while (suffix < limit &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
    ++suffix;
  }
  a.remove_suffix(suffix);
  b.remove_suffix(suffix);
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  if (a.size() <= 64) return LevenshteinMyers64(a, b);
  if (a.size() > kLevenshteinStackCap) return LevenshteinDistance(a, b);
  size_t n = b.size();
  size_t k = std::max(n - a.size(), size_t{8});
  // When the initial band already covers (nearly) the whole shorter side,
  // banding saves no cells — run the plain full DP instead.
  if (2 * k + 1 >= a.size()) return LevenshteinFullStack(a, b);
  while (true) {
    size_t dist = LevenshteinWithin(a, b, k);
    if (dist <= k) return dist;
    // k >= n covers every cell, so the DP above was already exhaustive and
    // its result <= max(m, n) <= k — unreachable without a smaller band.
    RLBENCH_DCHECK_LT(k, n);
    k = std::min(k * 2, n);
  }
}

double LevenshteinSimilarityBanded(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t longest = std::max(a.size(), b.size());
  return 1.0 - static_cast<double>(LevenshteinBanded(a, b)) /
                   static_cast<double>(longest);
}

namespace {

/// Bits [0, n) set, for n in [0, 64].
uint64_t LowBits(size_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/// The `b` operand of Jaro(a, b), prepared once and reusable across many
/// `a`: a zero-padded 64-byte copy, so the 16-byte compares below never
/// read past the caller's bytes. An operand over kJaroMaskBytes is not
/// copied; every Jaro against it takes the scalar reference.
class JaroTarget {
 public:
  explicit JaroTarget(std::string_view b) : b_(b) {
    if (b.size() > kJaroMaskBytes) return;
    std::memset(padded_, 0, sizeof(padded_));
    b.copy(padded_, b.size());
  }

  /// Bit j set iff padded byte j equals c. Bits at or past b's length are
  /// padding and may be set (c == '\0'); callers mask them off.
  uint64_t Positions(char c) const {
#ifdef RLBENCH_KERNELS_HAVE_SSE2
    const __m128i needle = _mm_set1_epi8(c);
    auto lane = [&](size_t k) {
      __m128i bytes =
          _mm_load_si128(reinterpret_cast<const __m128i*>(padded_ + 16 * k));
      return uint64_t{static_cast<uint32_t>(
                 _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, needle)))}
             << (16 * k);
    };
    uint64_t mask = lane(0);
    if (b_.size() > 16) mask |= lane(1) | lane(2) | lane(3);
    return mask;
#else
    uint64_t mask = 0;
    for (size_t j = 0; j < b_.size(); ++j) {
      mask |= uint64_t{padded_[j] == c} << j;
    }
    return mask;
#endif
  }

  /// BIT-EXACT vs text::JaroSimilarity(a, b).
  double Jaro(std::string_view a) const {
    std::string_view b = b_;
    if (a.size() > kJaroMaskBytes || b.size() > kJaroMaskBytes) {
      return JaroSimilarity(a, b);
    }
    if (a.empty() && b.empty()) return 1.0;
    if (a.empty() || b.empty()) return 0.0;
    if (a == b) return 1.0;
    size_t window = std::max(a.size(), b.size()) / 2 == 0
                        ? 0
                        : std::max(a.size(), b.size()) / 2 - 1;
    // The scalar scan stops at the lowest unmatched b position inside the
    // window that holds a[i]: that is the lowest set bit of the equality
    // mask ANDed with the window (which ends at b's length) and with the
    // still-unmatched positions.
    uint64_t matched_a = 0;
    uint64_t matched_b = 0;
    size_t matches = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      size_t lo = i > window ? i - window : 0;
      size_t hi = std::min(b.size(), i + window + 1);
      uint64_t open = LowBits(hi) & ~LowBits(lo) & ~matched_b;
      uint64_t hits = Positions(a[i]) & open;
      if (hits != 0) {
        matched_a |= uint64_t{1} << i;
        matched_b |= hits & (~hits + 1);
        ++matches;
      }
    }
    if (matches == 0) return 0.0;
    // Transpositions: the k-th matched byte of a against the k-th of b.
    size_t transpositions = 0;
    for (uint64_t ra = matched_a, rb = matched_b; ra != 0;
         ra &= ra - 1, rb &= rb - 1) {
      transpositions += static_cast<size_t>(a[std::countr_zero(ra)] !=
                                            b[std::countr_zero(rb)]);
    }
    double m = static_cast<double>(matches);
    double sim = (m / static_cast<double>(a.size()) +
                  m / static_cast<double>(b.size()) +
                  (m - static_cast<double>(transpositions) / 2.0) / m) /
                 3.0;
    RLBENCH_DCHECK_PROB(sim);
    return sim;
  }

  /// BIT-EXACT vs text::JaroWinklerSimilarity(a, b).
  double JaroWinkler(std::string_view a) const {
    double jaro = Jaro(a);
    size_t prefix = 0;
    size_t limit = std::min({a.size(), b_.size(), size_t{4}});
    while (prefix < limit && a[prefix] == b_[prefix]) ++prefix;
    return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
  }

 private:
  std::string_view b_;
  alignas(16) char padded_[kJaroMaskBytes];
};

}  // namespace

double JaroKernel(std::string_view a, std::string_view b) {
  return JaroTarget(b).Jaro(a);
}

double JaroWinklerKernel(std::string_view a, std::string_view b) {
  return JaroTarget(b).JaroWinkler(a);
}

double MongeElkanKernel(std::span<const std::string_view> a,
                        std::span<const std::string_view> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  RLBENCH_CHECK_LE(a.size(), kMongeElkanMaxTokens);
  RLBENCH_CHECK_LE(b.size(), kMongeElkanMaxTokens);
  // Jaro-Winkler(t, u) and (u, t) have the same bits (docs/kernels.md), so
  // one pass fills both directed sums: row maxima for a->b, column maxima
  // for b->a, each summed in its own token order like the reference.
  double row_max[kMongeElkanMaxTokens] = {};
  double b_to_a = 0.0;
  for (std::string_view u : b) {
    JaroTarget target(u);
    double col_max = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      double sim = target.JaroWinkler(a[i]);
      row_max[i] = std::max(row_max[i], sim);
      col_max = std::max(col_max, sim);
    }
    b_to_a += col_max;
  }
  double a_to_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) a_to_b += row_max[i];
  return 0.5 * (a_to_b / static_cast<double>(a.size()) +
                b_to_a / static_cast<double>(b.size()));
}

bool ParseNumeric(std::string_view value, double* out) {
  // Mirrors text::NumericSimilarity's parse step exactly: strip ASCII
  // whitespace, strtod over the whole remainder, reject inf/nan spellings.
  std::string buf(StripAscii(value));
  if (buf.empty()) return false;
  char* end = nullptr;
  double x = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(x)) return false;
  *out = x;
  return true;
}

double NumericFromParsed(bool ok_a, double x, bool ok_b, double y) {
  if (!ok_a || !ok_b) return 0.0;
  if (x == y) return 1.0;
  double denom = std::max(std::fabs(x), std::fabs(y));
  if (denom == 0.0) return 1.0;
  double sim = 1.0 - std::fabs(x - y) / denom;
  sim = std::max(0.0, sim);
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double ExactMatchLowered(std::string_view lowered_a,
                         std::string_view lowered_b) {
  return lowered_a == lowered_b ? 1.0 : 0.0;
}

double DotSpan(std::span<const float> a, std::span<const float> b) {
  RLBENCH_CHECK_EQ(a.size(), b.size());
  const float* pa = a.data();
  const float* pb = b.data();
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += double{pa[i]} * pb[i];
  return sum;
}

double DotBlocked(std::span<const float> a, std::span<const float> b) {
  RLBENCH_CHECK_EQ(a.size(), b.size());
  const float* pa = a.data();
  const float* pb = b.data();
  size_t n = a.size();
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += double{pa[i]} * pb[i];
    s1 += double{pa[i + 1]} * pb[i + 1];
    s2 += double{pa[i + 2]} * pb[i + 2];
    s3 += double{pa[i + 3]} * pb[i + 3];
  }
  for (; i < n; ++i) s0 += double{pa[i]} * pb[i];
  return (s0 + s1) + (s2 + s3);
}

double CosineSimilarity01Span(std::span<const float> a,
                              std::span<const float> b) {
  double na = std::sqrt(DotSpan(a, a));
  double nb = std::sqrt(DotSpan(b, b));
  double cosine = 0.0;
  if (na != 0.0 && nb != 0.0) {
    cosine = std::clamp(DotSpan(a, b) / (na * nb), -1.0, 1.0);
  }
  double sim = 0.5 * (1.0 + cosine);
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double EuclideanSimilaritySpan(std::span<const float> a,
                               std::span<const float> b) {
  RLBENCH_CHECK_EQ(a.size(), b.size());
  const float* pa = a.data();
  const float* pb = b.data();
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = double{pa[i]} - pb[i];
    sum += d * d;
  }
  double sim = 1.0 / (1.0 + std::sqrt(sum));
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double WassersteinFromSorted(std::span<const float> sorted_a,
                             std::span<const float> sorted_b) {
  RLBENCH_CHECK_EQ(sorted_a.size(), sorted_b.size());
  const float* pa = sorted_a.data();
  const float* pb = sorted_b.data();
  double w = 0.0;
  for (size_t i = 0; i < sorted_a.size(); ++i) {
    w += std::fabs(double{pa[i]} - pb[i]);
  }
  if (!sorted_a.empty()) w /= static_cast<double>(sorted_a.size());
  RLBENCH_DCHECK_FINITE(w);
  return 1.0 / (1.0 + w);
}

// The batched affines are register-blocked over 4 units: one pass over the
// input panel feeds 4 output rows, quartering the panel traffic (the panels
// are the memory-bound part — the weights are tiny). The __restrict__
// qualifiers assert no aliasing between the weight / input / output panels,
// which is what lets the compiler vectorize the r-loops (each acc[r] is an
// independent chain). Every output keeps its own single accumulator over
// ascending j, so blocking does not change a single bit.
//
// target_clones gives each affine an AVX2 variant (resolved once at load):
// the r-loop lanes are independent accumulators, so going from 2-wide SSE2
// to 4-wide AVX2 packs more of them per instruction without touching any
// accumulator's operation order. The clone enables AVX2 only — not FMA —
// so multiplies and adds stay separate and every output is still
// BIT-EXACT vs the scalar reference.
// TSan: target_clones emits ifunc resolvers that run during relocation,
// before the TSan runtime has initialized — large binaries crash at load.
// The sanitizer builds are correctness gates, not perf builds, so they
// take the plain (still vectorized) definitions instead.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define RLBENCH_AFFINE_TARGETS __attribute__((target_clones("avx2", "default")))
#else
#define RLBENCH_AFFINE_TARGETS
#endif

RLBENCH_AFFINE_TARGETS
void BatchedAffineF32(const double* __restrict__ w,
                      const double* __restrict__ bias, size_t units,
                      size_t dim, const float* __restrict__ xt, size_t batch,
                      double* __restrict__ out) {
  size_t i = 0;
  for (; i + 4 <= units; i += 4) {
    double* __restrict__ a0 = out + i * batch;
    double* __restrict__ a1 = out + (i + 1) * batch;
    double* __restrict__ a2 = out + (i + 2) * batch;
    double* __restrict__ a3 = out + (i + 3) * batch;
    for (size_t r = 0; r < batch; ++r) {
      a0[r] = bias[i];
      a1[r] = bias[i + 1];
      a2[r] = bias[i + 2];
      a3[r] = bias[i + 3];
    }
    const double* r0 = w + i * dim;
    const double* r1 = r0 + dim;
    const double* r2 = r1 + dim;
    const double* r3 = r2 + dim;
    for (size_t j = 0; j < dim; ++j) {
      double w0 = r0[j];
      double w1 = r1[j];
      double w2 = r2[j];
      double w3 = r3[j];
      const float* __restrict__ col = xt + j * batch;
      for (size_t r = 0; r < batch; ++r) {
        double c = col[r];
        a0[r] += w0 * c;
        a1[r] += w1 * c;
        a2[r] += w2 * c;
        a3[r] += w3 * c;
      }
    }
  }
  for (; i < units; ++i) {
    double* __restrict__ acc = out + i * batch;
    for (size_t r = 0; r < batch; ++r) acc[r] = bias[i];
    const double* row = w + i * dim;
    for (size_t j = 0; j < dim; ++j) {
      double wij = row[j];
      const float* __restrict__ col = xt + j * batch;
      for (size_t r = 0; r < batch; ++r) acc[r] += wij * col[r];
    }
  }
}

RLBENCH_AFFINE_TARGETS
void BatchedAffineF64(const double* __restrict__ w,
                      const double* __restrict__ bias, size_t units,
                      size_t dim, const double* __restrict__ xt, size_t batch,
                      double* __restrict__ out) {
  size_t i = 0;
  for (; i + 4 <= units; i += 4) {
    double* __restrict__ a0 = out + i * batch;
    double* __restrict__ a1 = out + (i + 1) * batch;
    double* __restrict__ a2 = out + (i + 2) * batch;
    double* __restrict__ a3 = out + (i + 3) * batch;
    for (size_t r = 0; r < batch; ++r) {
      a0[r] = bias[i];
      a1[r] = bias[i + 1];
      a2[r] = bias[i + 2];
      a3[r] = bias[i + 3];
    }
    const double* r0 = w + i * dim;
    const double* r1 = r0 + dim;
    const double* r2 = r1 + dim;
    const double* r3 = r2 + dim;
    for (size_t j = 0; j < dim; ++j) {
      double w0 = r0[j];
      double w1 = r1[j];
      double w2 = r2[j];
      double w3 = r3[j];
      const double* __restrict__ col = xt + j * batch;
      for (size_t r = 0; r < batch; ++r) {
        double c = col[r];
        a0[r] += w0 * c;
        a1[r] += w1 * c;
        a2[r] += w2 * c;
        a3[r] += w3 * c;
      }
    }
  }
  for (; i < units; ++i) {
    double* __restrict__ acc = out + i * batch;
    for (size_t r = 0; r < batch; ++r) acc[r] = bias[i];
    const double* row = w + i * dim;
    for (size_t j = 0; j < dim; ++j) {
      double wij = row[j];
      const double* __restrict__ col = xt + j * batch;
      for (size_t r = 0; r < batch; ++r) acc[r] += wij * col[r];
    }
  }
}

RLBENCH_AFFINE_TARGETS
void DualBatchedAffineF64(const double* __restrict__ w_a,
                          const double* __restrict__ bias_a,
                          const double* __restrict__ w_b,
                          const double* __restrict__ bias_b, size_t units,
                          size_t dim, const double* __restrict__ xt,
                          size_t batch, double* __restrict__ out_a,
                          double* __restrict__ out_b) {
  // 2 units of each affine per block: 4 accumulator streams against one
  // column stream, the same register budget as the 4-unit single kernel.
  size_t i = 0;
  for (; i + 2 <= units; i += 2) {
    double* __restrict__ a0 = out_a + i * batch;
    double* __restrict__ a1 = out_a + (i + 1) * batch;
    double* __restrict__ b0 = out_b + i * batch;
    double* __restrict__ b1 = out_b + (i + 1) * batch;
    for (size_t r = 0; r < batch; ++r) {
      a0[r] = bias_a[i];
      a1[r] = bias_a[i + 1];
      b0[r] = bias_b[i];
      b1[r] = bias_b[i + 1];
    }
    const double* ra0 = w_a + i * dim;
    const double* ra1 = ra0 + dim;
    const double* rb0 = w_b + i * dim;
    const double* rb1 = rb0 + dim;
    for (size_t j = 0; j < dim; ++j) {
      double wa0 = ra0[j];
      double wa1 = ra1[j];
      double wb0 = rb0[j];
      double wb1 = rb1[j];
      const double* __restrict__ col = xt + j * batch;
      for (size_t r = 0; r < batch; ++r) {
        double c = col[r];
        a0[r] += wa0 * c;
        a1[r] += wa1 * c;
        b0[r] += wb0 * c;
        b1[r] += wb1 * c;
      }
    }
  }
  for (; i < units; ++i) {
    double* __restrict__ a0 = out_a + i * batch;
    double* __restrict__ b0 = out_b + i * batch;
    for (size_t r = 0; r < batch; ++r) {
      a0[r] = bias_a[i];
      b0[r] = bias_b[i];
    }
    const double* ra0 = w_a + i * dim;
    const double* rb0 = w_b + i * dim;
    for (size_t j = 0; j < dim; ++j) {
      double wa0 = ra0[j];
      double wb0 = rb0[j];
      const double* __restrict__ col = xt + j * batch;
      for (size_t r = 0; r < batch; ++r) {
        double c = col[r];
        a0[r] += wa0 * c;
        b0[r] += wb0 * c;
      }
    }
  }
}

}  // namespace rlbench::text::kernels
