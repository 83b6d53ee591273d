// Differential harness for the vectorized kernels (ISSUE 7): every kernel
// in text/kernels.h is replayed against its retained scalar reference
// (text/similarity.h, embed/vector_ops.h, the per-row MLP in
// tests/ml/mlp_reference.h) over
// randomized corpora and adversarial inputs. BIT-EXACT kernels are held to
// exact double equality; the single TOLERANCE kernel (DotBlocked) is held
// to its documented 1e-6 relative bound. A final sweep re-runs the batch
// paths at 1/2/7 threads with the observability and fault gates toggled
// and asserts byte-identical output.
#include "text/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "data/feature_cache.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "embed/vector_ops.h"
#include "fault/failpoint.h"
#include "matchers/context.h"
#include "matchers/features.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "ml/mlp_reference.h"
#include "obs/metrics.h"
#include "text/qgrams.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace rlbench::text::kernels {
namespace {

constexpr uint64_t kBaseSeed = 0xD1FF5EED;

// Small vocabulary so random records overlap often enough to exercise the
// non-trivial intersection branches, not just the zero case.
std::string RandomToken(Rng& rng) {
  static const char* kWords[] = {"apple",  "galaxy", "pro",   "max",  "mini",
                                 "ultra",  "14",     "22",    "128",  "256",
                                 "black",  "silver", "phone", "case", "usb",
                                 "type",   "c",      "oled",  "hd",   "zzz"};
  return kWords[rng.Index(std::size(kWords))];
}

std::string RandomValue(Rng& rng, size_t max_tokens) {
  size_t n = rng.Index(max_tokens + 1);
  std::string value;
  for (size_t i = 0; i < n; ++i) {
    if (!value.empty()) value.push_back(' ');
    value += RandomToken(rng);
  }
  return value;
}

// Random byte string over letters/digits/punctuation/UTF-8 multibyte runs,
// for the edit-distance and Jaro kernels.
std::string RandomRawString(Rng& rng, size_t max_len) {
  static const std::string_view kPieces[] = {
      "a", "b", "c", "x", "1", "9", " ", "-", ".", "é", "ü", "ß", "漢", "字"};
  size_t n = rng.Index(max_len + 1);
  std::string s;
  while (s.size() < n) s += kPieces[rng.Index(std::size(kPieces))];
  return s;
}

// Rank-interned uint32 ids of a token set: the same construction
// ColumnarStore uses, reproduced locally so the kernel layer is tested
// without the store.
std::vector<std::vector<uint32_t>> InternToIds(
    const std::vector<TokenSet>& sets) {
  std::vector<uint64_t> vocab;
  for (const auto& set : sets) {
    vocab.insert(vocab.end(), set.hashes().begin(), set.hashes().end());
  }
  std::sort(vocab.begin(), vocab.end());
  vocab.erase(std::unique(vocab.begin(), vocab.end()), vocab.end());
  std::vector<std::vector<uint32_t>> ids(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    for (uint64_t hash : sets[i].hashes()) {
      auto it = std::lower_bound(vocab.begin(), vocab.end(), hash);
      ids[i].push_back(static_cast<uint32_t>(it - vocab.begin()));
    }
  }
  return ids;
}

TEST(KernelsDifferentialTest, SetKernelsMatchScalarOverRandomCorpus) {
  Rng rng(SplitSeed(kBaseSeed, 1));
  constexpr size_t kRecords = 160;  // 160*159/2 = 12720 pairs >= 10k
  std::vector<TokenSet> sets;
  sets.reserve(kRecords);
  // Adversarial shapes first: empty, single-token, all-identical tokens.
  sets.emplace_back(std::vector<std::string>{});
  sets.emplace_back(std::vector<std::string>{"apple"});
  sets.emplace_back(
      std::vector<std::string>{"apple", "apple", "apple", "apple"});
  while (sets.size() < kRecords) {
    sets.emplace_back(Tokenize(RandomValue(rng, 12)));
  }
  auto ids = InternToIds(sets);

  size_t pairs = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = i; j < sets.size(); ++j) {
      const TokenSet& a = sets[i];
      const TokenSet& b = sets[j];
      std::span<const uint32_t> ia = ids[i];
      std::span<const uint32_t> ib = ids[j];
      // Rank interning preserves intersection counts exactly.
      ASSERT_EQ(IntersectSortedU32(ia, ib), a.IntersectionSize(b));
      ASSERT_EQ(IntersectSortedU64(a.hashes(), b.hashes()),
                a.IntersectionSize(b));
      EXPECT_EQ(JaccardSortedU32(ia, ib), JaccardSimilarity(a, b));
      EXPECT_EQ(OverlapSortedU32(ia, ib), OverlapSimilarity(a, b));
      EXPECT_EQ(ContainmentSortedU32(ia, ib), ContainmentSimilarity(a, b));
      SetSims sims = SetFamilySortedU32(ia, ib);
      EXPECT_EQ(sims.cosine, CosineSimilarity(a, b));
      EXPECT_EQ(sims.dice, DiceSimilarity(a, b));
      EXPECT_EQ(sims.jaccard, JaccardSimilarity(a, b));
      SetSims sims64 = SetFamilySortedU64(a.hashes(), b.hashes());
      EXPECT_EQ(sims64.cosine, CosineSimilarity(a, b));
      EXPECT_EQ(sims64.jaccard, JaccardSimilarity(a, b));
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 10000u);
}

TEST(KernelsDifferentialTest, JaccardBatchMatchesPerPairKernel) {
  Rng rng(SplitSeed(kBaseSeed, 11));
  // Sizes straddle every internal dispatch boundary of the batched kernel
  // (0, the 8-lane register path, the 16-lane path, and the merge
  // fallback), ids include rank 0, and both sides take a turn being the
  // smaller set.
  constexpr size_t kSizes[] = {0, 1, 2, 7, 8, 9, 15, 16, 17, 25, 40};
  std::vector<std::vector<uint32_t>> sets;
  for (size_t n : kSizes) {
    for (int rep = 0; rep < 6; ++rep) {
      std::vector<uint32_t> ids;
      uint32_t next = rep < 3 ? 0 : static_cast<uint32_t>(rng.UniformInt(1, 50));
      for (size_t i = 0; i < n; ++i) {
        ids.push_back(next);
        next += static_cast<uint32_t>(rng.UniformInt(1, 4));
      }
      sets.push_back(std::move(ids));
    }
  }
  std::vector<U32SetPair> batch;
  std::vector<double> expected;
  for (const auto& a : sets) {
    for (const auto& b : sets) {
      batch.push_back({a.data(), b.data(), static_cast<uint32_t>(a.size()),
                       static_cast<uint32_t>(b.size())});
      expected.push_back(JaccardSortedU32(a, b));
    }
  }
  ASSERT_GE(batch.size(), 4000u);
  std::vector<double> out(batch.size(), -1.0);
  JaccardSortedU32Batch(batch.data(), batch.size(), out.data());
  ASSERT_EQ(out, expected);
}

TEST(KernelsDifferentialTest, SetFamilyMatchesScalarOverQGramSets) {
  Rng rng(SplitSeed(kBaseSeed, 2));
  std::vector<TokenSet> sets;
  sets.push_back(QGramSet("", 3));
  for (size_t i = 0; i < 60; ++i) {
    sets.push_back(QGramSet(RandomRawString(rng, 40), 2 + i % 3));
  }
  for (const auto& a : sets) {
    for (const auto& b : sets) {
      SetSims sims = SetFamilySortedU64(a.hashes(), b.hashes());
      EXPECT_EQ(sims.cosine, CosineSimilarity(a, b));
      EXPECT_EQ(sims.dice, DiceSimilarity(a, b));
      EXPECT_EQ(sims.jaccard, JaccardSimilarity(a, b));
    }
  }
}

TEST(KernelsDifferentialTest, LevenshteinBandedIsExactOverRandomPairs) {
  Rng rng(SplitSeed(kBaseSeed, 3));
  // Random pairs plus mutated near-duplicates (the band's sweet spot) and
  // lengths beyond kLevenshteinStackCap to exercise the scalar fallback.
  for (size_t iter = 0; iter < 4000; ++iter) {
    std::string a = RandomRawString(rng, iter % 7 == 0 ? 200 : 60);
    std::string b;
    if (rng.Bernoulli(0.5)) {
      b = a;  // mutate a few positions
      for (size_t m = 0; m < 3 && !b.empty(); ++m) {
        b[rng.Index(b.size())] = static_cast<char>('a' + rng.Index(26));
      }
    } else {
      b = RandomRawString(rng, 60);
    }
    ASSERT_EQ(LevenshteinBanded(a, b), LevenshteinDistance(a, b))
        << "a=\"" << a << "\" b=\"" << b << "\"";
    EXPECT_EQ(LevenshteinSimilarityBanded(a, b), LevenshteinSimilarity(a, b));
  }
}

TEST(KernelsDifferentialTest, LevenshteinBandedAdversarialCases) {
  const std::string_view cases[] = {
      "", "a", "aa", "ab", "abcabcabc", "café münchen straße 漢字",
      std::string_view("kitten"), std::string_view("sitting"),
  };
  std::string long_a(kLevenshteinStackCap + 40, 'x');
  std::string long_b = long_a;
  long_b[7] = 'y';
  for (auto a : cases) {
    for (auto b : cases) {
      EXPECT_EQ(LevenshteinBanded(a, b), LevenshteinDistance(a, b));
    }
  }
  EXPECT_EQ(LevenshteinBanded(long_a, long_b),
            LevenshteinDistance(long_a, long_b));
}

TEST(KernelsDifferentialTest, JaroFamilyMatchesScalar) {
  Rng rng(SplitSeed(kBaseSeed, 4));
  for (size_t iter = 0; iter < 6000; ++iter) {
    // Mostly short strings (the bitmask fast path); every 9th pair exceeds
    // 64 bytes to exercise the scalar fallback.
    std::string a = RandomRawString(rng, iter % 9 == 0 ? 90 : 40);
    std::string b = RandomRawString(rng, iter % 9 == 0 ? 90 : 40);
    EXPECT_EQ(JaroKernel(a, b), JaroSimilarity(a, b))
        << "a=\"" << a << "\" b=\"" << b << "\"";
    EXPECT_EQ(JaroWinklerKernel(a, b), JaroWinklerSimilarity(a, b));
  }
  EXPECT_EQ(JaroKernel("", ""), JaroSimilarity("", ""));
  EXPECT_EQ(JaroKernel("a", ""), JaroSimilarity("a", ""));
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The single-pass Monge-Elkan kernel scores Jaro-Winkler(t, u) once and
// uses it for (u, t) too. Exhaustive over every string of at most 6 chars
// over {a,b,c} (1,093 strings, ~1.2M ordered pairs): the kernel is
// symmetric bit for bit and equals the scalar reference in both orders.
TEST(KernelsDifferentialTest, JaroWinklerSymmetricOverAllShortStrings) {
  std::vector<std::string> strings = {""};
  for (size_t begin = 0, len = 1; len <= 6; ++len) {
    size_t end = strings.size();
    for (size_t s = begin; s < end; ++s) {
      for (char c : {'a', 'b', 'c'}) strings.push_back(strings[s] + c);
    }
    begin = end;
  }
  ASSERT_EQ(strings.size(), 1093u);
  size_t asymmetric = 0;
  size_t off_reference = 0;
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      uint64_t ab = Bits(JaroWinklerKernel(a, b));
      if (ab != Bits(JaroWinklerKernel(b, a))) {
        ADD_FAILURE_AT(__FILE__, __LINE__) << "asymmetric: " << a << " " << b;
        if (++asymmetric > 5) return;
      }
      if (ab != Bits(JaroWinklerSimilarity(a, b))) {
        ADD_FAILURE_AT(__FILE__, __LINE__) << "off reference: " << a << " "
                                           << b;
        if (++off_reference > 5) return;
      }
    }
  }
}

// Lengths on both sides of the 16-byte lanes and of the 64-bit masks (65
// takes the scalar fallback), over bytes >= 0x80 and embedded NULs: a NUL
// in `a` must never match the zero padding past the end of `b`.
TEST(KernelsDifferentialTest, JaroAtLaneAndMaskEdges) {
  Rng rng(SplitSeed(kBaseSeed, 12));
  constexpr size_t kLengths[] = {0,  1,  15, 16, 17, 31, 32,
                                 33, 47, 48, 49, 63, 64, 65};
  constexpr char kBytes[] = {'a', 'b', 'c', '\0', '\x80', '\xc3', '\xff'};
  auto random_bytes = [&](size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = kBytes[rng.Index(std::size(kBytes))];
    return s;
  };
  auto check = [](const std::string& a, const std::string& b) {
    ASSERT_EQ(Bits(JaroKernel(a, b)), Bits(JaroSimilarity(a, b)))
        << "|a|=" << a.size() << " |b|=" << b.size();
    ASSERT_EQ(Bits(JaroWinklerKernel(a, b)), Bits(JaroWinklerSimilarity(a, b)))
        << "|a|=" << a.size() << " |b|=" << b.size();
  };
  for (size_t la : kLengths) {
    for (size_t lb : kLengths) {
      for (int rep = 0; rep < 6; ++rep) {
        std::string a = random_bytes(la);
        std::string b = random_bytes(lb);
        check(a, b);
        // A near-copy: many in-window matches, a few transpositions.
        std::string near = a;
        for (size_t k = 0; k < 3 && !near.empty(); ++k) {
          std::swap(near[rng.Index(near.size())],
                    near[rng.Index(near.size())]);
        }
        check(a, near);
      }
      // b followed by NULs: every extra NUL of a faces b's padding.
      std::string b = random_bytes(lb);
      std::string padded = b + std::string(la > lb ? la - lb : 1, '\0');
      check(padded, b);
      check(b, padded);
    }
  }
}

// Token lists from a pool with repeats, 63/64/65/90-byte tokens (the last
// two take the scalar entry) and list sizes up to the kernel's cap.
TEST(KernelsDifferentialTest, MongeElkanMatchesScalar) {
  Rng rng(SplitSeed(kBaseSeed, 5));
  for (size_t iter = 0; iter < 1500; ++iter) {
    std::vector<std::string> ta = Tokenize(RandomValue(rng, 8));
    std::vector<std::string> tb = Tokenize(RandomValue(rng, 8));
    std::vector<std::string_view> va(ta.begin(), ta.end());
    std::vector<std::string_view> vb(tb.begin(), tb.end());
    EXPECT_EQ(MongeElkanKernel(va, vb), MongeElkanSimilarity(ta, tb));
  }
  std::vector<std::string> pool;
  for (size_t len : {63u, 64u, 65u, 90u}) {
    for (int rep = 0; rep < 3; ++rep) {
      std::string s;
      while (s.size() < len) s += RandomRawString(rng, 8);
      s.resize(len);
      pool.push_back(s);
    }
  }
  for (int rep = 0; rep < 24; ++rep) pool.push_back(RandomToken(rng));
  constexpr size_t kSizes[] = {1, 2, 12, 13, 33, kMongeElkanMaxTokens};
  for (size_t na : kSizes) {
    for (size_t nb : kSizes) {
      std::vector<std::string> ta;
      std::vector<std::string> tb;
      for (size_t i = 0; i < na; ++i) ta.push_back(pool[rng.Index(pool.size())]);
      for (size_t i = 0; i < nb; ++i) tb.push_back(pool[rng.Index(pool.size())]);
      std::vector<std::string_view> va(ta.begin(), ta.end());
      std::vector<std::string_view> vb(tb.begin(), tb.end());
      ASSERT_EQ(Bits(MongeElkanKernel(va, vb)),
                Bits(MongeElkanSimilarity(ta, tb)))
          << na << "x" << nb;
      ASSERT_EQ(Bits(MongeElkanKernel(vb, va)),
                Bits(MongeElkanSimilarity(tb, ta)))
          << nb << "x" << na;
    }
  }
}

TEST(KernelsDifferentialTest, NumericAndExactMatchKernelsMatchScalar) {
  Rng rng(SplitSeed(kBaseSeed, 6));
  std::vector<std::string> values = {"", "  ", "12", "12.5", "-3e2", "nan",
                                     "inf", "0", "12 units", "x12", "1e400"};
  for (size_t i = 0; i < 400; ++i) {
    values.push_back(std::to_string(rng.Uniform(-1e6, 1e6)));
    values.push_back(RandomValue(rng, 3));
  }
  for (const auto& a : values) {
    for (const auto& b : values) {
      double xa = 0.0, xb = 0.0;
      bool oka = ParseNumeric(a, &xa);
      bool okb = ParseNumeric(b, &xb);
      EXPECT_EQ(NumericFromParsed(oka, xa, okb, xb), NumericSimilarity(a, b))
          << "a=\"" << a << "\" b=\"" << b << "\"";
      EXPECT_EQ(ExactMatchLowered(ToLowerAscii(a), ToLowerAscii(b)),
                ExactMatchSimilarity(a, b));
    }
  }
}

embed::Vec RandomVec(Rng& rng, size_t dim) {
  embed::Vec v(dim);
  for (float& x : v) x = static_cast<float>(rng.Gaussian());
  return v;
}

TEST(KernelsDifferentialTest, DenseFloatKernelsMatchEmbedOps) {
  Rng rng(SplitSeed(kBaseSeed, 7));
  for (size_t iter = 0; iter < 800; ++iter) {
    size_t dim = 1 + rng.Index(100);
    embed::Vec a = RandomVec(rng, dim);
    embed::Vec b = RandomVec(rng, dim);
    EXPECT_EQ(DotSpan(a, b), embed::Dot(a, b));
    EXPECT_EQ(CosineSimilarity01Span(a, b), embed::CosineSimilarity01(a, b));
    EXPECT_EQ(EuclideanSimilaritySpan(a, b), embed::EuclideanSimilarity(a, b));
    embed::Vec sa = a, sb = b;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(WassersteinFromSorted(sa, sb), embed::WassersteinSimilarity(a, b));
  }
  embed::Vec empty;
  EXPECT_EQ(DotSpan(empty, empty), embed::Dot(empty, empty));
}

TEST(KernelsDifferentialTest, DotBlockedWithinDocumentedTolerance) {
  Rng rng(SplitSeed(kBaseSeed, 8));
  for (size_t iter = 0; iter < 500; ++iter) {
    size_t dim = 1 + rng.Index(300);
    embed::Vec a = RandomVec(rng, dim);
    embed::Vec b = RandomVec(rng, dim);
    double exact = DotSpan(a, b);
    double blocked = DotBlocked(a, b);
    double scale = std::max(1.0, std::abs(exact));
    EXPECT_NEAR(blocked, exact, 1e-6 * scale);
  }
}

TEST(KernelsDifferentialTest, BatchedAffineMatchesPerRowAccumulation) {
  Rng rng(SplitSeed(kBaseSeed, 9));
  for (size_t units : {1u, 3u, 32u}) {
    for (size_t dim : {1u, 7u, 64u}) {
      for (size_t batch : {1u, 5u, 256u}) {
        std::vector<double> w(units * dim), bias(units);
        for (double& x : w) x = rng.Gaussian();
        for (double& x : bias) x = rng.Gaussian();
        std::vector<float> xt32(dim * batch);
        std::vector<double> xt64(dim * batch);
        for (size_t i = 0; i < dim * batch; ++i) {
          xt32[i] = static_cast<float>(rng.Gaussian());
          xt64[i] = rng.Gaussian();
        }
        std::vector<double> out32(units * batch), out64(units * batch);
        BatchedAffineF32(w.data(), bias.data(), units, dim, xt32.data(), batch,
                         out32.data());
        BatchedAffineF64(w.data(), bias.data(), units, dim, xt64.data(), batch,
                         out64.data());
        // Per-row reference: the exact loop of the per-row MLP forward pass
        // (tests/ml/mlp_reference.h).
        for (size_t r = 0; r < batch; ++r) {
          for (size_t i = 0; i < units; ++i) {
            double s32 = bias[i];
            double s64 = bias[i];
            for (size_t j = 0; j < dim; ++j) {
              s32 += w[i * dim + j] * xt32[j * batch + r];
              s64 += w[i * dim + j] * xt64[j * batch + r];
            }
            ASSERT_EQ(out32[i * batch + r], s32);
            ASSERT_EQ(out64[i * batch + r], s64);
          }
        }
        // The fused dual kernel must reproduce two single calls bit for
        // bit (second affine: shuffled weights over the same input).
        std::vector<double> w_b(w.rbegin(), w.rend());
        std::vector<double> bias_b(bias.rbegin(), bias.rend());
        std::vector<double> single_b(units * batch);
        std::vector<double> dual_a(units * batch), dual_b(units * batch);
        BatchedAffineF64(w_b.data(), bias_b.data(), units, dim, xt64.data(),
                         batch, single_b.data());
        DualBatchedAffineF64(w.data(), bias.data(), w_b.data(), bias_b.data(),
                             units, dim, xt64.data(), batch, dual_a.data(),
                             dual_b.data());
        ASSERT_EQ(dual_a, out64);
        ASSERT_EQ(dual_b, single_b);
      }
    }
  }
}

ml::Dataset RandomDataset(Rng& rng, size_t rows, size_t dim) {
  ml::Dataset data(dim);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<float> row(dim);
    for (float& x : row) x = static_cast<float>(rng.Gaussian());
    data.Add(row, rng.Bernoulli(0.4));
  }
  return data;
}

TEST(KernelsDifferentialTest, MlpBatchScoresBitIdenticalToPerRow) {
  Rng rng(SplitSeed(kBaseSeed, 10));
  ml::MlpOptions options;
  options.epochs = 3;
  options.hidden = 16;
  ml::Mlp mlp(options);
  ml::testing::ReferenceMlp reference(options);
  ml::Dataset train = RandomDataset(rng, 300, 12);
  ml::Dataset valid = RandomDataset(rng, 60, 12);
  mlp.Fit(train, valid);
  reference.Fit(train, valid);
  // 600 rows spans multiple panels including a ragged tail. The per-row
  // oracle is the reference's row-at-a-time forward pass.
  ml::Dataset test = RandomDataset(rng, 600, 12);
  std::vector<double> batch(test.size());
  mlp.PredictScoresBatch(test, batch);
  for (size_t i = 0; i < test.size(); ++i) {
    ASSERT_EQ(batch[i], reference.PredictScore(test.row(i))) << "row " << i;
    ASSERT_EQ(mlp.PredictScore(test.row(i)), batch[i]) << "row " << i;
  }
}

std::string_view Truncated(const std::string& value, size_t max_chars) {
  return std::string_view(value).substr(0, max_chars);
}

std::vector<std::string> CapTokens(const std::vector<std::string>& tokens,
                                   size_t max_tokens) {
  if (tokens.size() <= max_tokens) return tokens;
  return std::vector<std::string>(tokens.begin(), tokens.begin() + max_tokens);
}

// The oracle for matchers::MagellanFeaturesColumnar: the same six features
// per attribute computed row by row with the text/similarity.h scalar
// references over the row cache's token sets and the raw values.
std::vector<float> MagellanFeatures(const data::RecordFeatureCache& left,
                                    const data::RecordFeatureCache& right,
                                    const data::LabeledPair& pair) {
  const data::Record& l = left.table().record(pair.left);
  const data::Record& r = right.table().record(pair.right);
  size_t num_attrs = left.table().schema().num_attributes();
  constexpr size_t kChars = matchers::kMaxCharsForEditSims;

  std::vector<float> features;
  features.reserve(num_attrs * matchers::kMagellanFeaturesPerAttr);
  for (size_t a = 0; a < num_attrs; ++a) {
    const std::string& lv = l.values[a];
    const std::string& rv = r.values[a];
    features.push_back(static_cast<float>(text::JaccardSimilarity(
        left.TokenSetAttr(pair.left, a), right.TokenSetAttr(pair.right, a))));
    features.push_back(static_cast<float>(text::LevenshteinSimilarity(
        Truncated(lv, kChars), Truncated(rv, kChars))));
    features.push_back(static_cast<float>(text::JaroWinklerSimilarity(
        Truncated(lv, kChars), Truncated(rv, kChars))));
    features.push_back(static_cast<float>(text::MongeElkanSimilarity(
        CapTokens(left.TokensAttr(pair.left, a),
                  matchers::kMaxTokensForMongeElkan),
        CapTokens(right.TokensAttr(pair.right, a),
                  matchers::kMaxTokensForMongeElkan))));
    features.push_back(static_cast<float>(text::NumericSimilarity(lv, rv)));
    features.push_back(static_cast<float>(text::ExactMatchSimilarity(lv, rv)));
  }
  return features;
}

// End-to-end: the columnar Magellan extraction must be bit-identical to the
// row-oriented oracle, at every thread count, with the observability and
// fault gates on or off.
TEST(KernelsDifferentialTest, ColumnarFeaturesInvariantAcrossThreadsAndGates) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 0.5);
  data::RecordFeatureCache left_cache(&task.left());
  data::RecordFeatureCache right_cache(&task.right());

  auto extract = [&]() {
    matchers::MatchingContext context(&task);
    size_t dim = task.left().schema().num_attributes() *
                 matchers::kMagellanFeaturesPerAttr;
    std::vector<float> rows;
    rows.reserve(task.train().size() * dim);
    for (const auto& pair : task.train()) {
      std::vector<float> row(dim);
      matchers::MagellanFeaturesColumnar(context.columnar(), pair, row);
      auto reference = MagellanFeatures(left_cache, right_cache, pair);
      for (size_t f = 0; f < dim; ++f) {
        EXPECT_EQ(row[f], reference[f]) << "feature " << f;
      }
      rows.insert(rows.end(), row.begin(), row.end());
    }
    return rows;
  };

  std::vector<float> baseline = extract();
  struct Config {
    int threads;
    bool metrics;
    bool faults;
  };
  const Config configs[] = {
      {1, false, false}, {2, true, false}, {7, false, true}, {7, true, true}};
  for (const Config& config : configs) {
    SetParallelThreads(config.threads);
    obs::Metrics::Instance().ResetAll();
    obs::Metrics::SetEnabled(config.metrics);
    if (config.faults) {
      // Degrades the columnar store's build to serial; values must not move.
      ASSERT_TRUE(fault::SetSpec("seed=7;data/columnar/build=alloc:1").ok());
    }
    std::vector<float> got = extract();
    if (config.faults && config.metrics) {
      EXPECT_GT(obs::Metrics::Instance()
                    .GetCounter("columnar/degraded_serial_builds")
                    .Value(),
                0U);
    }
    fault::Clear();
    obs::Metrics::SetEnabled(false);
    SetParallelThreads(0);
    ASSERT_EQ(got.size(), baseline.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], baseline[i])
          << "threads=" << config.threads << " metrics=" << config.metrics
          << " faults=" << config.faults << " slot " << i;
    }
  }
}

}  // namespace
}  // namespace rlbench::text::kernels
