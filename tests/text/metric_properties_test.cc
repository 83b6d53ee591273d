// Metric-space property sweeps for the string distances: identity,
// symmetry and the triangle inequality for Levenshtein; boundedness and
// symmetry for the normalised similarities on random word pairs.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "text/similarity.h"

namespace rlbench::text {
namespace {

std::vector<std::string> RandomWords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> words;
  for (size_t i = 0; i < n; ++i) {
    size_t len = 1 + rng.Index(12);
    std::string w;
    for (size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
    }
    words.push_back(std::move(w));
  }
  return words;
}

TEST(LevenshteinPropertyTest, MetricAxioms) {
  auto words = RandomWords(12, 61);
  for (const auto& a : words) {
    EXPECT_EQ(LevenshteinDistance(a, a), 0u);
    for (const auto& b : words) {
      EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistance(b, a));
      for (const auto& c : words) {
        EXPECT_LE(LevenshteinDistance(a, c),
                  LevenshteinDistance(a, b) + LevenshteinDistance(b, c))
            << a << " " << b << " " << c;
      }
    }
  }
}

class StringSimilarityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StringSimilarityPropertyTest, BoundedSymmetricIdentity) {
  auto words = RandomWords(20, 100 + GetParam());
  using Fn = double (*)(std::string_view, std::string_view);
  Fn functions[] = {LevenshteinSimilarity, JaroSimilarity,
                    JaroWinklerSimilarity};
  for (Fn fn : functions) {
    for (const auto& a : words) {
      EXPECT_DOUBLE_EQ(fn(a, a), 1.0);
      for (const auto& b : words) {
        double ab = fn(a, b);
        EXPECT_GE(ab, 0.0);
        EXPECT_LE(ab, 1.0);
        EXPECT_NEAR(ab, fn(b, a), 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringSimilarityPropertyTest,
                         ::testing::Values(1, 2, 3));

TEST(SimilarityOrderingTest, TypoCloserThanRandom) {
  // A one-edit variant must score higher than an unrelated word under
  // every edit-aware similarity — the property the corruption model and
  // the q-gram matchers rely on.
  auto words = RandomWords(15, 77);
  Rng rng(78);
  size_t violations = 0;
  size_t checks = 0;
  for (const auto& w : words) {
    if (w.size() < 4) continue;
    std::string typo = w;
    typo[rng.Index(typo.size())] =
        static_cast<char>('a' + rng.UniformInt(0, 25));
    for (const auto& other : words) {
      if (other == w || other.size() < 2) continue;
      ++checks;
      if (LevenshteinSimilarity(w, typo) < LevenshteinSimilarity(w, other)) {
        ++violations;
      }
    }
  }
  ASSERT_GT(checks, 0u);
  EXPECT_LT(static_cast<double>(violations) / static_cast<double>(checks),
            0.05);
}

}  // namespace
}  // namespace rlbench::text
