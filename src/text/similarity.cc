#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "common/strings.h"

namespace rlbench::text {

double CosineSimilarity(const TokenSet& a, const TokenSet& b) {
  if (a.empty() || b.empty()) return 0.0;
  double inter = static_cast<double>(a.IntersectionSize(b));
  double sim = inter / std::sqrt(static_cast<double>(a.size()) *
                                 static_cast<double>(b.size()));
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double JaccardSimilarity(const TokenSet& a, const TokenSet& b) {
  if (a.empty() && b.empty()) return 0.0;
  double inter = static_cast<double>(a.IntersectionSize(b));
  double uni = static_cast<double>(a.size() + b.size()) - inter;
  double sim = uni <= 0.0 ? 0.0 : inter / uni;
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double DiceSimilarity(const TokenSet& a, const TokenSet& b) {
  if (a.empty() && b.empty()) return 0.0;
  double inter = static_cast<double>(a.IntersectionSize(b));
  double sim = 2.0 * inter / static_cast<double>(a.size() + b.size());
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double OverlapSimilarity(const TokenSet& a, const TokenSet& b) {
  if (a.empty() || b.empty()) return 0.0;
  double inter = static_cast<double>(a.IntersectionSize(b));
  return inter / static_cast<double>(std::min(a.size(), b.size()));
}

double ContainmentSimilarity(const TokenSet& a, const TokenSet& b) {
  if (a.empty()) return 0.0;
  double inter = static_cast<double>(a.IntersectionSize(b));
  double sim = inter / static_cast<double>(a.size());
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> prev(a.size() + 1);
  std::vector<size_t> curr(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    curr[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, prev[i - 1] + cost});
    }
    std::swap(prev, curr);
  }
  return prev[a.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t longest = std::max(a.size(), b.size());
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  size_t window =
      std::max(a.size(), b.size()) / 2 == 0 ? 0
                                            : std::max(a.size(), b.size()) / 2 - 1;
  std::vector<bool> matched_a(a.size(), false);
  std::vector<bool> matched_b(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!matched_b[j] && a[i] == b[j]) {
        matched_a[i] = matched_b[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among the matched characters in order.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  double sim =
      (m / a.size() + m / b.size() + (m - transpositions / 2.0) / m) / 3.0;
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

double MongeElkanSimilarity(const std::vector<std::string>& tokens_a,
                            const std::vector<std::string>& tokens_b) {
  if (tokens_a.empty() && tokens_b.empty()) return 1.0;
  if (tokens_a.empty() || tokens_b.empty()) return 0.0;
  auto directed = [](const std::vector<std::string>& from,
                     const std::vector<std::string>& to) {
    double total = 0.0;
    for (const auto& t : from) {
      double best = 0.0;
      for (const auto& u : to) {
        best = std::max(best, JaroWinklerSimilarity(t, u));
      }
      total += best;
    }
    return total / static_cast<double>(from.size());
  };
  return 0.5 * (directed(tokens_a, tokens_b) + directed(tokens_b, tokens_a));
}

double ExactMatchSimilarity(std::string_view a, std::string_view b) {
  return ToLowerAscii(a) == ToLowerAscii(b) ? 1.0 : 0.0;
}

double NumericSimilarity(std::string_view a, std::string_view b) {
  auto parse = [](std::string_view s, double* out) {
    std::string buf(StripAscii(s));
    if (buf.empty()) return false;
    char* end = nullptr;
    *out = std::strtod(buf.c_str(), &end);
    return end == buf.c_str() + buf.size();
  };
  double x = 0.0;
  double y = 0.0;
  if (!parse(a, &x) || !parse(b, &y)) return 0.0;
  // strtod accepts "inf"/"nan" spellings; those are not numeric attribute
  // values, and letting them through would propagate NaN into the features.
  if (!std::isfinite(x) || !std::isfinite(y)) return 0.0;
  if (x == y) return 1.0;
  double denom = std::max(std::fabs(x), std::fabs(y));
  if (denom == 0.0) return 1.0;
  double sim = 1.0 - std::fabs(x - y) / denom;
  sim = std::max(0.0, sim);
  RLBENCH_DCHECK_PROB(sim);
  return sim;
}

}  // namespace rlbench::text
