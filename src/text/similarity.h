// String and token-set similarity library. These are the building blocks of
// the degree-of-linearity measure (Algorithm 1), the ESDE feature vectors
// (Algorithm 2), and the Magellan-style feature extractor.
//
// All similarities return values in [0, 1], with 1 meaning identical.
#ifndef RLBENCH_SRC_TEXT_SIMILARITY_H_
#define RLBENCH_SRC_TEXT_SIMILARITY_H_

#include <string_view>

#include "text/tokenizer.h"

namespace rlbench::text {

// --- Token-set similarities (schema-agnostic core of the paper) ----------

/// Cosine similarity |A∩B| / sqrt(|A|·|B|); 0 when either set is empty.
double CosineSimilarity(const TokenSet& a, const TokenSet& b);

/// Jaccard similarity |A∩B| / |A∪B|; 0 when both sets are empty.
double JaccardSimilarity(const TokenSet& a, const TokenSet& b);

/// Dice similarity 2|A∩B| / (|A|+|B|); 0 when both sets are empty.
double DiceSimilarity(const TokenSet& a, const TokenSet& b);

/// Overlap coefficient |A∩B| / min(|A|,|B|); 0 when either set is empty.
double OverlapSimilarity(const TokenSet& a, const TokenSet& b);

/// Directed containment |A∩B| / |A|; 0 when A is empty. Asymmetric: how
/// much of A is covered by B (scalar reference for the containment kernel).
double ContainmentSimilarity(const TokenSet& a, const TokenSet& b);

// --- Edit-based string similarities (Magellan feature family) ------------

/// Levenshtein distance between two byte strings.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Normalised Levenshtein similarity: 1 - dist / max(|a|,|b|).
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity (matching windows + transpositions).
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with standard prefix scale 0.1 (max prefix 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Monge-Elkan: average over tokens of a of the best Jaro-Winkler match in
/// b's tokens. Asymmetric by definition; we return the symmetrised mean.
double MongeElkanSimilarity(const std::vector<std::string>& tokens_a,
                            const std::vector<std::string>& tokens_b);

/// Exact-match indicator after lower-casing: 1.0 or 0.0.
double ExactMatchSimilarity(std::string_view a, std::string_view b);

/// Similarity of two numeric strings: 1 - |x-y| / max(|x|,|y|); returns 0
/// when either string does not parse as a number, 1 when both are equal.
double NumericSimilarity(std::string_view a, std::string_view b);

}  // namespace rlbench::text

#endif  // RLBENCH_SRC_TEXT_SIMILARITY_H_
