// Row-oriented per-record text features over one table: the scalar
// reference that tests and benchmarks compare data::ColumnarStore (the
// production representation) against. Each accessor computes its value
// with the text:: scalar functions on first use and returns the memoised
// object afterwards. Single-threaded: the lazy fills are unsynchronised.
#ifndef RLBENCH_SRC_DATA_FEATURE_CACHE_H_
#define RLBENCH_SRC_DATA_FEATURE_CACHE_H_

#include <optional>
#include <string>
#include <vector>

#include "data/record.h"
#include "text/tokenizer.h"

namespace rlbench::data {

/// \brief Lazily memoised per-record text features over one table.
class RecordFeatureCache {
 public:
  explicit RecordFeatureCache(const Table* table);

  const Table& table() const { return *table_; }

  /// Lower-cased tokens of all attribute values, in order (schema-agnostic).
  const std::vector<std::string>& Tokens(size_t record) const;

  /// Deduplicated token set over all attribute values (schema-agnostic).
  const text::TokenSet& TokenSetAll(size_t record) const;

  /// Token set of one attribute value.
  const text::TokenSet& TokenSetAttr(size_t record, size_t attr) const;

  /// Tokens of one attribute value.
  const std::vector<std::string>& TokensAttr(size_t record, size_t attr) const;

  /// q-gram set over the concatenation of all attribute values, q in
  /// [ColumnarStore::kMinQ, ColumnarStore::kMaxQ], text capped at
  /// ColumnarStore::kQGramCharCap characters.
  const text::TokenSet& QGramSetAll(size_t record, int q) const;

  /// q-gram set of one attribute value (same q range and cap).
  const text::TokenSet& QGramSetAttr(size_t record, size_t attr, int q) const;

 private:
  struct Entry {
    std::optional<std::vector<std::string>> tokens;
    std::optional<text::TokenSet> token_set_all;
    std::vector<std::optional<text::TokenSet>> token_set_attr;
    std::vector<std::optional<std::vector<std::string>>> tokens_attr;
    // Indexed [q - kMinQ].
    std::vector<std::optional<text::TokenSet>> qgrams_all;
    // Indexed [attr * kNumQ + (q - kMinQ)].
    std::vector<std::optional<text::TokenSet>> qgrams_attr;
  };

  const Table* table_;
  mutable std::vector<Entry> entries_;
};

}  // namespace rlbench::data

#endif  // RLBENCH_SRC_DATA_FEATURE_CACHE_H_
