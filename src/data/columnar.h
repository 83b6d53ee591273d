// Structure-of-arrays feature store over one matching task's two tables:
// the only production representation of the per-record tokens and q-grams
// that the difficulty measures and every matcher read. The store tokenizes
// the Tables itself and lays the derived features out contiguously, so the
// extraction loops run the kernels in text/kernels.h without per-pair
// allocation or pointer chasing:
//
//   * Token ids — every distinct token hash across BOTH tables is interned
//     as its rank in the globally sorted unique hash vocabulary. The
//     mapping hash -> id is therefore a monotone bijection: a record's
//     sorted unique hash set maps to a sorted unique uint32 id array with
//     identical pairwise intersection counts, so set similarities over id
//     spans are bit-identical to the text::TokenSet scalar path at half the
//     memory bandwidth. Rank interning also makes ids independent of
//     record insertion order by construction.
//   * Per-record id arrays (schema-agnostic and per-attribute) live in two
//     contiguous pools addressed by offset indexes.
//   * Ordered token sequences are string_views into one packed character
//     arena per side, in (record, attribute) order, so a record's
//     all-attribute sequence (text::TokenizeAll of its values) is one span.
//   * Per-value derivations that a scalar path recomputes per PAIR are
//     hoisted to once per RECORD: lower-cased values (exact match),
//     strtod parses (numeric similarity).
//   * Q-gram sets (on demand, EnsureQGrams) are hashed straight from the
//     values, capped at kQGramCharCap characters, into contiguous sorted
//     pools of raw salted uint64 hashes — q-grams have no shared vocabulary
//     worth building.
//
// Build is deterministic at any thread count: a per-record pass tokenizes
// (or hashes q-grams) in parallel into per-record scratch, a serial sizing
// pass pins every offset, then a ParallelFor fills disjoint slices (the
// common/parallel.h contract). The `data/columnar/build` failpoint runs the
// per-record passes serially instead; the bits are the same. Oracle
// coverage: tests/data/columnar_test.cc checks every column against
// text::Tokenize / TokenSet / QGramSet over the raw values, and
// tests/text/kernels_differential_test.cc checks the features built on it.
#ifndef RLBENCH_SRC_DATA_COLUMNAR_H_
#define RLBENCH_SRC_DATA_COLUMNAR_H_

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "data/record.h"

namespace rlbench::data {

/// \brief Dense row-major float matrix with an optional per-row sorted
/// copy (the Wasserstein kernel consumes coordinate-sorted rows, so the
/// per-pair sort is paid once per record here).
class PackedMatrix {
 public:
  PackedMatrix() = default;

  /// Allocate rows x cols zeros; drops any previous contents.
  void Reset(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  std::span<const float> row(size_t r) const;
  std::span<float> mutable_row(size_t r);

  /// Fill the sorted-row shadow (each row's coordinates ascending).
  /// Call after the rows are final; parallel over rows, deterministic.
  void BuildSortedRows();
  bool sorted_built() const { return sorted_built_; }
  std::span<const float> sorted_row(size_t r) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
  std::vector<float> sorted_;
  bool sorted_built_ = false;
};

/// \brief Columnar token / q-gram / value columns over (left, right).
///
/// Threading contract: construction and EnsureQGrams() are single-caller
/// operations (internally parallel) that run outside parallel regions, and
/// EnsureQGrams() must run before any concurrent q-gram read. Every other
/// method is a read, safe from any number of threads.
class ColumnarStore {
 public:
  static constexpr size_t kLeft = 0;
  static constexpr size_t kRight = 1;
  static constexpr int kMinQ = 2;
  static constexpr int kMaxQ = 10;

  /// Characters of text considered when building q-gram sets; bounds the
  /// per-record memory on long-text datasets (q-gram sets grow linearly in
  /// text length and are kept for nine values of q).
  static constexpr size_t kQGramCharCap = 160;

  /// Tokenizes both tables and builds the token and value columns. Both
  /// tables must outlive the store (values are views into them, and
  /// EnsureQGrams reads them again).
  ColumnarStore(const Table& left, const Table& right);

  size_t num_attrs() const { return num_attrs_; }
  size_t num_records(size_t side) const;
  size_t vocab_size() const { return vocab_.size(); }

  /// Sorted unique token ids over all attribute values (schema-agnostic).
  std::span<const uint32_t> TokenIdsAll(size_t side, size_t record) const;

  /// Sorted unique token ids of one attribute value.
  std::span<const uint32_t> TokenIdsAttr(size_t side, size_t record,
                                         size_t attr) const;

  /// Ordered token sequence of one attribute (views into the token arena).
  std::span<const std::string_view> TokenSeqAttr(size_t side, size_t record,
                                                 size_t attr) const;

  /// Ordered token sequence over all attribute values: the per-attribute
  /// sequences concatenated in attribute order (text::TokenizeAll).
  std::span<const std::string_view> TokenSeqAll(size_t side,
                                                size_t record) const;

  /// Raw attribute value (view into the backing Table).
  std::string_view Value(size_t side, size_t record, size_t attr) const;

  /// Lower-cased attribute value (view into the lowered arena).
  std::string_view LoweredValue(size_t side, size_t record,
                                size_t attr) const;

  /// Result of the hoisted numeric parse of one attribute value.
  bool NumericOk(size_t side, size_t record, size_t attr) const;
  double NumericValue(size_t side, size_t record, size_t attr) const;

  /// Build the q-gram pools. Idempotent; see the threading contract above.
  void EnsureQGrams() const;

  /// Sorted unique q-gram hashes over the concatenated record text,
  /// q in [kMinQ, kMaxQ]. EnsureQGrams() must have run.
  std::span<const uint64_t> QGramAll(size_t side, size_t record, int q) const;

  /// Sorted unique q-gram hashes of one attribute value.
  std::span<const uint64_t> QGramAttr(size_t side, size_t record, size_t attr,
                                      int q) const;

  /// Rank of a token hash in the vocabulary, or vocab_size() when absent
  /// (test hook for the interning-stability property).
  uint32_t IdOfHash(uint64_t hash) const;

 private:
  static constexpr size_t kNumQ = kMaxQ - kMinQ + 1;

  struct SideColumns {
    size_t records = 0;
    // Schema-agnostic token ids: [ids_all_off[r], ids_all_off[r+1]).
    std::vector<uint32_t> ids_all;
    std::vector<size_t> ids_all_off;
    // Per-attribute token ids, slot r * num_attrs + a.
    std::vector<uint32_t> ids_attr;
    std::vector<size_t> ids_attr_off;
    // Ordered per-attribute token views into `token_chars`.
    std::vector<char> token_chars;
    std::vector<std::string_view> token_views;
    std::vector<size_t> token_seq_off;
    // Per-value columns, slot r * num_attrs + a.
    std::vector<std::string_view> values;
    std::vector<char> lowered_chars;
    std::vector<std::string_view> lowered_views;
    std::vector<uint8_t> numeric_ok;
    std::vector<double> numeric_val;
    // Q-gram pools (filled by EnsureQGrams). Schema-agnostic slot is
    // r * kNumQ + (q - kMinQ); per-attribute slot is
    // (r * num_attrs + a) * kNumQ + (q - kMinQ).
    std::vector<uint64_t> qgram_all;
    std::vector<size_t> qgram_all_off;
    std::vector<uint64_t> qgram_attr;
    std::vector<size_t> qgram_attr_off;
  };

  struct RecordTokens;

  void BuildVocab(const std::array<std::vector<RecordTokens>, 2>& tokens);
  void BuildTokenColumns(size_t side, const std::vector<RecordTokens>& tokens);
  void BuildQGramColumns(size_t side) const;

  const SideColumns& columns(size_t side) const;

  std::array<const Table*, 2> tables_;
  size_t num_attrs_ = 0;
  std::vector<uint64_t> vocab_;
  mutable std::array<SideColumns, 2> sides_;
  mutable bool qgrams_built_ = false;
};

// The accessors below are defined inline: the batch extraction loops call
// them once or more per (pair, attribute), so a cross-TU call per lookup
// would dominate the vectorized kernels they feed.

inline const ColumnarStore::SideColumns& ColumnarStore::columns(
    size_t side) const {
  RLBENCH_DCHECK_INDEX(side, sides_.size());
  return sides_[side];
}

inline size_t ColumnarStore::num_records(size_t side) const {
  return columns(side).records;
}

inline std::span<const uint32_t> ColumnarStore::TokenIdsAll(
    size_t side, size_t record) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  return {c.ids_all.data() + c.ids_all_off[record],
          c.ids_all_off[record + 1] - c.ids_all_off[record]};
}

inline std::span<const uint32_t> ColumnarStore::TokenIdsAttr(
    size_t side, size_t record, size_t attr) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK_INDEX(attr, num_attrs_);
  size_t slot = record * num_attrs_ + attr;
  return {c.ids_attr.data() + c.ids_attr_off[slot],
          c.ids_attr_off[slot + 1] - c.ids_attr_off[slot]};
}

inline std::span<const std::string_view> ColumnarStore::TokenSeqAttr(
    size_t side, size_t record, size_t attr) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK_INDEX(attr, num_attrs_);
  size_t slot = record * num_attrs_ + attr;
  return {c.token_views.data() + c.token_seq_off[slot],
          c.token_seq_off[slot + 1] - c.token_seq_off[slot]};
}

inline std::span<const std::string_view> ColumnarStore::TokenSeqAll(
    size_t side, size_t record) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  size_t first = c.token_seq_off[record * num_attrs_];
  return {c.token_views.data() + first,
          c.token_seq_off[(record + 1) * num_attrs_] - first};
}

inline std::string_view ColumnarStore::Value(size_t side, size_t record,
                                             size_t attr) const {
  const SideColumns& c = columns(side);
  return c.values[DcheckedIndex(record * num_attrs_ + attr,
                                c.values.size())];
}

inline std::string_view ColumnarStore::LoweredValue(size_t side, size_t record,
                                                    size_t attr) const {
  const SideColumns& c = columns(side);
  return c.lowered_views[DcheckedIndex(record * num_attrs_ + attr,
                                       c.lowered_views.size())];
}

inline bool ColumnarStore::NumericOk(size_t side, size_t record,
                                     size_t attr) const {
  const SideColumns& c = columns(side);
  return c.numeric_ok[DcheckedIndex(record * num_attrs_ + attr,
                                    c.numeric_ok.size())] != 0;
}

inline double ColumnarStore::NumericValue(size_t side, size_t record,
                                          size_t attr) const {
  const SideColumns& c = columns(side);
  return c.numeric_val[DcheckedIndex(record * num_attrs_ + attr,
                                     c.numeric_val.size())];
}

inline std::span<const uint64_t> ColumnarStore::QGramAll(size_t side,
                                                         size_t record,
                                                         int q) const {
  RLBENCH_DCHECK(qgrams_built_);
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK(q >= kMinQ && q <= kMaxQ);
  size_t slot = record * kNumQ + static_cast<size_t>(q - kMinQ);
  return {c.qgram_all.data() + c.qgram_all_off[slot],
          c.qgram_all_off[slot + 1] - c.qgram_all_off[slot]};
}

inline std::span<const uint64_t> ColumnarStore::QGramAttr(size_t side,
                                                          size_t record,
                                                          size_t attr,
                                                          int q) const {
  RLBENCH_DCHECK(qgrams_built_);
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK_INDEX(attr, num_attrs_);
  RLBENCH_DCHECK(q >= kMinQ && q <= kMaxQ);
  size_t slot = (record * num_attrs_ + attr) * kNumQ +
                static_cast<size_t>(q - kMinQ);
  return {c.qgram_attr.data() + c.qgram_attr_off[slot],
          c.qgram_attr_off[slot + 1] - c.qgram_attr_off[slot]};
}

}  // namespace rlbench::data

#endif  // RLBENCH_SRC_DATA_COLUMNAR_H_
