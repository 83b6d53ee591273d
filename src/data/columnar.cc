#include "data/columnar.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/kernels.h"
#include "text/qgrams.h"
#include "text/tokenizer.h"

namespace rlbench::data {

namespace {
// Records per chunk in the per-record passes: tokenizing or filling one
// record costs a few microseconds, so chunks this coarse keep dispatch
// overhead negligible.
constexpr size_t kBuildGrain = 64;
}  // namespace

void PackedMatrix::Reset(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0F);
  sorted_.clear();
  sorted_built_ = false;
}

std::span<const float> PackedMatrix::row(size_t r) const {
  RLBENCH_DCHECK_INDEX(r, rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<float> PackedMatrix::mutable_row(size_t r) {
  RLBENCH_DCHECK_INDEX(r, rows_);
  return {data_.data() + r * cols_, cols_};
}

void PackedMatrix::BuildSortedRows() {
  sorted_ = data_;
  ParallelFor(0, rows_, kBuildGrain, [this](size_t r) {
    float* begin = sorted_.data() + r * cols_;
    std::sort(begin, begin + cols_);
  });
  sorted_built_ = true;
}

std::span<const float> PackedMatrix::sorted_row(size_t r) const {
  RLBENCH_DCHECK(sorted_built_);
  RLBENCH_DCHECK_INDEX(r, rows_);
  return {sorted_.data() + r * cols_, cols_};
}

/// One record's tokens, made by the parallel tokenize pass and dropped once
/// the columns are filled.
struct ColumnarStore::RecordTokens {
  std::vector<std::vector<std::string>> seqs;  // text::Tokenize per attribute
  std::vector<text::TokenSet> sets;            // token set per attribute
  std::vector<uint64_t> all;  // union of `sets`: the all-attribute token set
};

namespace {

/// Runs body(r) for every record r in [0, n), in parallel — or serially when
/// the `data/columnar/build` failpoint fires (injected allocation pressure).
/// Each record writes only its own slot, so the bits are the same either
/// way; only the wall-clock changes.
template <typename Body>
void ForEachRecord(size_t n, const Body& body) {
  if (RLBENCH_FAULT_POINT("data/columnar/build")) {
    RLBENCH_COUNTER_INC("columnar/degraded_serial_builds");
    for (size_t r = 0; r < n; ++r) body(r);
    return;
  }
  ParallelFor(0, n, kBuildGrain, body);
}

}  // namespace

ColumnarStore::ColumnarStore(const Table& left, const Table& right)
    : tables_{&left, &right}, num_attrs_(left.schema().num_attributes()) {
  RLBENCH_TRACE_SPAN("data/columnar/build");
  RLBENCH_CHECK_EQ(num_attrs_, right.schema().num_attributes());
  std::array<std::vector<RecordTokens>, 2> tokens;
  {
    RLBENCH_TRACE_SPAN("data/columnar/tokenize");
    for (size_t side : {kLeft, kRight}) {
      const Table& table = *tables_[side];
      tokens[side].resize(table.size());
      ForEachRecord(table.size(), [&](size_t r) {
        const Record& row = table.record(r);
        RLBENCH_DCHECK_EQ(row.values.size(), num_attrs_);
        RecordTokens& out = tokens[side][r];
        out.seqs.reserve(num_attrs_);
        out.sets.reserve(num_attrs_);
        for (size_t a = 0; a < num_attrs_; ++a) {
          out.seqs.push_back(text::Tokenize(row.values[a]));
          out.sets.emplace_back(out.seqs.back());
          const auto& hashes = out.sets.back().hashes();
          out.all.insert(out.all.end(), hashes.begin(), hashes.end());
        }
        std::sort(out.all.begin(), out.all.end());
        out.all.erase(std::unique(out.all.begin(), out.all.end()),
                      out.all.end());
      });
    }
  }
  BuildVocab(tokens);
  BuildTokenColumns(kLeft, tokens[kLeft]);
  BuildTokenColumns(kRight, tokens[kRight]);
  RLBENCH_GAUGE_OBSERVE("columnar/vocab_size", vocab_.size());
  RLBENCH_COUNTER_ADD("columnar/token_ids", sides_[kLeft].ids_all.size() +
                                                sides_[kRight].ids_all.size());
}

void ColumnarStore::BuildVocab(
    const std::array<std::vector<RecordTokens>, 2>& tokens) {
  RLBENCH_TRACE_SPAN("data/columnar/vocab");
  size_t total = 0;
  for (const auto& side : tokens) {
    for (const RecordTokens& record : side) total += record.all.size();
  }
  vocab_.reserve(total);
  for (const auto& side : tokens) {
    for (const RecordTokens& record : side) {
      vocab_.insert(vocab_.end(), record.all.begin(), record.all.end());
    }
  }
  std::sort(vocab_.begin(), vocab_.end());
  vocab_.erase(std::unique(vocab_.begin(), vocab_.end()), vocab_.end());
  // Rank interning requires ids to fit uint32; a vocabulary past 4B unique
  // tokens is far outside any benchmark in this repo.
  RLBENCH_CHECK_LT(vocab_.size(), size_t{UINT32_MAX});
}

uint32_t ColumnarStore::IdOfHash(uint64_t hash) const {
  auto it = std::lower_bound(vocab_.begin(), vocab_.end(), hash);
  if (it == vocab_.end() || *it != hash) {
    return static_cast<uint32_t>(vocab_.size());
  }
  return static_cast<uint32_t>(it - vocab_.begin());
}

namespace {

/// Map a sorted unique hash array onto its vocabulary ranks. Monotone, so
/// the output is sorted unique too.
void MapHashesToIds(const std::vector<uint64_t>& hashes,
                    const std::vector<uint64_t>& vocab, uint32_t* out) {
  auto pos = vocab.begin();
  for (size_t i = 0; i < hashes.size(); ++i) {
    pos = std::lower_bound(pos, vocab.end(), hashes[i]);
    RLBENCH_DCHECK(pos != vocab.end() && *pos == hashes[i]);
    out[i] = static_cast<uint32_t>(pos - vocab.begin());
  }
}

}  // namespace

void ColumnarStore::BuildTokenColumns(size_t side,
                                      const std::vector<RecordTokens>& tokens) {
  RLBENCH_TRACE_SPAN("data/columnar/token_columns");
  const Table& table = *tables_[side];
  SideColumns& c = sides_[side];
  size_t n = table.size();
  size_t attrs = num_attrs_;
  c.records = n;

  // Sizing pass: every offset is fixed here, so the parallel fill below
  // writes disjoint, pre-addressed slices (bit-identical at any thread
  // count).
  c.ids_all_off.assign(n + 1, 0);
  c.ids_attr_off.assign(n * attrs + 1, 0);
  c.token_seq_off.assign(n * attrs + 1, 0);
  std::vector<size_t> token_byte_off(n * attrs + 1, 0);
  std::vector<size_t> lowered_off(n * attrs + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    c.ids_all_off[r + 1] = c.ids_all_off[r] + tokens[r].all.size();
    for (size_t a = 0; a < attrs; ++a) {
      size_t slot = r * attrs + a;
      c.ids_attr_off[slot + 1] =
          c.ids_attr_off[slot] + tokens[r].sets[a].size();
      const auto& seq = tokens[r].seqs[a];
      size_t bytes = 0;
      for (const auto& t : seq) bytes += t.size();
      c.token_seq_off[slot + 1] = c.token_seq_off[slot] + seq.size();
      token_byte_off[slot + 1] = token_byte_off[slot] + bytes;
      lowered_off[slot + 1] =
          lowered_off[slot] + table.record(r).values[a].size();
    }
  }

  c.ids_all.resize(c.ids_all_off[n]);
  c.ids_attr.resize(c.ids_attr_off[n * attrs]);
  c.token_views.resize(c.token_seq_off[n * attrs]);
  c.token_chars.resize(token_byte_off[n * attrs]);
  c.lowered_chars.resize(lowered_off[n * attrs]);
  c.lowered_views.resize(n * attrs);
  c.values.resize(n * attrs);
  c.numeric_ok.assign(n * attrs, 0);
  c.numeric_val.assign(n * attrs, 0.0);

  ParallelFor(0, n, kBuildGrain, [&](size_t r) {
    MapHashesToIds(tokens[r].all, vocab_, c.ids_all.data() + c.ids_all_off[r]);
    for (size_t a = 0; a < attrs; ++a) {
      size_t slot = r * attrs + a;
      MapHashesToIds(tokens[r].sets[a].hashes(), vocab_,
                     c.ids_attr.data() + c.ids_attr_off[slot]);
      const auto& seq = tokens[r].seqs[a];
      size_t byte_pos = token_byte_off[slot];
      for (size_t t = 0; t < seq.size(); ++t) {
        std::copy(seq[t].begin(), seq[t].end(),
                  c.token_chars.begin() + byte_pos);
        c.token_views[c.token_seq_off[slot] + t] =
            std::string_view(c.token_chars.data() + byte_pos, seq[t].size());
        byte_pos += seq[t].size();
      }
      const std::string& value = table.record(r).values[a];
      c.values[slot] = value;
      std::string lowered = ToLowerAscii(value);
      std::copy(lowered.begin(), lowered.end(),
                c.lowered_chars.begin() + lowered_off[slot]);
      c.lowered_views[slot] = std::string_view(
          c.lowered_chars.data() + lowered_off[slot], lowered.size());
      double parsed = 0.0;
      if (text::kernels::ParseNumeric(value, &parsed)) {
        c.numeric_ok[slot] = 1;
        c.numeric_val[slot] = parsed;
      }
    }
  });
}

void ColumnarStore::EnsureQGrams() const {
  if (qgrams_built_) return;
  RLBENCH_TRACE_SPAN("data/columnar/qgrams");
  BuildQGramColumns(kLeft);
  BuildQGramColumns(kRight);
  qgrams_built_ = true;
  RLBENCH_COUNTER_ADD("columnar/qgram_hashes",
                      sides_[kLeft].qgram_all.size() +
                          sides_[kRight].qgram_all.size());
}

void ColumnarStore::BuildQGramColumns(size_t side) const {
  const Table& table = *tables_[side];
  SideColumns& c = sides_[side];
  size_t n = c.records;
  size_t attrs = num_attrs_;

  // Per record, in pool slot order: the kNumQ schema-agnostic sets, then
  // kNumQ sets per attribute.
  std::vector<std::vector<text::TokenSet>> sets(n);
  ForEachRecord(n, [&](size_t r) {
    const Record& row = table.record(r);
    std::string all_text = row.ConcatenatedValues();
    if (all_text.size() > kQGramCharCap) all_text.resize(kQGramCharCap);
    std::vector<text::TokenSet>& out = sets[r];
    out.reserve((attrs + 1) * kNumQ);
    for (int q = kMinQ; q <= kMaxQ; ++q) {
      out.push_back(text::QGramSet(all_text, q));
    }
    for (size_t a = 0; a < attrs; ++a) {
      std::string_view value = row.values[a];
      for (int q = kMinQ; q <= kMaxQ; ++q) {
        out.push_back(text::QGramSet(value.substr(0, kQGramCharCap), q));
      }
    }
  });

  c.qgram_all_off.assign(n * kNumQ + 1, 0);
  c.qgram_attr_off.assign(n * attrs * kNumQ + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < kNumQ; ++k) {
      size_t slot = r * kNumQ + k;
      c.qgram_all_off[slot + 1] = c.qgram_all_off[slot] + sets[r][k].size();
    }
    for (size_t k = 0; k < attrs * kNumQ; ++k) {
      size_t slot = r * attrs * kNumQ + k;
      c.qgram_attr_off[slot + 1] =
          c.qgram_attr_off[slot] + sets[r][kNumQ + k].size();
    }
  }
  c.qgram_all.resize(c.qgram_all_off[n * kNumQ]);
  c.qgram_attr.resize(c.qgram_attr_off[n * attrs * kNumQ]);

  ParallelFor(0, n, kBuildGrain, [&](size_t r) {
    for (size_t k = 0; k < kNumQ; ++k) {
      const auto& hashes = sets[r][k].hashes();
      std::copy(hashes.begin(), hashes.end(),
                c.qgram_all.begin() + c.qgram_all_off[r * kNumQ + k]);
    }
    for (size_t k = 0; k < attrs * kNumQ; ++k) {
      const auto& hashes = sets[r][kNumQ + k].hashes();
      std::copy(hashes.begin(), hashes.end(),
                c.qgram_attr.begin() + c.qgram_attr_off[r * attrs * kNumQ + k]);
    }
  });
}

}  // namespace rlbench::data
