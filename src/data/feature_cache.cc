#include "data/feature_cache.h"

#include "data/columnar.h"
#include "obs/metrics.h"
#include "text/qgrams.h"

namespace rlbench::data {

namespace {
constexpr int kMinQ = ColumnarStore::kMinQ;
constexpr int kNumQ = ColumnarStore::kMaxQ - kMinQ + 1;
constexpr size_t kQGramCharCap = ColumnarStore::kQGramCharCap;
}  // namespace

RecordFeatureCache::RecordFeatureCache(const Table* table) : table_(table) {
  entries_.resize(table_->size());
  size_t num_attrs = table_->schema().num_attributes();
  for (auto& e : entries_) {
    e.token_set_attr.resize(num_attrs);
    e.tokens_attr.resize(num_attrs);
    e.qgrams_all.resize(kNumQ);
    e.qgrams_attr.resize(num_attrs * kNumQ);
  }
}

const std::vector<std::string>& RecordFeatureCache::Tokens(
    size_t record) const {
  Entry& e = entries_[record];
  if (!e.tokens) {
    RLBENCH_COUNTER_INC("feature_cache/misses");
    e.tokens = text::TokenizeAll(table_->record(record).values);
  } else {
    RLBENCH_COUNTER_INC("feature_cache/hits");
  }
  return *e.tokens;
}

const text::TokenSet& RecordFeatureCache::TokenSetAll(size_t record) const {
  Entry& e = entries_[record];
  if (!e.token_set_all) {
    RLBENCH_COUNTER_INC("feature_cache/misses");
    e.token_set_all = text::TokenSet(Tokens(record));
  } else {
    RLBENCH_COUNTER_INC("feature_cache/hits");
  }
  return *e.token_set_all;
}

const text::TokenSet& RecordFeatureCache::TokenSetAttr(size_t record,
                                                       size_t attr) const {
  Entry& e = entries_[record];
  if (!e.token_set_attr[attr]) {
    RLBENCH_COUNTER_INC("feature_cache/misses");
    e.token_set_attr[attr] = text::TokenSet(TokensAttr(record, attr));
  } else {
    RLBENCH_COUNTER_INC("feature_cache/hits");
  }
  return *e.token_set_attr[attr];
}

const std::vector<std::string>& RecordFeatureCache::TokensAttr(
    size_t record, size_t attr) const {
  Entry& e = entries_[record];
  if (!e.tokens_attr[attr]) {
    RLBENCH_COUNTER_INC("feature_cache/misses");
    e.tokens_attr[attr] = text::Tokenize(table_->record(record).values[attr]);
  } else {
    RLBENCH_COUNTER_INC("feature_cache/hits");
  }
  return *e.tokens_attr[attr];
}

const text::TokenSet& RecordFeatureCache::QGramSetAll(size_t record,
                                                      int q) const {
  Entry& e = entries_[record];
  auto& slot = e.qgrams_all[q - kMinQ];
  if (!slot) {
    RLBENCH_COUNTER_INC("feature_cache/misses");
    std::string text = table_->record(record).ConcatenatedValues();
    if (text.size() > kQGramCharCap) text.resize(kQGramCharCap);
    slot = text::QGramSet(text, q);
  } else {
    RLBENCH_COUNTER_INC("feature_cache/hits");
  }
  return *slot;
}

const text::TokenSet& RecordFeatureCache::QGramSetAttr(size_t record,
                                                       size_t attr,
                                                       int q) const {
  Entry& e = entries_[record];
  auto& slot = e.qgrams_attr[attr * kNumQ + (q - kMinQ)];
  if (!slot) {
    RLBENCH_COUNTER_INC("feature_cache/misses");
    std::string_view text = table_->record(record).values[attr];
    slot = text::QGramSet(text.substr(0, kQGramCharCap), q);
  } else {
    RLBENCH_COUNTER_INC("feature_cache/hits");
  }
  return *slot;
}

}  // namespace rlbench::data
