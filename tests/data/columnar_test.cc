// ColumnarStore invariants: every column the store builds from the two
// Tables must equal what the text:: scalar functions (Tokenize, TokenSet,
// QGramSet with the kQGramCharCap cap) give on the raw values, its
// interning must not depend on record insertion order, its build must be
// byte-identical at 1/2/7 threads and under the serial-degrade failpoint —
// the same contract tests/core/thread_invariance_test.cc pins for the
// measure pipeline — and concurrent reads must be race-free.
#include "data/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/strings.h"
#include "data/record.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"
#include "text/qgrams.h"
#include "text/tokenizer.h"

namespace rlbench::data {
namespace {

Table MakeLeft() {
  Table table("left", Schema({"title", "brand", "price"}));
  table.Add(Record{"l0", {"iPhone 14 Pro 128", "Apple", "999"}});
  table.Add(Record{"l1", {"Galaxy S22 Ultra", "Samsung", "1199.99"}});
  table.Add(Record{"l2", {"", "", ""}});  // fully empty record
  table.Add(Record{"l3", {"usb type c cable", "generic", "9 dollars"}});
  table.Add(Record{"l4", {"Café München 漢字", "ÜBER", "-3e2"}});
  // Longer than kQGramCharCap, alone and concatenated.
  std::string long_title;
  while (long_title.size() < 200) long_title += "Wireless Charger Pad ";
  table.Add(Record{"l5", {long_title, "Anker", "29.99"}});
  return table;
}

Table MakeRight() {
  Table table("right", Schema({"title", "brand", "price"}));
  table.Add(Record{"r0", {"iphone 14 pro", "apple", " 999 "}});
  table.Add(Record{"r1", {"pixel 7", "google", "599"}});
  table.Add(Record{"r2", {"galaxy s22", "samsung", "not a number"}});
  return table;
}

template <typename T>
std::vector<T> ToVector(std::span<const T> span) {
  return std::vector<T>(span.begin(), span.end());
}

std::vector<std::string> ToStrings(std::span<const std::string_view> seq) {
  return std::vector<std::string>(seq.begin(), seq.end());
}

// Token ids must be the ranks of exactly the scalar token set's hashes.
void ExpectIdsOf(const ColumnarStore& store, const text::TokenSet& set,
                 std::span<const uint32_t> ids) {
  ASSERT_EQ(ids.size(), set.size());
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(ids[k], store.IdOfHash(set.hashes()[k]));
  }
}

// The independent oracle: every column of `store` against the text::
// scalar functions applied to the raw values of (left, right). Builds the
// q-gram pools first.
void ExpectMatchesScalarOracle(const ColumnarStore& store, const Table& left,
                               const Table& right) {
  store.EnsureQGrams();
  const Table* tables[] = {&left, &right};
  std::vector<uint64_t> vocab;
  for (size_t side : {ColumnarStore::kLeft, ColumnarStore::kRight}) {
    const Table& table = *tables[side];
    ASSERT_EQ(store.num_records(side), table.size());
    for (size_t r = 0; r < table.size(); ++r) {
      SCOPED_TRACE("side " + std::to_string(side) + " record " +
                   std::to_string(r));
      const Record& row = table.record(r);
      std::vector<std::string> all = text::TokenizeAll(row.values);
      EXPECT_EQ(ToStrings(store.TokenSeqAll(side, r)), all);
      text::TokenSet all_set(all);
      ExpectIdsOf(store, all_set, store.TokenIdsAll(side, r));
      vocab.insert(vocab.end(), all_set.hashes().begin(),
                   all_set.hashes().end());
      for (size_t a = 0; a < store.num_attrs(); ++a) {
        const std::string& value = row.values[a];
        std::vector<std::string> tokens = text::Tokenize(value);
        EXPECT_EQ(ToStrings(store.TokenSeqAttr(side, r, a)), tokens);
        ExpectIdsOf(store, text::TokenSet(tokens),
                    store.TokenIdsAttr(side, r, a));
        EXPECT_EQ(store.Value(side, r, a), value);
        EXPECT_EQ(store.LoweredValue(side, r, a), ToLowerAscii(value));
      }
      std::string text = row.ConcatenatedValues();
      text.resize(std::min(text.size(), ColumnarStore::kQGramCharCap));
      for (int q = ColumnarStore::kMinQ; q <= ColumnarStore::kMaxQ; ++q) {
        EXPECT_EQ(ToVector(store.QGramAll(side, r, q)),
                  text::QGramSet(text, q).hashes())
            << "q " << q;
        for (size_t a = 0; a < store.num_attrs(); ++a) {
          std::string_view value = row.values[a];
          value = value.substr(0, ColumnarStore::kQGramCharCap);
          EXPECT_EQ(ToVector(store.QGramAttr(side, r, a, q)),
                    text::QGramSet(value, q).hashes())
              << "attr " << a << " q " << q;
        }
      }
    }
  }
  // The vocabulary is exactly the union of every record's token hashes, so
  // IdOfHash above is the rank among them.
  std::sort(vocab.begin(), vocab.end());
  vocab.erase(std::unique(vocab.begin(), vocab.end()), vocab.end());
  EXPECT_EQ(store.vocab_size(), vocab.size());
}

TEST(ColumnarStoreTest, HandBuiltTablesMatchScalarOracle) {
  Table left = MakeLeft();
  Table right = MakeRight();
  ColumnarStore store(left, right);
  ASSERT_EQ(store.num_attrs(), 3u);
  ExpectMatchesScalarOracle(store, left, right);
  // EnsureQGrams is idempotent: a second call leaves every column intact.
  ExpectMatchesScalarOracle(store, left, right);
}

TEST(ColumnarStoreTest, CatalogTaskMatchesScalarOracleAtAnyThreadCount) {
  // Abt-Buy carries long product descriptions, so the q-gram cap bites.
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Dt1"), 0.02);
  for (int threads : {1, 2, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetParallelThreads(threads);
    ColumnarStore store(task.left(), task.right());
    ExpectMatchesScalarOracle(store, task.left(), task.right());
  }
  SetParallelThreads(0);
}

TEST(ColumnarStoreTest, NumericColumnsMatchHoistedParse) {
  Table left = MakeLeft();
  Table right = MakeRight();
  ColumnarStore store(left, right);
  // "999" parses; " 999 " parses after the whitespace strip; "9 dollars",
  // "not a number" and "" do not.
  EXPECT_TRUE(store.NumericOk(ColumnarStore::kLeft, 0, 2));
  EXPECT_EQ(store.NumericValue(ColumnarStore::kLeft, 0, 2), 999.0);
  EXPECT_TRUE(store.NumericOk(ColumnarStore::kRight, 0, 2));
  EXPECT_EQ(store.NumericValue(ColumnarStore::kRight, 0, 2), 999.0);
  EXPECT_TRUE(store.NumericOk(ColumnarStore::kLeft, 4, 2));
  EXPECT_EQ(store.NumericValue(ColumnarStore::kLeft, 4, 2), -300.0);
  EXPECT_FALSE(store.NumericOk(ColumnarStore::kLeft, 3, 2));
  EXPECT_FALSE(store.NumericOk(ColumnarStore::kLeft, 2, 2));
  EXPECT_FALSE(store.NumericOk(ColumnarStore::kRight, 2, 2));
}

TEST(ColumnarStoreTest, InterningIsStableUnderInsertionOrder) {
  Table left = MakeLeft();
  Table right = MakeRight();
  ColumnarStore forward(left, right);

  // Same records, reversed insertion order on both sides.
  Table left_rev("left", Schema({"title", "brand", "price"}));
  for (size_t i = left.size(); i-- > 0;) left_rev.Add(left.record(i));
  Table right_rev("right", Schema({"title", "brand", "price"}));
  for (size_t i = right.size(); i-- > 0;) right_rev.Add(right.record(i));
  ColumnarStore reversed(left_rev, right_rev);

  ASSERT_EQ(forward.vocab_size(), reversed.vocab_size());
  // Every record's id array is identical wherever the record landed: ids
  // are ranks in the globally sorted vocabulary, not discovery order.
  for (size_t r = 0; r < left.size(); ++r) {
    auto a = forward.TokenIdsAll(ColumnarStore::kLeft, r);
    auto b = reversed.TokenIdsAll(ColumnarStore::kLeft, left.size() - 1 - r);
    ASSERT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
              std::vector<uint32_t>(b.begin(), b.end()));
  }
}

TEST(ColumnarStoreTest, BuildIsByteIdenticalAcrossThreadCounts) {
  Table left("left", Schema({"name", "desc"}));
  Table right("right", Schema({"name", "desc"}));
  for (size_t i = 0; i < 300; ++i) {
    std::string tag = std::to_string(i);
    left.Add(Record{"l" + tag,
                    {"product " + tag + " model x" + std::to_string(i % 13),
                     "series " + std::to_string(i % 7) + " rev " + tag}});
    right.Add(Record{"r" + tag,
                     {"product " + std::to_string(i % 17) + " model y" + tag,
                      "batch " + tag}});
  }

  auto fingerprint = [&](int threads, bool serial_fault) {
    SetParallelThreads(threads);
    if (serial_fault) {
      // The failpoint degrades the per-record passes to serial loops.
      EXPECT_TRUE(fault::SetSpec("seed=1;data/columnar/build=alloc:1").ok());
    }
    ColumnarStore store(left, right);
    store.EnsureQGrams();
    fault::Clear();
    // Serialize every column the kernels read into one byte-stable vector.
    std::vector<uint64_t> sink;
    for (size_t side : {ColumnarStore::kLeft, ColumnarStore::kRight}) {
      for (size_t r = 0; r < store.num_records(side); ++r) {
        for (uint32_t id : store.TokenIdsAll(side, r)) sink.push_back(id);
        for (size_t a = 0; a < store.num_attrs(); ++a) {
          for (uint32_t id : store.TokenIdsAttr(side, r, a)) {
            sink.push_back(id);
          }
          for (std::string_view token : store.TokenSeqAttr(side, r, a)) {
            sink.push_back(Fnv1a64(token));
          }
          sink.push_back(Fnv1a64(store.LoweredValue(side, r, a)));
          sink.push_back(store.NumericOk(side, r, a) ? 1 : 0);
          for (int q = ColumnarStore::kMinQ; q <= ColumnarStore::kMaxQ; ++q) {
            for (uint64_t h : store.QGramAttr(side, r, a, q)) sink.push_back(h);
          }
        }
        for (int q = ColumnarStore::kMinQ; q <= ColumnarStore::kMaxQ; ++q) {
          for (uint64_t h : store.QGramAll(side, r, q)) sink.push_back(h);
        }
      }
    }
    SetParallelThreads(0);
    return sink;
  };

  std::vector<uint64_t> at1 = fingerprint(1, false);
  EXPECT_EQ(fingerprint(2, false), at1);
  EXPECT_EQ(fingerprint(7, false), at1);
  EXPECT_EQ(fingerprint(7, true), at1);
}

TEST(ColumnarStoreTest, ConcurrentReadsAreStableAndRaceFree) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 0.5);
  ColumnarStore store(task.left(), task.right());
  store.EnsureQGrams();
  constexpr size_t kL = ColumnarStore::kLeft;
  constexpr size_t kR = ColumnarStore::kRight;
  std::vector<LabeledPair> pairs = task.AllPairs();
  // One digest per pair over every column kind the kernels read.
  auto digest = [&](const LabeledPair& p) {
    uint64_t h = 0;
    for (uint32_t id : store.TokenIdsAll(kL, p.left)) h = h * 31 + id;
    for (uint32_t id : store.TokenIdsAll(kR, p.right)) h = h * 31 + id;
    for (std::string_view t : store.TokenSeqAll(kL, p.left)) {
      h ^= Fnv1a64(t);
    }
    for (size_t a = 0; a < store.num_attrs(); ++a) {
      h ^= Fnv1a64(store.LoweredValue(kR, p.right, a));
      for (uint64_t g : store.QGramAttr(kL, p.left, a, 3)) h += g;
    }
    for (uint64_t g : store.QGramAll(kR, p.right, 2)) h += g;
    return h;
  };
  std::vector<uint64_t> expected(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) expected[i] = digest(pairs[i]);

  // Any number of threads may read the built store. Under TSan this is
  // the data-race check for the read phase.
  SetParallelThreads(7);
  for (int round = 0; round < 4; ++round) {
    std::vector<uint64_t> got(pairs.size());
    ParallelFor(0, pairs.size(), 8,
                [&](size_t i) { got[i] = digest(pairs[i]); });
    EXPECT_EQ(got, expected) << "round " << round;
  }
  SetParallelThreads(0);
}

}  // namespace
}  // namespace rlbench::data
