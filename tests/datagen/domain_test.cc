#include "datagen/domain.h"

#include <gtest/gtest.h>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace rlbench::datagen {
namespace {

using text::TokenSet;

double RecordSim(const data::Record& a, const data::Record& b) {
  return text::JaccardSimilarity(TokenSet::FromText(a.ConcatenatedValues()),
                                 TokenSet::FromText(b.ConcatenatedValues()));
}

class DomainParamTest : public ::testing::TestWithParam<Domain> {};

TEST_P(DomainParamTest, SchemaAndValuesConsistent) {
  DomainGenerator generator(GetParam(), 42);
  EXPECT_GT(generator.schema().num_attributes(), 0u);
  EXPECT_EQ(generator.numeric_attrs().size(),
            generator.schema().num_attributes());
  auto family = generator.MakeFamily(3);
  ASSERT_EQ(family.size(), 3u);
  for (const auto& record : family) {
    EXPECT_EQ(record.values.size(), generator.schema().num_attributes());
    EXPECT_FALSE(record.ConcatenatedValues().empty());
  }
}

TEST_P(DomainParamTest, SiblingsShareSurfaceButDiffer) {
  DomainGenerator generator(GetParam(), 7);
  size_t closer = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    auto family = generator.MakeFamily(2);
    auto stranger = generator.MakeFamily(1)[0];
    // A sibling is a different entity...
    EXPECT_NE(family[0].values, family[1].values);
    // ...but shares more surface tokens than an unrelated entity, on
    // average (checked in aggregate: individual draws can collide).
    if (RecordSim(family[0], family[1]) >= RecordSim(family[0], stranger)) {
      ++closer;
    }
  }
  EXPECT_GT(closer, trials / 2);
}

TEST_P(DomainParamTest, DuplicateNoiseMonotone) {
  DomainGenerator generator(GetParam(), 11);
  double low_total = 0.0;
  double high_total = 0.0;
  for (int t = 0; t < 20; ++t) {
    auto base = generator.MakeFamily(1)[0];
    low_total += RecordSim(base, generator.MakeDuplicate(base, 0.05));
    high_total += RecordSim(base, generator.MakeDuplicate(base, 0.8));
  }
  EXPECT_GT(low_total, high_total + 1.0);  // clearly separated averages
}

TEST_P(DomainParamTest, ZeroNoiseDuplicateNearIdentical) {
  DomainGenerator generator(GetParam(), 13);
  auto base = generator.MakeFamily(1)[0];
  auto dup = generator.MakeDuplicate(base, 0.0);
  EXPECT_GT(RecordSim(base, dup), 0.95);
}

TEST_P(DomainParamTest, DeterministicForSeed) {
  DomainGenerator a(GetParam(), 99);
  DomainGenerator b(GetParam(), 99);
  EXPECT_EQ(a.MakeFamily(2)[1].values, b.MakeFamily(2)[1].values);
}

TEST_P(DomainParamTest, NameRoundTrips) {
  EXPECT_EQ(DomainFromName(DomainName(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, DomainParamTest,
    ::testing::Values(Domain::kBibliographic, Domain::kProduct,
                      Domain::kRestaurant, Domain::kSong, Domain::kBeer,
                      Domain::kMovie, Domain::kCompanyText,
                      Domain::kProductText),
    [](const ::testing::TestParamInfo<Domain>& info) {
      return DomainName(info.param);
    });

TEST(DomainTest, UnknownNameRejected) {
  EXPECT_EQ(DomainFromName("prodcut"), std::nullopt);
  EXPECT_EQ(DomainFromName(""), std::nullopt);
  EXPECT_EQ(DomainFromName("unknown"), std::nullopt);
  EXPECT_EQ(DomainFromName("Product"), std::nullopt);
}

TEST(DomainTest, ProductSiblingKeepsBrandChangesCode) {
  DomainGenerator generator(Domain::kProduct, 3);
  auto family = generator.MakeFamily(2);
  // brand attribute (index 2) shared; modelno (index 3) differs.
  EXPECT_EQ(family[0].values[2], family[1].values[2]);
  EXPECT_NE(family[0].values[3], family[1].values[3]);
  // The codes stay q-gram similar (one digit changed).
  EXPECT_EQ(family[0].values[3].size(), family[1].values[3].size());
}

TEST(DomainTest, CompanyTextHasCoreTokens) {
  DomainGenerator generator(Domain::kCompanyText, 5);
  auto record = generator.MakeFamily(1)[0];
  auto tokens = text::Tokenize(record.values[0]);
  EXPECT_GT(tokens.size(), 50u);
  // The duplicate must retain the identifying head tokens.
  auto dup = generator.MakeDuplicate(record, 0.9);
  auto dup_tokens = text::Tokenize(dup.values[0]);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(tokens[i], dup_tokens[i]);
}

}  // namespace
}  // namespace rlbench::datagen
