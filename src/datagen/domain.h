// Per-domain synthetic entity generation.
//
// Every benchmark dataset in the paper comes from one of a handful of
// domains (bibliographic, consumer products, restaurants, songs, beers,
// movies, long-text company / product profiles). This module generates
// canonical entities per domain, organised in *families* of near-identical
// siblings (the raw material for hard negatives), and produces corrupted
// duplicates of a canonical record at a controllable noise level (the raw
// material for hard positives).
#ifndef RLBENCH_SRC_DATAGEN_DOMAIN_H_
#define RLBENCH_SRC_DATAGEN_DOMAIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "data/record.h"
#include "datagen/corruptor.h"
#include "datagen/vocab.h"

namespace rlbench::datagen {

/// Entity domains; one per benchmark origin in Tables III and V.
enum class Domain {
  kBibliographic,  // DBLP-ACM, DBLP-GoogleScholar
  kProduct,        // Walmart-Amazon, Amazon-Google
  kRestaurant,     // Fodors-Zagats
  kSong,           // iTunes-Amazon
  kBeer,           // BeerAdvo-RateBeer
  kMovie,          // IMDB / TMDB / TVDB pairs
  kCompanyText,    // Company (textual)
  kProductText,    // Abt-Buy (textual); keep last (DomainFromName scans to it)
};

const char* DomainName(Domain domain);

/// The domain whose DomainName() is `name`; nullopt for any other name.
std::optional<Domain> DomainFromName(std::string_view name);

/// \brief Deterministic generator of canonical entities for one domain.
class DomainGenerator {
 public:
  DomainGenerator(Domain domain, uint64_t seed);

  Domain domain() const { return domain_; }

  /// Full schema of the domain (specs may truncate to fewer attributes).
  const data::Schema& schema() const { return schema_; }

  /// Flags marking numeric attributes (perturbed, not edited, by noise).
  const std::vector<bool>& numeric_attrs() const { return numeric_attrs_; }

  /// Index of the title-like attribute (target of dirty injection).
  size_t title_attr() const { return 0; }

  /// Generate a family of `size` related canonical records: index 0 is the
  /// base entity, the rest are siblings sharing most surface tokens but
  /// differing in a critical detail (model code, track, year, ...).
  std::vector<data::Record> MakeFamily(size_t size);

  /// Generate one sibling of an existing canonical record: a different
  /// real-world entity that shares most surface tokens with it (hard
  /// negative material).
  data::Record MakeSibling(const data::Record& base);

  /// Produce a duplicate of the canonical record as the other source would
  /// describe it, with the given noise level in [0, 1]. Noise 0 yields a
  /// (near-)verbatim copy; 1 yields heavily corrupted records.
  data::Record MakeDuplicate(const data::Record& canonical, double noise);

 private:
  std::string Pick(Pool pool);
  std::vector<std::string> PickDistinct(Pool pool, size_t n);
  std::string PersonName();
  std::string Digits(size_t n);
  std::string ModelCode();
  /// Variant of `code` with one digit changed (sibling model numbers).
  std::string TweakCode(const std::string& code);

  data::Record MakeProduct();
  data::Record MakeProductSibling(const data::Record& base);
  data::Record MakeBibliographic();
  data::Record MakeBibliographicSibling(const data::Record& base);
  data::Record MakeRestaurant();
  data::Record MakeRestaurantSibling(const data::Record& base);
  data::Record MakeSong();
  data::Record MakeSongSibling(const data::Record& base);
  data::Record MakeBeer();
  data::Record MakeBeerSibling(const data::Record& base);
  data::Record MakeMovie();
  data::Record MakeMovieSibling(const data::Record& base);
  data::Record MakeCompanyText();
  data::Record MakeCompanyTextSibling(const data::Record& base);
  data::Record MakeProductText();
  data::Record MakeProductTextSibling(const data::Record& base);

  /// Duplicate generation for the long-text domains: token resampling that
  /// keeps the identifying core and a noise-controlled share of the rest.
  std::string ResampleText(const std::string& text, size_t core_tokens,
                           double noise, Pool filler_a, Pool filler_b);

  Domain domain_;
  data::Schema schema_;
  std::vector<bool> numeric_attrs_;
  Rng rng_;
};

/// Noise profile used by MakeDuplicate for token-attribute domains; exposed
/// for tests and for the ablation benches.
NoiseProfile DuplicateNoiseProfile(double noise);

}  // namespace rlbench::datagen

#endif  // RLBENCH_SRC_DATAGEN_DOMAIN_H_
