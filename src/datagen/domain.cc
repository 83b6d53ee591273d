#include "datagen/domain.h"

#include <algorithm>

#include "common/strings.h"
#include "text/tokenizer.h"

namespace rlbench::datagen {

const char* DomainName(Domain domain) {
  switch (domain) {
    case Domain::kBibliographic:
      return "bibliographic";
    case Domain::kProduct:
      return "product";
    case Domain::kRestaurant:
      return "restaurant";
    case Domain::kSong:
      return "song";
    case Domain::kBeer:
      return "beer";
    case Domain::kMovie:
      return "movie";
    case Domain::kCompanyText:
      return "company_text";
    case Domain::kProductText:
      return "product_text";
  }
  return "unknown";
}

std::optional<Domain> DomainFromName(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(Domain::kProductText); ++i) {
    auto domain = static_cast<Domain>(i);
    if (name == DomainName(domain)) return domain;
  }
  return std::nullopt;
}

namespace {

data::Schema SchemaFor(Domain domain) {
  switch (domain) {
    case Domain::kBibliographic:
      return data::Schema({"title", "authors", "venue", "year"});
    case Domain::kProduct:
      return data::Schema(
          {"title", "category", "brand", "modelno", "price", "color"});
    case Domain::kRestaurant:
      return data::Schema({"name", "addr", "city", "phone", "type", "class"});
    case Domain::kSong:
      return data::Schema({"song_name", "artist_name", "album_name", "genre",
                           "price", "copyright", "time", "released"});
    case Domain::kBeer:
      return data::Schema(
          {"beer_name", "brew_factory_name", "style", "abv"});
    case Domain::kMovie:
      return data::Schema(
          {"title", "director", "actors", "year", "genre", "duration"});
    case Domain::kCompanyText:
      return data::Schema({"content"});
    case Domain::kProductText:
      return data::Schema({"name", "description", "price"});
  }
  return data::Schema();
}

std::vector<bool> NumericAttrsFor(Domain domain) {
  switch (domain) {
    case Domain::kBibliographic:
      return {false, false, false, true};
    case Domain::kProduct:
      return {false, false, false, false, true, false};
    case Domain::kRestaurant:
      return {false, false, false, false, false, true};
    case Domain::kSong:
      return {false, false, false, false, true, true, false, false};
    case Domain::kBeer:
      return {false, false, false, true};
    case Domain::kMovie:
      return {false, false, false, true, false, true};
    case Domain::kCompanyText:
      return {false};
    case Domain::kProductText:
      return {false, false, true};
  }
  return {};
}

}  // namespace

NoiseProfile DuplicateNoiseProfile(double noise) {
  NoiseProfile profile;
  profile.typo_rate = 0.25 * noise;
  profile.token_drop_rate = 0.20 * noise;
  profile.abbrev_rate = 0.15 * noise;
  profile.reorder_rate = 0.30 * noise;
  profile.value_drop_rate = 0.25 * noise;
  profile.number_noise = 0.20 * noise;
  profile.misplace_rate = 0.15 * noise;
  return profile;
}

DomainGenerator::DomainGenerator(Domain domain, uint64_t seed)
    : domain_(domain),
      schema_(SchemaFor(domain)),
      numeric_attrs_(NumericAttrsFor(domain)),
      rng_(seed) {}

std::string DomainGenerator::Pick(Pool pool) {
  auto words = Words(pool);
  return std::string(words[rng_.Index(words.size())]);
}

std::vector<std::string> DomainGenerator::PickDistinct(Pool pool, size_t n) {
  auto words = Words(pool);
  auto indices = rng_.SampleIndices(words.size(), n);
  std::vector<std::string> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.emplace_back(words[i]);
  return out;
}

std::string DomainGenerator::PersonName() {
  return Pick(Pool::kFirstNames) + " " + Pick(Pool::kLastNames);
}

std::string DomainGenerator::Digits(size_t n) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>('0' + rng_.UniformInt(0, 9)));
  }
  return out;
}

std::string DomainGenerator::ModelCode() {
  std::string out;
  out.push_back(static_cast<char>('a' + rng_.UniformInt(0, 25)));
  out.push_back(static_cast<char>('a' + rng_.UniformInt(0, 25)));
  out.append(Digits(3));
  return out;
}

std::string DomainGenerator::TweakCode(const std::string& code) {
  std::string out = code;
  // Change exactly one digit so sibling codes stay q-gram-similar.
  std::vector<size_t> digit_positions;
  for (size_t i = 0; i < out.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(out[i]))) {
      digit_positions.push_back(i);
    }
  }
  if (digit_positions.empty()) return out + "2";
  size_t pos = digit_positions[rng_.Index(digit_positions.size())];
  char original = out[pos];
  char replacement = original;
  while (replacement == original) {
    replacement = static_cast<char>('0' + rng_.UniformInt(0, 9));
  }
  out[pos] = replacement;
  return out;
}

std::vector<data::Record> DomainGenerator::MakeFamily(size_t size) {
  std::vector<data::Record> family;
  family.reserve(size);
  data::Record base;
  switch (domain_) {
    case Domain::kProduct:
      base = MakeProduct();
      break;
    case Domain::kBibliographic:
      base = MakeBibliographic();
      break;
    case Domain::kRestaurant:
      base = MakeRestaurant();
      break;
    case Domain::kSong:
      base = MakeSong();
      break;
    case Domain::kBeer:
      base = MakeBeer();
      break;
    case Domain::kMovie:
      base = MakeMovie();
      break;
    case Domain::kCompanyText:
      base = MakeCompanyText();
      break;
    case Domain::kProductText:
      base = MakeProductText();
      break;
  }
  family.push_back(base);
  for (size_t i = 1; i < size; ++i) {
    family.push_back(MakeSibling(base));
  }
  return family;
}

data::Record DomainGenerator::MakeSibling(const data::Record& base) {
  switch (domain_) {
    case Domain::kProduct:
      return MakeProductSibling(base);
    case Domain::kBibliographic:
      return MakeBibliographicSibling(base);
    case Domain::kRestaurant:
      return MakeRestaurantSibling(base);
    case Domain::kSong:
      return MakeSongSibling(base);
    case Domain::kBeer:
      return MakeBeerSibling(base);
    case Domain::kMovie:
      return MakeMovieSibling(base);
    case Domain::kCompanyText:
      return MakeCompanyTextSibling(base);
    case Domain::kProductText:
      return MakeProductTextSibling(base);
  }
  return base;
}

// --- Product (title, category, brand, modelno, price) --------------------

data::Record DomainGenerator::MakeProduct() {
  data::Record r;
  std::string brand = Pick(Pool::kBrands);
  std::string noun = Pick(Pool::kProductNouns);
  std::string qualifier = Pick(Pool::kProductQualifiers);
  std::string code = ModelCode();
  double price = rng_.Uniform(15.0, 1500.0);
  r.values = {brand + " " + noun + " " + qualifier + " " + code,
              noun,
              brand,
              code,
              FormatDouble(price, 2),
              Pick(Pool::kColors)};
  return r;
}

data::Record DomainGenerator::MakeProductSibling(const data::Record& base) {
  data::Record r = base;
  // Same brand and product line; different model code, maybe a different
  // qualifier, and a nearby price.
  std::string code = TweakCode(base.values[3]);
  std::string qualifier = rng_.Bernoulli(0.5)
                              ? Pick(Pool::kProductQualifiers)
                              : std::string();
  auto tokens = SplitAny(base.values[0], " ");
  if (tokens.size() >= 4) {
    tokens[3] = code;
    if (!qualifier.empty()) tokens[2] = qualifier;
  }
  r.values[0] = Join(tokens, " ");
  r.values[3] = code;
  double price = std::max(5.0, std::stod(base.values[4]) *
                                   rng_.Uniform(0.8, 1.25));
  r.values[4] = FormatDouble(price, 2);
  return r;
}

// --- Bibliographic (title, authors, venue, year) --------------------------

data::Record DomainGenerator::MakeBibliographic() {
  data::Record r;
  size_t title_words = static_cast<size_t>(rng_.UniformInt(5, 9));
  r.values = {Join(PickDistinct(Pool::kResearchTopics, title_words), " "),
              "", Pick(Pool::kVenues),
              std::to_string(rng_.UniformInt(1995, 2023))};
  size_t authors = static_cast<size_t>(rng_.UniformInt(2, 4));
  std::vector<std::string> names;
  for (size_t i = 0; i < authors; ++i) names.push_back(PersonName());
  r.values[1] = Join(names, ", ");
  return r;
}

data::Record DomainGenerator::MakeBibliographicSibling(
    const data::Record& base) {
  data::Record r = base;
  // A related paper by an overlapping author group: shares most title
  // terms, same venue, a nearby year.
  auto title = SplitAny(base.values[0], " ");
  size_t replacements = 1 + rng_.Index(2);
  for (size_t i = 0; i < replacements && !title.empty(); ++i) {
    title[rng_.Index(title.size())] = Pick(Pool::kResearchTopics);
  }
  if (rng_.Bernoulli(0.3)) title.push_back("extended");
  r.values[0] = Join(title, " ");
  auto authors = SplitAny(base.values[1], ",");
  std::vector<std::string> kept;
  if (!authors.empty()) {
    kept.push_back(std::string(StripAscii(authors[0])));
  }
  kept.push_back(PersonName());
  r.values[1] = Join(kept, ", ");
  int year = std::stoi(base.values[3]) + static_cast<int>(rng_.UniformInt(-2, 2));
  r.values[3] = std::to_string(year);
  return r;
}

// --- Restaurant (name, addr, city, phone, type, class) --------------------

data::Record DomainGenerator::MakeRestaurant() {
  data::Record r;
  std::string name =
      Pick(Pool::kRestaurantWords) + " " + Pick(Pool::kRestaurantWords);
  std::string street = std::to_string(rng_.UniformInt(1, 999)) + " " +
                       Pick(Pool::kStreets) + " st";
  std::string phone =
      Digits(3) + "-" + Digits(3) + "-" + Digits(4);
  r.values = {name,
              street,
              Pick(Pool::kCities),
              phone,
              Pick(Pool::kCuisines),
              std::to_string(rng_.UniformInt(0, 15))};
  return r;
}

data::Record DomainGenerator::MakeRestaurantSibling(const data::Record& base) {
  data::Record r = MakeRestaurant();
  // Same city and cuisine, one shared name word: a nearby competitor.
  auto base_name = SplitAny(base.values[0], " ");
  auto name = SplitAny(r.values[0], " ");
  if (!base_name.empty() && !name.empty()) name[0] = base_name[0];
  r.values[0] = Join(name, " ");
  r.values[2] = base.values[2];
  r.values[4] = base.values[4];
  return r;
}

// --- Song (song, artist, album, genre, price, copyright, time, released) --

data::Record DomainGenerator::MakeSong() {
  data::Record r;
  size_t words = static_cast<size_t>(rng_.UniformInt(2, 4));
  std::string song = Join(PickDistinct(Pool::kSongWords, words), " ");
  std::string album = Join(PickDistinct(Pool::kSongWords, 2), " ");
  int year = static_cast<int>(rng_.UniformInt(1985, 2023));
  std::string time = std::to_string(rng_.UniformInt(2, 6)) + ":" + Digits(2);
  r.values = {song,
              PersonName(),
              album,
              Pick(Pool::kMusicGenres),
              rng_.Bernoulli(0.5) ? "0.99" : "1.29",
              std::to_string(year),
              time,
              std::to_string(year)};
  return r;
}

data::Record DomainGenerator::MakeSongSibling(const data::Record& base) {
  data::Record r = base;
  // Another track of the same album: only the song name and duration
  // differ, and the song name may still share a word.
  auto words = SplitAny(base.values[0], " ");
  size_t keep = words.empty() ? 0 : rng_.Index(2);  // keep at most one word
  std::vector<std::string> song;
  if (keep == 1 && !words.empty()) song.push_back(words[0]);
  size_t fresh = static_cast<size_t>(rng_.UniformInt(1, 3));
  for (auto& w : PickDistinct(Pool::kSongWords, fresh)) {
    song.push_back(std::move(w));
  }
  r.values[0] = Join(song, " ");
  r.values[6] = std::to_string(rng_.UniformInt(2, 6)) + ":" + Digits(2);
  return r;
}

// --- Beer (beer_name, brew_factory_name, style, abv) ----------------------

data::Record DomainGenerator::MakeBeer() {
  data::Record r;
  std::string style = Pick(Pool::kBeerStyles);
  std::string name = Pick(Pool::kBeerWords) + " " + Pick(Pool::kBeerWords) +
                     " " + style;
  std::string factory =
      Pick(Pool::kBeerWords) + " " + Pick(Pool::kBreweryWords) + " " +
      Pick(Pool::kBreweryWords);
  r.values = {name, factory, style, FormatDouble(rng_.Uniform(3.5, 12.0), 1)};
  return r;
}

data::Record DomainGenerator::MakeBeerSibling(const data::Record& base) {
  data::Record r = base;
  // Same brewery, a different beer in a related style.
  std::string style = Pick(Pool::kBeerStyles);
  r.values[0] = Pick(Pool::kBeerWords) + " " + Pick(Pool::kBeerWords) + " " +
                style;
  r.values[2] = style;
  r.values[3] = FormatDouble(rng_.Uniform(3.5, 12.0), 1);
  return r;
}

// --- Movie (title, director, actors, year, genre, duration) ---------------

data::Record DomainGenerator::MakeMovie() {
  data::Record r;
  size_t words = static_cast<size_t>(rng_.UniformInt(1, 3));
  std::string title = Join(PickDistinct(Pool::kMovieWords, words), " ");
  std::vector<std::string> actors;
  size_t cast = static_cast<size_t>(rng_.UniformInt(2, 3));
  for (size_t i = 0; i < cast; ++i) actors.push_back(PersonName());
  r.values = {title,
              PersonName(),
              Join(actors, ", "),
              std::to_string(rng_.UniformInt(1975, 2023)),
              Pick(Pool::kFilmGenres),
              std::to_string(rng_.UniformInt(80, 185))};
  return r;
}

data::Record DomainGenerator::MakeMovieSibling(const data::Record& base) {
  data::Record r = base;
  // The sequel: same franchise title plus a numeral, same director, a
  // partly recast ensemble, a few years later.
  static const char* kSequels[] = {"2", "ii", "3", "returns", "revenge"};
  r.values[0] = base.values[0] + " " +
                kSequels[rng_.Index(std::size(kSequels))];
  auto actors = SplitAny(base.values[2], ",");
  std::vector<std::string> cast;
  if (!actors.empty()) cast.push_back(std::string(StripAscii(actors[0])));
  cast.push_back(PersonName());
  r.values[2] = Join(cast, ", ");
  r.values[3] =
      std::to_string(std::stoi(base.values[3]) + rng_.UniformInt(2, 5));
  r.values[5] = std::to_string(rng_.UniformInt(80, 185));
  return r;
}

// --- Company text (content) ------------------------------------------------

data::Record DomainGenerator::MakeCompanyText() {
  data::Record r;
  std::string name = Pick(Pool::kLastNames) + " " + Pick(Pool::kBusinessWords);
  std::string industry = Pick(Pool::kIndustryWords);
  std::string city = Pick(Pool::kCities);
  std::string year = std::to_string(rng_.UniformInt(1950, 2015));

  // Core identifying tokens first, then boilerplate the duplicate can vary.
  std::vector<std::string> tokens = {name, industry, "founded", year,
                                     "headquartered", "in", city};
  size_t boilerplate = static_cast<size_t>(rng_.UniformInt(60, 120));
  for (size_t i = 0; i < boilerplate; ++i) {
    switch (rng_.UniformInt(0, 5)) {
      case 0:
        tokens.push_back(Pick(Pool::kIndustryWords));
        break;
      case 1:
        tokens.push_back(Pick(Pool::kCities));
        break;
      default:
        tokens.push_back(Pick(Pool::kBusinessWords));
    }
  }
  r.values = {Join(tokens, " ")};
  return r;
}

data::Record DomainGenerator::MakeCompanyTextSibling(const data::Record& base) {
  // A sibling branch of the same group: it shares the family name, the
  // industry and a large share of the corporate boilerplate, but has its
  // own second name word and founding year. Such profiles overlap heavily
  // in token space, which is what makes the textual benchmarks hard.
  auto tokens = SplitAny(base.values[0], " ");
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i == 1) {
      out.push_back(Pick(Pool::kBusinessWords));  // new name suffix
    } else if (i == 3) {
      out.push_back(std::to_string(rng_.UniformInt(1950, 2015)));
    } else if (i < 7 || rng_.Bernoulli(0.78)) {
      out.push_back(tokens[i]);  // shared core / boilerplate
    } else {
      switch (rng_.UniformInt(0, 5)) {
        case 0:
          out.push_back(Pick(Pool::kIndustryWords));
          break;
        case 1:
          out.push_back(Pick(Pool::kCities));
          break;
        default:
          out.push_back(Pick(Pool::kBusinessWords));
      }
    }
  }
  data::Record r = base;
  r.values[0] = Join(out, " ");
  return r;
}

// --- Product text (name, description, price) -------------------------------

data::Record DomainGenerator::MakeProductText() {
  data::Record r;
  std::string brand = Pick(Pool::kBrands);
  std::string noun = Pick(Pool::kProductNouns);
  std::string code = ModelCode();
  std::string name = brand + " " + noun + " " + code;

  std::vector<std::string> description = {brand, noun, code};
  size_t body = static_cast<size_t>(rng_.UniformInt(40, 80));
  for (size_t i = 0; i < body; ++i) {
    switch (rng_.UniformInt(0, 5)) {
      case 0:
        description.push_back(Pick(Pool::kColors));
        break;
      case 1:
        description.push_back(std::to_string(rng_.UniformInt(1, 4000)));
        break;
      case 2:
        description.push_back(Pick(Pool::kProductNouns));
        break;
      default:
        description.push_back(Pick(Pool::kProductQualifiers));
    }
  }
  r.values = {name, Join(description, " "),
              FormatDouble(rng_.Uniform(15.0, 1200.0), 2)};
  return r;
}

data::Record DomainGenerator::MakeProductTextSibling(const data::Record& base) {
  // The adjacent model of the same product line: identical brand and noun,
  // a one-digit-away code, and a description that reuses most of the base
  // model's spec boilerplate — only the identity tokens reliably separate
  // the two, which single-threshold token similarity cannot exploit.
  data::Record r = base;
  auto base_name = SplitAny(base.values[0], " ");
  std::string code = base_name.size() >= 3 ? TweakCode(base_name[2])
                                           : ModelCode();
  if (base_name.size() >= 3) {
    r.values[0] = base_name[0] + " " + base_name[1] + " " + code;
  }
  auto description = SplitAny(base.values[1], " ");
  std::vector<std::string> out;
  out.reserve(description.size());
  for (size_t i = 0; i < description.size(); ++i) {
    if (i == 2) {
      out.push_back(code);
    } else if (i < 3 || rng_.Bernoulli(0.88)) {
      out.push_back(description[i]);
    } else {
      switch (rng_.UniformInt(0, 3)) {
        case 0:
          out.push_back(Pick(Pool::kColors));
          break;
        case 1:
          out.push_back(std::to_string(rng_.UniformInt(1, 4000)));
          break;
        default:
          out.push_back(Pick(Pool::kProductQualifiers));
      }
    }
  }
  r.values[1] = Join(out, " ");
  double price =
      std::max(5.0, std::stod(base.values[2]) * rng_.Uniform(0.8, 1.25));
  r.values[2] = FormatDouble(price, 2);
  return r;
}

// --- Duplicates -------------------------------------------------------------

std::string DomainGenerator::ResampleText(const std::string& text,
                                          size_t core_tokens, double noise,
                                          Pool filler_a, Pool filler_b) {
  auto tokens = SplitAny(text, " ");
  std::vector<std::string> out;
  out.reserve(tokens.size());
  double keep_probability = 1.0 - 0.45 * noise;
  size_t dropped = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i < core_tokens || rng_.Bernoulli(keep_probability)) {
      out.push_back(std::move(tokens[i]));
    } else {
      ++dropped;
    }
  }
  // Fresh boilerplate replaces what was dropped, so the two descriptions
  // have similar lengths but diverging tails.
  for (size_t i = 0; i < dropped; ++i) {
    out.push_back(rng_.Bernoulli(0.5)
                      ? std::string(Words(filler_a)[rng_.Index(
                            Words(filler_a).size())])
                      : std::string(Words(filler_b)[rng_.Index(
                            Words(filler_b).size())]));
  }
  return Join(out, " ");
}

data::Record DomainGenerator::MakeDuplicate(const data::Record& canonical,
                                            double noise) {
  data::Record dup = canonical;
  if (domain_ == Domain::kCompanyText) {
    dup.values[0] = ResampleText(canonical.values[0], 7, noise,
                                 Pool::kBusinessWords, Pool::kIndustryWords);
    return dup;
  }
  if (domain_ == Domain::kProductText) {
    dup.values[1] = ResampleText(canonical.values[1], 3, noise,
                                 Pool::kProductQualifiers, Pool::kColors);
    Corruptor corruptor(DuplicateNoiseProfile(noise), rng_.Fork());
    dup.values[0] = corruptor.CorruptValue(dup.values[0]);
    dup.values[2] = corruptor.CorruptNumber(dup.values[2]);
    return dup;
  }
  Corruptor corruptor(DuplicateNoiseProfile(noise), rng_.Fork());
  corruptor.CorruptRecord(&dup, numeric_attrs_);
  return dup;
}

}  // namespace rlbench::datagen
