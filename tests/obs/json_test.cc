// Tests for the minimal JSON helpers (escaping, shortest round-trip
// number formatting) and for the grammar of serve::ParseJson, the reader
// the trace/manifest round-trip tests parse emitted documents with.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "serve/wire.h"

namespace rlbench::obs {
namespace {

TEST(JsonTest, EscapesSpecialsAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab\rret"),
            "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(JsonString("q\"q"), "\"q\\\"q\"");
}

TEST(JsonTest, NumbersRoundTripExactly) {
  for (double value : {0.0, 1.0, -1.5, 0.35, 1e-9, 123456789.125,
                       std::numeric_limits<double>::max()}) {
    std::string text = JsonNumber(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

bool Parses(std::string_view text) { return serve::ParseJson(text).ok(); }

TEST(JsonTest, ParserAcceptsWellFormedDocuments) {
  EXPECT_TRUE(Parses("{}"));
  EXPECT_TRUE(Parses("[]"));
  EXPECT_TRUE(Parses("  {\"a\": [1, 2.5, -3e4], \"b\": "
                     "{\"c\": null, \"d\": [true, false]}}  "));
  EXPECT_TRUE(Parses("\"escaped \\u00e9 \\n ok\""));
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
  EXPECT_FALSE(Parses(""));
  EXPECT_FALSE(Parses("{"));
  EXPECT_FALSE(Parses("{\"a\": }"));
  EXPECT_FALSE(Parses("{\"a\": 1,}"));
  EXPECT_FALSE(Parses("[1 2]"));
  EXPECT_FALSE(Parses("\"unterminated"));
  EXPECT_FALSE(Parses("\"bad escape \\q\""));
  EXPECT_FALSE(Parses("01"));
  EXPECT_FALSE(Parses("{} trailing"));
  EXPECT_FALSE(Parses("nul"));
}

TEST(JsonTest, ParserBoundsRecursionDepth) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Parses(deep));  // past the nesting cap
  std::string shallow(20, '[');
  shallow += std::string(20, ']');
  EXPECT_TRUE(Parses(shallow));
}

}  // namespace
}  // namespace rlbench::obs
