// Run-manifest tests: schema round-trip through serve::ParseJson (the
// repo's one JSON reader), escaping, measured results, phase accounting,
// failure status, the Finalize() freeze, and the metrics-section gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "serve/wire.h"

namespace rlbench::obs {
namespace {

bool Parses(std::string_view json) { return serve::ParseJson(json).ok(); }

TEST(ManifestTest, ToJsonIsSyntaxValidWithAllSections) {
  RunManifest manifest("unit_bench");
  manifest.set_threads(4);
  manifest.set_hardware_concurrency(8);
  manifest.set_seed(1234);
  manifest.SetDatasets({"Ds1", "Ds2"});
  manifest.AddConfig("scale", 0.35);
  manifest.AddConfig("kmax", static_cast<int64_t>(64));
  manifest.AddConfig("mode", std::string("fast"));
  manifest.BeginPhase("alpha");
  manifest.BeginPhase("beta");  // nested
  manifest.EndPhase();
  manifest.EndPhase();
  manifest.Finalize();

  std::string json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"hardware_concurrency\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"datasets\": [\"Ds1\", \"Ds2\"]"), std::string::npos);
  EXPECT_NE(json.find("\"scale\": 0.35"), std::string::npos);
  EXPECT_NE(json.find("\"kmax\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"fast\""), std::string::npos);
  EXPECT_NE(json.find("\"git\": "), std::string::npos);
  // Phases serialise in begin order, nested or not.
  size_t alpha = json.find("\"name\": \"alpha\"");
  size_t beta = json.find("\"name\": \"beta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(beta, std::string::npos);
  EXPECT_LT(alpha, beta);
  EXPECT_NE(json.find("\"total_seconds\": "), std::string::npos);
}

TEST(ManifestTest, ResultsRoundTripBitExact) {
  RunManifest empty("unit_bench_no_results");
  auto parsed_empty = serve::ParseJson(empty.ToJson());
  ASSERT_TRUE(parsed_empty.ok()) << parsed_empty.status().ToString();
  EXPECT_EQ(parsed_empty->Find("results"), nullptr);
  EXPECT_EQ(parsed_empty->GetNumber("schema_version"), 3.0);

  const std::pair<const char*, double> cases[] = {
      {"zero", 0.0},
      {"third", 1.0 / 3.0},
      {"tiny_s", 1.2345678901234567e-9},
      {"count", 4490641.0},
      {"negative", -0.1},
      {"max", std::numeric_limits<double>::max()},
      {"denormal", std::numeric_limits<double>::denorm_min()},
      {"escaped \"key\"", 2.5},
  };
  RunManifest manifest("unit_bench_results");
  manifest.AddConfig("scale", 0.5);
  for (const auto& [key, value] : cases) manifest.AddResult(key, value);
  std::string json = manifest.ToJson();
  auto parsed = serve::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << json;
  EXPECT_EQ(parsed->GetNumber("schema_version"), 3.0);
  const serve::JsonValue* results = parsed->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_object());
  ASSERT_EQ(results->AsObject().size(), std::size(cases));
  for (size_t i = 0; i < std::size(cases); ++i) {
    const auto& [key, value] = results->AsObject()[i];
    EXPECT_EQ(key, cases[i].first);
    ASSERT_TRUE(value.is_number()) << key;
    EXPECT_EQ(value.AsNumber(), cases[i].second) << key;  // bit-exact
  }
  // Results never leak into the inputs section.
  const serve::JsonValue* config = parsed->Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->AsObject().size(), 1u);
}

TEST(ManifestTest, SeedAndTraceFileAreOptional) {
  RunManifest manifest("unit_bench_min");
  std::string json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  EXPECT_EQ(json.find("\"seed\""), std::string::npos);
  EXPECT_EQ(json.find("\"trace_file\""), std::string::npos);
  RunManifest traced("unit_bench_traced");
  traced.set_trace_file("out.json");
  EXPECT_NE(traced.ToJson().find("\"trace_file\": \"out.json\""),
            std::string::npos);
}

TEST(ManifestTest, EscapesHostileStrings) {
  RunManifest manifest("unit\"bench\nname");
  manifest.AddDataset("quote\"and\\slash");
  manifest.AddConfig("note", std::string("line1\nline2\ttab"));
  std::string json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  EXPECT_NE(json.find("unit\\\"bench\\nname"), std::string::npos);
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
}

TEST(ManifestTest, FinalizeFreezesTotalSeconds) {
  RunManifest manifest("unit_bench_freeze");
  manifest.Finalize();
  double first = manifest.TotalSeconds();
  // Burn a little wall time; the frozen value must not move.
  std::string sink;
  for (int i = 0; i < 10000; ++i) sink += 'x';
  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(manifest.TotalSeconds(), first);
}

TEST(ManifestTest, UnbalancedEndPhaseIsIgnored) {
  RunManifest manifest("unit_bench_unbalanced");
  manifest.EndPhase();  // no matching BeginPhase: must not crash
  manifest.BeginPhase("only");
  manifest.EndPhase();
  manifest.EndPhase();
  EXPECT_TRUE(Parses(manifest.ToJson()));
}

TEST(ManifestTest, MetricsSectionFollowsTheGate) {
  Metrics::SetEnabled(true);
  Metrics::Instance().ResetAll();
  Metrics::Instance().GetCounter("manifest_test/marker").Add(7);
  RunManifest manifest("unit_bench_metrics");
  std::string with_metrics = manifest.ToJson();
  EXPECT_TRUE(Parses(with_metrics)) << with_metrics;
  EXPECT_NE(with_metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(with_metrics.find("\"manifest_test/marker\": 7"),
            std::string::npos);
  EXPECT_NE(with_metrics.find("\"histograms\""), std::string::npos);

  Metrics::SetEnabled(false);
  std::string without_metrics = manifest.ToJson();
  EXPECT_TRUE(Parses(without_metrics));
  EXPECT_EQ(without_metrics.find("\"counters\""), std::string::npos);
}

TEST(ManifestTest, PeakRssBytesIsAlwaysSerialised) {
  // Downstream tooling (tools/validate_manifest.py) treats the key as
  // required, so it must appear even when never set.
  RunManifest manifest("unit_bench_rss");
  std::string json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  EXPECT_NE(json.find("\"peak_rss_bytes\": 0"), std::string::npos);
  manifest.set_peak_rss_bytes(123456789);
  json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  EXPECT_NE(json.find("\"peak_rss_bytes\": 123456789"), std::string::npos);
}

TEST(ManifestTest, PhasesCarryOkStatusByDefault) {
  RunManifest manifest("unit_bench_status");
  manifest.BeginPhase("clean");
  manifest.EndPhase();
  std::string json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_EQ(json.find("\"error\""), std::string::npos);
  EXPECT_FALSE(manifest.HasFailedPhase());
}

TEST(ManifestTest, FailPhaseMarksInnermostOpenPhase) {
  RunManifest manifest("unit_bench_fail");
  manifest.BeginPhase("outer");
  manifest.BeginPhase("dataset/Ds1");
  manifest.FailPhase("IOError: injected");
  manifest.EndPhase();
  manifest.EndPhase();
  EXPECT_TRUE(manifest.HasFailedPhase());
  std::string json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  // The inner phase failed with its error recorded; the outer stayed ok.
  size_t failed_at = json.find("\"status\": \"failed\"");
  ASSERT_NE(failed_at, std::string::npos);
  EXPECT_NE(json.find("\"error\": \"IOError: injected\""), std::string::npos);
  size_t inner = json.find("\"name\": \"dataset/Ds1\"");
  size_t outer = json.find("\"name\": \"outer\"");
  ASSERT_NE(inner, std::string::npos);
  ASSERT_NE(outer, std::string::npos);
  EXPECT_LT(outer, failed_at);
  EXPECT_LT(inner, failed_at);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

TEST(ManifestTest, FailPhaseWithoutOpenPhaseIsIgnored) {
  RunManifest manifest("unit_bench_fail_noop");
  manifest.FailPhase("nothing open");  // must not crash
  EXPECT_FALSE(manifest.HasFailedPhase());
  EXPECT_TRUE(Parses(manifest.ToJson()));
}

TEST(ManifestTest, AddCompletedPhaseRecordsFailures) {
  RunManifest manifest("unit_bench_completed");
  manifest.AddCompletedPhase("dataset/Dn1", 0.25);
  manifest.AddCompletedPhase("dataset/Dn2", 0.0, /*failed=*/true,
                             "NotFound: unknown dataset id Dn2");
  EXPECT_TRUE(manifest.HasFailedPhase());
  std::string json = manifest.ToJson();
  EXPECT_TRUE(Parses(json)) << json;
  EXPECT_NE(json.find("\"name\": \"dataset/Dn1\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(json.find("\"error\": \"NotFound: unknown dataset id Dn2\""),
            std::string::npos);
}

}  // namespace
}  // namespace rlbench::obs
