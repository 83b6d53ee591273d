// The paper workload: Section VI builds a new benchmark from a source
// dataset pair (recall-tuned DeepBlocker blocking, labelling, 3:1:1
// split), then Section III assesses it and an established long-text
// benchmark: degree of linearity, the complexity measures, every line-up
// matcher's test F1, and the practical measures NLB and LBM.
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/benchmark_builder.h"
#include "core/complexity.h"
#include "core/linearity.h"
#include "core/practical.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "e2e.h"
#include "matchers/registry.h"
#include "obs/metrics.h"

namespace rlbench::e2e {
namespace {

struct PaperSizes {
  const char* source;        // Table V source pair the pass builds from
  double source_scale;       // its record-count scale
  size_t new_pairs;          // cap on the built benchmark (table6's thinning)
  const char* established;   // Table III benchmark assessed beside it
  size_t established_pairs;  // its labelled-pair cap (table4 caps by scale)
};

// At table5's scale (0.35) and table4's 2000-pair cap one pass takes about
// a minute on a 4-core host, nearly all of it the serial DL simulators.
// These sizes keep that shape at 3-5 s single-threaded, so a run times
// several passes.
// At scale 0.05 the tuned blocking yields 508 to 4318 candidates over
// seeds 1-30, so the 400-pair cap always binds and passes of different
// seeds do the same work.
PaperSizes Sizes(bool smoke) {
  if (smoke) return {"Dn7", 0.02, 150, "Ds5", 60};
  return {"Dn7", 0.05, 400, "Dt1", 100};
}

/// table6's cap made exact: keep every positive and a seeded choice of
/// negatives in each split, so every seed's pass scores the same number
/// of pairs.
void CapPairs(data::MatchingTask* task, size_t max_pairs) {
  const data::PairSetStats total = task->TotalStats();
  if (total.total <= max_pairs) return;
  const double keep =
      total.positives >= max_pairs
          ? 0.0
          : static_cast<double>(max_pairs - total.positives) /
                static_cast<double>(total.negatives);
  Rng rng(0xCA9);
  auto thin = [&](const std::vector<data::LabeledPair>& pairs) {
    std::vector<size_t> negatives;
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (!pairs[i].is_match) negatives.push_back(i);
    }
    rng.Shuffle(&negatives);
    negatives.resize(static_cast<size_t>(
        std::llround(keep * static_cast<double>(negatives.size()))));
    std::vector<bool> chosen(pairs.size(), false);
    for (size_t i : negatives) chosen[i] = true;
    std::vector<data::LabeledPair> kept;
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i].is_match || chosen[i]) kept.push_back(pairs[i]);
    }
    return kept;
  };
  task->set_train(thin(task->train()));
  task->set_valid(thin(task->valid()));
  task->set_test(thin(task->test()));
}

const char* GroupSpan(matchers::MatcherGroup group) {
  switch (group) {
    case matchers::MatcherGroup::kDeepLearning:
      return "matchers.dl";
    case matchers::MatcherGroup::kClassicMl:
      return "matchers.classic";
    case matchers::MatcherGroup::kLinear:
      return "matchers.linear";
    case matchers::MatcherGroup::kZeroShot:
      return "matchers.zeroshot";
  }
  return "matchers.unknown";
}

bool InUnit(double value) {
  return std::isfinite(value) && value >= 0.0 && value <= 1.0;
}

/// What one pass computed: every exact result, keyed "<dataset>/<what>".
struct PassOutcome {
  std::map<std::string, std::string> pins;
  size_t pairs = 0;          // labelled pairs assessed
  size_t matcher_runs = 0;
  size_t out_of_range = 0;   // results outside their valid range
};

/// Section III assessment of one benchmark.
void Assess(const data::MatchingTask& task, const std::string& label,
            Spans* spans, Pass* pass, PassOutcome* outcome) {
  auto pin = [&](const std::string& what, double value) {
    outcome->pins[label + "/" + what] = Exact(value);
  };
  std::optional<matchers::MatchingContext> context;
  {
    Spans::Scope span(spans, "matchers.context");
    context.emplace(&task);
  }
  core::LinearityResult linearity;
  {
    Spans::Scope span(spans, "core.linearity");
    linearity = core::ComputeLinearity(*context);
  }
  double complexity = 0.0;
  {
    Spans::Scope span(spans, "core.complexity");
    complexity = core::ComputeComplexity(core::PairFeaturePoints(*context))
                     .Average();
  }
  std::vector<core::MatcherScore> scores;
  bool all_valid = true;
  for (auto& entry : matchers::BuildMatcherLineup()) {
    double f1 = 0.0;
    {
      Spans::Scope span(spans, GroupSpan(entry.group));
      f1 = entry.matcher->TestF1(*context);
    }
    ++pass->attempted;
    ++outcome->matcher_runs;
    if (!InUnit(f1)) {
      ++pass->failed;
      ++outcome->out_of_range;
      all_valid = false;
    }
    pin("f1/" + entry.matcher->name(), f1);
    scores.push_back({entry.matcher->name(), entry.group, f1});
  }
  pin("pairs", static_cast<double>(task.AllPairs().size()));
  pin("linearity_cs", linearity.f1_cosine);
  pin("linearity_js", linearity.f1_jaccard);
  pin("complexity_avg", complexity);
  outcome->out_of_range += !InUnit(linearity.f1_cosine) +
                           !InUnit(linearity.f1_jaccard) + !InUnit(complexity);
  outcome->pairs += task.AllPairs().size();
  if (!all_valid) return;  // ComputePractical traps on an invalid F1
  core::PracticalMeasures practical;
  {
    Spans::Scope span(spans, "core.practical");
    practical = core::ComputePractical(scores);
  }
  pin("nlb", practical.non_linear_boost);
  pin("lbm", practical.learning_based_margin);
  outcome->out_of_range +=
      !(std::abs(practical.non_linear_boost) <= 1.0) +
      !InUnit(practical.learning_based_margin);
}

/// One pass: build the new benchmark, then assess it and the established
/// one.
PassOutcome RunOnce(const datagen::SourceDatasetSpec& source,
                    const PaperSizes& sizes,
                    const data::MatchingTask& established, Spans* spans,
                    Pass* pass) {
  PassOutcome outcome;
  core::NewBenchmarkOptions build;
  build.scale = sizes.source_scale;
  auto built = [&] {
    Spans::Scope span(spans, "core.build_new_benchmark");
    return core::BuildNewBenchmark(source, build);
  }();
  ++pass->attempted;
  if (built.ok()) {
    CapPairs(&built->task, sizes.new_pairs);
    outcome.pins[source.id + "/candidates"] =
        std::to_string(built->blocking.candidates.size());
    Assess(built->task, source.id, spans, pass, &outcome);
  } else {
    ++pass->failed;
    outcome.pins[source.id + "/error"] = built.status().ToString();
  }
  Assess(established, established.name(), spans, pass, &outcome);
  return outcome;
}

}  // namespace

Status RunPaper(const Options& options, Pass* pass, Report* report) {
  const PaperSizes sizes = Sizes(options.smoke);
  SetParallelThreads(kBatchThreads);
  const auto* source_spec = datagen::FindSourceDataset(sizes.source);
  const auto* established_spec =
      datagen::FindExistingBenchmark(sizes.established);
  if (source_spec == nullptr || established_spec == nullptr) {
    return Status::NotFound("paper: catalog lacks its datasets");
  }
  datagen::SourceDatasetSpec source = *source_spec;
  source.seed = InputSeed(source.seed, options.seed);
  datagen::ExistingBenchmarkSpec established = *established_spec;
  established.seed = InputSeed(established.seed, options.seed);
  const double established_scale =
      std::min(1.0, static_cast<double>(sizes.established_pairs) /
                        static_cast<double>(established.total_pairs));

  Spans spans("paper");
  OpTimings timings;
  PassOutcome first;
  size_t mismatches = 0;
  size_t out_of_range = 0;
  data::MatchingTask task;
  Budget budget(pass->seconds);
  while (budget.Next()) {
    // Set-up is the datagen of the established task. The source pair is
    // not: BuildNewBenchmark generates it inside the pass.
    {
      Stopwatch watch;
      Spans::Scope span(&spans, "datagen.build");
      task = datagen::BuildExistingBenchmark(established, established_scale);
      timings.setup_s.push_back(watch.ElapsedSeconds());
    }
    if (task.test().empty()) {
      return Status::Internal("paper: datagen produced an empty task");
    }
    RLBENCH_RETURN_NOT_OK(timings.Reference());
    Stopwatch watch;
    const double cpu_start_s = CpuSeconds();
    PassOutcome outcome;
    {
      Spans::Scope span(&spans, "paper.pass");
      outcome = RunOnce(source, sizes, task, &spans, pass);
    }
    timings.op_ms.push_back(watch.ElapsedMillis());
    timings.op_cpu_s.push_back(CpuSeconds() - cpu_start_s);
    out_of_range += outcome.out_of_range;
    if (timings.op_ms.size() == 1) {
      first = std::move(outcome);
    } else if (outcome.pins != first.pins) {
      ++mismatches;
    }
  }
  const size_t lineup = matchers::BuildMatcherLineup().size();

  report->AddCheck("paper: every measure and F1 in range", out_of_range == 0,
                   std::to_string(out_of_range) + " out of range");
  report->AddCheck("paper: passes agree bit for bit", mismatches == 0,
                   std::to_string(mismatches) + " of " +
                       std::to_string(timings.op_ms.size()) + " passes differ");
  report->AddCheck("paper: full line-up on both benchmarks",
                   first.matcher_runs == 2 * lineup,
                   std::to_string(first.matcher_runs) + " matcher runs");

  timings.Fill(static_cast<double>(first.pairs), "pass", pass);
  pass->pins = first.pins;
  if (!pass->traced) return Status::OK();

  const double passes = static_cast<double>(timings.op_ms.size());
  const double pass_s = spans.Get("paper.pass").wall_s;
  auto share = [&](const char* span) { return spans.Get(span).wall_s / pass_s; };
  auto cpu_ratio = [&](const char* span) {
    Spans::Totals totals = spans.Get(span);
    return totals.wall_s > 0.0 ? totals.cpu_s / totals.wall_s : 0.0;
  };
  report->Layer("core.build_new_benchmark_share",
                share("core.build_new_benchmark"), "ratio");
  report->Layer("matchers.context_share", share("matchers.context"), "ratio");
  report->Layer("core.linearity_share", share("core.linearity"), "ratio");
  report->Layer("core.complexity_share", share("core.complexity"), "ratio");
  for (const char* group : {"dl", "classic", "linear", "zeroshot"}) {
    const std::string span = std::string("matchers.") + group;
    report->Layer(span + "_share", share(span.c_str()), "ratio");
    report->Layer(span + "_cpu_ratio", cpu_ratio(span.c_str()), "ratio");
    report->Detail(span + "_s", spans.Get(span).wall_s / passes, "s");
  }
  obs::Metrics& metrics = obs::Metrics::Instance();
  report->Layer(
      "block.configs_tried",
      static_cast<double>(
          metrics.GetCounter("block/deepblocker/configs_tried").Value()) /
          passes,
      "count");
  report->Layer(
      "block.evaluated_candidates",
      static_cast<double>(
          metrics.GetCounter("block/evaluated_candidates").Value()) /
          passes,
      "count");
  const double hits = static_cast<double>(
      metrics.GetCounter("feature_cache/hits").Value());
  const double misses = static_cast<double>(
      metrics.GetCounter("feature_cache/misses").Value());
  report->Layer("data.feature_cache_hit_ratio",
                hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Detail("datagen.build_s", Quantile(timings.setup_s, 0.5), "s");
  report->Detail("e2e.reference_ms", Quantile(timings.reference_ms, 0.5), "ms");
  report->Detail("core.build_new_benchmark_s",
                 spans.Get("core.build_new_benchmark").wall_s / passes, "s");
  report->Detail("matchers.context_s",
                 spans.Get("matchers.context").wall_s / passes, "s");
  report->Detail("core.linearity_s", spans.Get("core.linearity").wall_s / passes,
                 "s");
  report->Detail("core.complexity_s",
                 spans.Get("core.complexity").wall_s / passes, "s");
  spans.Export(report);
  return Status::OK();
}

}  // namespace rlbench::e2e
