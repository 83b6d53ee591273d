#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <thread>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/complexity.h"
#include "core/linearity.h"
#include "data/csv.h"
#include "data/file_source.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"
#include "matchers/registry.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace rlbench::benchutil {

std::string Pct(double fraction) { return FormatDouble(100.0 * fraction, 2); }

std::string F3(double value) { return FormatDouble(value, 3); }

std::string ResultsDir() {
  std::filesystem::path dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

void SaveScores(const std::string& name,
                const std::vector<CachedScore>& rows) {
  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.push_back({"dataset", "matcher", "group", "f1"});
  for (const auto& row : rows) {
    csv_rows.push_back({row.dataset, row.matcher,
                        std::to_string(static_cast<int>(row.group)),
                        FormatDouble(row.f1, 6)});
  }
  std::string path = ResultsDir() + "/" + name + ".csv";
  Status status = data::FileSource::WriteAtomic(path, data::WriteCsv(csv_rows));
  if (!status.ok()) {
    std::fprintf(stderr, "bench: cannot save scores %s: %s\n", path.c_str(),
                 status.ToString().c_str());
  }
}

namespace {

// Strict numeric parsers for the score cache; any damage to the cache file
// degrades to "no cache" (nullopt) rather than a throw.
bool ParseIntField(const std::string& text, int* out) {
  if (text.empty()) return false;
  size_t i = text[0] == '-' ? 1 : 0;
  if (i == text.size()) return false;
  long long value = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    value = value * 10 + (text[i] - '0');
    if (value > 1000000) return false;
  }
  *out = static_cast<int>(text[0] == '-' ? -value : value);
  return true;
}

bool ParseDoubleField(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

}  // namespace

std::optional<std::vector<CachedScore>> LoadScores(const std::string& name) {
  auto text = data::FileSource::ReadAll(ResultsDir() + "/" + name + ".csv");
  if (!text.ok()) return std::nullopt;
  auto rows = data::ParseCsv(*text);
  if (!rows.ok() || rows->size() < 2) return std::nullopt;
  std::vector<CachedScore> scores;
  for (size_t i = 1; i < rows->size(); ++i) {
    const auto& row = (*rows)[i];
    if (row.size() < 4) return std::nullopt;
    CachedScore score;
    score.dataset = row[0];
    score.matcher = row[1];
    int group = 0;
    if (!ParseIntField(row[2], &group)) return std::nullopt;
    score.group = static_cast<matchers::MatcherGroup>(group);
    if (!ParseDoubleField(row[3], &score.f1)) return std::nullopt;
    scores.push_back(std::move(score));
  }
  return scores;
}

namespace {

// Median of a non-empty sample (mean of the middle pair for even sizes).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

Timing Measure(int repeats, const std::function<void()>& fn) {
  RLBENCH_CHECK_MSG(repeats >= 1, "--repeats must be at least 1");
  fn();  // warm-up: caches, lazy set-up and page faults stay untimed
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    seconds.push_back(watch.ElapsedSeconds());
  }
  Timing timing;
  timing.median_s = Median(seconds);
  for (double& s : seconds) s = std::fabs(s - timing.median_s);
  timing.mad_s = Median(std::move(seconds));
  return timing;
}

BenchRun::BenchRun(const char* name) : manifest_(name) {
  obs::SetCurrentThreadName("main");
}

BenchRun::~BenchRun() { Finish(); }

void BenchRun::AddTiming(const std::string& key, const Timing& timing) {
  manifest_.AddResult(key + "_median_s", timing.median_s);
  manifest_.AddResult(key + "_mad_s", timing.mad_s);
}

void BenchRun::Finish() {
  if (finished_) return;
  finished_ = true;
  manifest_.set_threads(ParallelThreadCount());
  manifest_.set_hardware_concurrency(std::thread::hardware_concurrency());
  manifest_.set_peak_rss_bytes(obs::PeakRssBytes());
  std::string trace_path = obs::WriteTraceIfEnabled();
  if (!trace_path.empty()) manifest_.set_trace_file(trace_path);
  // An armed fault spec changes what the run measures; record it so the
  // manifest says which results ran under injection. Unarmed runs carry no
  // such key, keeping them bit-identical to pre-fault manifests.
  if (fault::FaultsEnabled()) {
    manifest_.AddConfig("faults", fault::ActiveSpec());
  }
  // Freeze the wall time so the printed line and the manifest agree to
  // the digit.
  manifest_.Finalize();
  double seconds = manifest_.TotalSeconds();
  const std::string json = manifest_.ToJson();
  std::string manifest_path =
      ResultsDir() + "/" + manifest_.name() + ".manifest.json";
  Status write = data::FileSource::WriteAtomic(manifest_path, json);
  if (!write.ok()) {
    std::fprintf(stderr, "bench: cannot write manifest %s: %s\n",
                 manifest_path.c_str(), write.ToString().c_str());
    manifest_path.clear();
  }
  std::string published_path;
  if (!publish_stem_.empty()) {
    if (manifest_.HasFailedPhase() || fault::FaultsEnabled()) {
      std::fprintf(stderr,
                   "bench: failed or fault-injected run, BENCH_%s.json not "
                   "published\n",
                   publish_stem_.c_str());
    } else {
      published_path = ResultsDir() + "/BENCH_" + publish_stem_ + ".json";
      Status published = data::FileSource::WriteAtomic(published_path, json);
      if (!published.ok()) {
        std::fprintf(stderr, "bench: cannot write %s: %s\n",
                     published_path.c_str(), published.ToString().c_str());
        published_path.clear();
      }
    }
  }
  std::printf("\n[%s finished in %.1f s]\n", manifest_.name().c_str(),
              seconds);
  if (!manifest_path.empty()) {
    std::printf("[manifest: %s]\n", manifest_path.c_str());
  }
  if (!published_path.empty()) {
    std::printf("[published: %s]\n", published_path.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("[trace: %s]\n", trace_path.c_str());
  }
}

size_t ForEachDataset(BenchRun& run, const std::vector<std::string>& ids,
                      const std::function<Status(size_t)>& body) {
  std::vector<Status> statuses(ids.size());
  std::vector<double> seconds(ids.size(), 0.0);
  auto drive = [&](size_t i) {
    const std::string span_name = "dataset/" + ids[i];
    obs::TraceSpan span(span_name.c_str());
    std::fprintf(stderr, "[%s] %s...\n", run.manifest().name().c_str(),
                 ids[i].c_str());
    Stopwatch watch;
    statuses[i] = body(i);
    seconds[i] = watch.ElapsedSeconds();
  };
  if (ids.size() == 1) {
    drive(0);
  } else {
    ParallelFor(0, ids.size(), 1, drive);
  }
  size_t failed = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!statuses[i].ok()) ++failed;
    RecordDatasetPhase(run, ids[i], seconds[i], statuses[i]);
  }
  return failed;
}

void RecordDatasetPhase(BenchRun& run, const std::string& id, double seconds,
                        const Status& status) {
  if (status.ok()) {
    run.manifest().AddCompletedPhase("dataset/" + id, seconds);
    return;
  }
  run.manifest().AddCompletedPhase("dataset/" + id, seconds, true,
                                   status.ToString());
  std::fprintf(stderr, "bench: dataset %s failed: %s (continuing)\n",
               id.c_str(), status.ToString().c_str());
}

namespace {

// Dataset ids from --datasets, else every id of `catalog`; recorded in the
// manifest.
template <typename Catalog>
std::vector<std::string> SelectIds(const Flags& flags, BenchRun& run,
                                   const Catalog& catalog) {
  std::vector<std::string> ids;
  if (flags.Has("datasets")) {
    ids = SplitAny(flags.GetString("datasets", ""), ",");
  } else {
    for (const auto& spec : catalog) ids.push_back(spec.id);
  }
  run.manifest().SetDatasets(ids);
  return ids;
}

// Scale factor capping a benchmark at `max_pairs` labelled pairs.
double AutoScale(size_t total_pairs, size_t max_pairs) {
  if (total_pairs <= max_pairs) return 1.0;
  return static_cast<double>(max_pairs) / static_cast<double>(total_pairs);
}

// Cap a task's pair count by thinning easy negatives (positives are always
// kept, so difficulty is preserved or increased).
void CapPairs(data::MatchingTask* task, size_t max_pairs) {
  size_t total = task->AllPairs().size();
  if (total <= max_pairs) return;
  double keep = static_cast<double>(max_pairs) / static_cast<double>(total);
  Rng rng(0xCA9);
  auto thin = [&](const std::vector<data::LabeledPair>& pairs) {
    std::vector<data::LabeledPair> kept;
    kept.reserve(static_cast<size_t>(pairs.size() * keep) + 1);
    for (const auto& pair : pairs) {
      if (pair.is_match || rng.Bernoulli(keep)) kept.push_back(pair);
    }
    return kept;
  };
  task->set_train(thin(task->train()));
  task->set_valid(thin(task->valid()));
  task->set_test(thin(task->test()));
}

}  // namespace

std::vector<std::string> ExistingTasks::SelectIds(const Flags& flags,
                                                  BenchRun& run) {
  return benchutil::SelectIds(flags, run, datagen::ExistingBenchmarks());
}

ExistingTasks::ExistingTasks(BenchRun& run, double scale) : scale_(scale) {
  run.manifest().AddConfig("scale", scale);
}

ExistingTasks::ExistingTasks(const Flags& flags, BenchRun& run,
                             size_t default_max_pairs)
    : max_pairs_(static_cast<size_t>(flags.GetInt(
          "max-pairs", static_cast<int64_t>(default_max_pairs)))) {
  run.manifest().AddConfig("max_pairs", static_cast<int64_t>(max_pairs_));
}

Result<data::MatchingTask> ExistingTasks::Task(const std::string& id) const {
  const auto* spec = datagen::FindExistingBenchmark(id);
  if (spec == nullptr) return Status::NotFound("unknown dataset id " + id);
  double scale = scale_ ? *scale_ : AutoScale(spec->total_pairs, max_pairs_);
  return datagen::BuildExistingBenchmark(*spec, scale);
}

std::vector<std::string> NewTasks::SelectIds(const Flags& flags,
                                             BenchRun& run) {
  return benchutil::SelectIds(flags, run, datagen::SourceDatasets());
}

NewTasks::NewTasks(const Flags& flags, BenchRun& run,
                   std::optional<size_t> default_max_pairs) {
  options_.scale = flags.GetDouble("scale", 0.35);
  options_.min_recall = flags.GetDouble("recall", 0.9);
  options_.k_max = static_cast<int>(flags.GetInt("kmax", 64));
  run.manifest().AddConfig("scale", options_.scale);
  run.manifest().AddConfig("recall", options_.min_recall);
  run.manifest().AddConfig("kmax", static_cast<int64_t>(options_.k_max));
  if (default_max_pairs) {
    max_pairs_ = static_cast<size_t>(flags.GetInt(
        "max-pairs", static_cast<int64_t>(*default_max_pairs)));
    run.manifest().AddConfig("max_pairs", static_cast<int64_t>(*max_pairs_));
  }
}

Result<core::NewBenchmark> NewTasks::Build(const std::string& id) const {
  const auto* spec = datagen::FindSourceDataset(id);
  if (spec == nullptr) return Status::NotFound("unknown dataset id " + id);
  RLBENCH_ASSIGN_OR_RETURN(core::NewBenchmark benchmark,
                           core::BuildNewBenchmark(*spec, options_));
  if (max_pairs_) CapPairs(&benchmark.task, *max_pairs_);
  return benchmark;
}

Result<data::MatchingTask> NewTasks::Task(const std::string& id) const {
  RLBENCH_ASSIGN_OR_RETURN(core::NewBenchmark benchmark, Build(id));
  return std::move(benchmark.task);
}

std::vector<CachedScore> ScoreLineups(BenchRun& run, const Flags& flags,
                                      const TaskSource& tasks,
                                      const std::vector<std::string>& ids,
                                      const std::string& cache_name,
                                      size_t* failed) {
  matchers::RegistryOptions registry;
  registry.epoch_scale = flags.GetDouble("epoch-scale", 1.0);
  run.manifest().AddConfig("epoch_scale", registry.epoch_scale);
  std::vector<std::vector<CachedScore>> per_dataset(ids.size());
  *failed += ForEachDataset(run, ids, [&](size_t i) -> Status {
    RLBENCH_ASSIGN_OR_RETURN(data::MatchingTask task, tasks.Task(ids[i]));
    matchers::MatchingContext context(&task);
    auto lineup = matchers::BuildMatcherLineup(registry);
    for (const auto& score : core::ScoreLineup(context, &lineup)) {
      per_dataset[i].push_back({ids[i], score.name, score.group, score.f1});
    }
    return Status::OK();
  });
  std::vector<CachedScore> scores;
  for (auto& rows : per_dataset) {
    scores.insert(scores.end(), rows.begin(), rows.end());
  }
  SaveScores(cache_name, scores);
  return scores;
}

void PrintMatcherTable(const std::string& title,
                       const std::vector<std::string>& ids,
                       const std::vector<CachedScore>& scores) {
  // matcher name -> dataset -> F1 (insertion-ordered rows).
  std::vector<std::string> row_order;
  std::map<std::string, std::map<std::string, double>> matrix;
  std::map<std::string, matchers::MatcherGroup> groups;
  for (const auto& score : scores) {
    if (matrix.find(score.matcher) == matrix.end()) {
      row_order.push_back(score.matcher);
    }
    matrix[score.matcher][score.dataset] = score.f1;
    groups[score.matcher] = score.group;
  }
  TablePrinter table(title);
  std::vector<std::string> header = {"method"};
  header.insert(header.end(), ids.begin(), ids.end());
  table.SetHeader(std::move(header));
  auto section = [&](matchers::MatcherGroup group, const char* label) {
    table.AddRow({label});
    for (const auto& name : row_order) {
      if (groups[name] != group) continue;
      std::vector<std::string> row = {name};
      for (const auto& id : ids) {
        auto it = matrix[name].find(id);
        row.push_back(it == matrix[name].end() ? "-" : Pct(it->second));
      }
      table.AddRow(std::move(row));
    }
    table.AddSeparator();
  };
  section(matchers::MatcherGroup::kDeepLearning,
          "(a) DL-based matching algorithms");
  section(matchers::MatcherGroup::kClassicMl,
          "(b) Non-neural, non-linear ML-based matching algorithms");
  section(matchers::MatcherGroup::kLinear,
          "(c) Non-neural, linear supervised matching algorithms");
  section(matchers::MatcherGroup::kZeroShot,
          "(d) Training-free zero-shot matching algorithms");
  table.Print(std::cout);
}

size_t PrintPractical(
    BenchRun& run, const Flags& flags, const std::vector<std::string>& ids,
    const std::string& cache_name, const std::string& table_bench,
    const std::function<std::vector<CachedScore>(size_t*)>& recompute,
    const std::string& title) {
  bool recompute_flag = flags.GetBool("recompute", false);
  run.manifest().AddConfig("recompute", static_cast<int64_t>(recompute_flag));
  auto cached = recompute_flag ? std::nullopt : LoadScores(cache_name);
  std::vector<CachedScore> scores;
  size_t failed = 0;
  if (cached) {
    scores = std::move(*cached);
    std::printf("(using cached scores from %s)\n", table_bench.c_str());
    for (const auto& id : ids) {
      bool present = std::any_of(
          scores.begin(), scores.end(),
          [&](const CachedScore& row) { return row.dataset == id; });
      if (present) continue;
      ++failed;
      RecordDatasetPhase(
          run, id, 0.0,
          Status::NotFound("dataset " + id + " is not in " + ResultsDir() +
                           "/" + cache_name + ".csv; run " + table_bench +
                           " with it or pass --recompute"));
    }
  } else {
    scores = recompute(&failed);
  }

  TablePrinter table(title);
  table.SetHeader({"dataset", "NLB%", "LBM%", "best nonlinear", "best linear"});
  {
    obs::ManifestPhase phase(&run.manifest(), "practical");
    for (const auto& id : ids) {
      std::vector<core::MatcherScore> dataset_scores;
      for (const auto& row : scores) {
        if (row.dataset == id) {
          dataset_scores.push_back({row.matcher, row.group, row.f1});
        }
      }
      if (dataset_scores.empty()) continue;
      auto practical = core::ComputePractical(dataset_scores);
      table.AddRow({id, Pct(practical.non_linear_boost),
                    Pct(practical.learning_based_margin),
                    F3(practical.best_nonlinear_f1),
                    F3(practical.best_linear_f1)});
    }
  }
  table.Print(std::cout);
  return failed;
}

size_t PrintLinearity(BenchRun& run, const TaskSource& tasks,
                      const std::vector<std::string>& ids,
                      const std::string& title) {
  std::vector<std::vector<std::string>> rows(ids.size());
  size_t failed = ForEachDataset(run, ids, [&](size_t i) -> Status {
    RLBENCH_ASSIGN_OR_RETURN(data::MatchingTask task, tasks.Task(ids[i]));
    auto result = core::ComputeLinearity(matchers::MatchingContext(&task));
    rows[i] = {ids[i], F3(result.f1_cosine),
               FormatDouble(result.threshold_cosine, 2),
               F3(result.f1_jaccard),
               FormatDouble(result.threshold_jaccard, 2)};
    return Status::OK();
  });
  TablePrinter table(title);
  table.SetHeader({"dataset", "F1max_CS", "t_CS", "F1max_JS", "t_JS"});
  for (auto& row : rows) {
    if (!row.empty()) table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return failed;
}

size_t PrintComplexity(BenchRun& run, const TaskSource& tasks,
                       const std::vector<std::string>& ids, size_t sample,
                       const std::string& title) {
  std::vector<std::optional<core::ComplexityReport>> reports(ids.size());
  size_t failed = ForEachDataset(run, ids, [&](size_t i) -> Status {
    RLBENCH_ASSIGN_OR_RETURN(data::MatchingTask task, tasks.Task(ids[i]));
    matchers::MatchingContext context(&task);
    core::ComplexityOptions options;
    options.max_points = sample;
    reports[i] =
        core::ComputeComplexity(core::PairFeaturePoints(context), options);
    return Status::OK();
  });
  TablePrinter table(title);
  bool header_set = false;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!reports[i]) continue;
    if (!header_set) {
      std::vector<std::string> header = {"dataset"};
      for (const auto& [name, value] : reports[i]->Items()) {
        header.push_back(name);
      }
      header.push_back("avg");
      table.SetHeader(std::move(header));
      header_set = true;
    }
    std::vector<std::string> row = {ids[i]};
    for (const auto& [name, value] : reports[i]->Items()) {
      row.push_back(FormatDouble(value, 2));
    }
    row.push_back(F3(reports[i]->Average()));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return failed;
}

}  // namespace rlbench::benchutil
