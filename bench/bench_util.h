// Shared helpers for the bench harnesses: percentage formatting, a
// results cache so the figure benches can reuse the expensive matcher runs
// of the table benches, the repeated-timing helper, the run manifest every
// bench records its results in, and the paper benches' per-dataset
// driver, task sources and shared reports.
#ifndef RLBENCH_BENCH_BENCH_UTIL_H_
#define RLBENCH_BENCH_BENCH_UTIL_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/benchmark_builder.h"
#include "core/practical.h"
#include "data/task.h"
#include "obs/manifest.h"

namespace rlbench::benchutil {

/// Percentage with two decimals, e.g. 0.97654 -> "97.65".
std::string Pct(double fraction);

/// Three decimals, e.g. "0.944".
std::string F3(double value);

// --- Matcher score cache ----------------------------------------------------

struct CachedScore {
  std::string dataset;
  std::string matcher;
  matchers::MatcherGroup group;
  double f1 = 0.0;
};

/// Directory for bench artifacts (created on demand): ./bench_results.
std::string ResultsDir();

/// Persist matcher scores as CSV under ResultsDir()/<name>.csv.
void SaveScores(const std::string& name, const std::vector<CachedScore>& rows);

/// Load a previously saved score file; nullopt when absent or malformed.
std::optional<std::vector<CachedScore>> LoadScores(const std::string& name);

// --- Timing -----------------------------------------------------------------

/// Wall-clock timing over repeated runs: median and median absolute
/// deviation (MAD), in seconds.
struct Timing {
  double median_s = 0.0;
  double mad_s = 0.0;
};

/// Runs `fn` once untimed (warm-up), then `repeats` (>= 1) timed times,
/// and returns the median and MAD of the timed runs.
Timing Measure(int repeats, const std::function<void()>& fn);

// --- Run bookkeeping --------------------------------------------------------

/// One object per bench binary: owns the run manifest, names the main
/// thread's trace track, and (in Finish) writes the machine-readable
/// artefacts plus the human-readable epilogue line — which is *derived
/// from* the manifest, so the printed seconds and the recorded seconds
/// can never disagree.
///
///   int main(...) {
///     benchutil::BenchRun run("table3_datasets");
///     { obs::ManifestPhase phase(&run.manifest(), "datasets"); ... }
///     run.Finish();
///   }
///
/// Finish() fills in thread count / hardware concurrency, writes the
/// Chrome trace when RLBENCH_TRACE is set, and always writes
/// ResultsDir()/<name>.manifest.json (atomically, via
/// data::FileSource::WriteAtomic).
class BenchRun {
 public:
  explicit BenchRun(const char* name);
  ~BenchRun();

  obs::RunManifest& manifest() { return manifest_; }

  /// Records `timing` as the results `<key>_median_s` and `<key>_mad_s`.
  void AddTiming(const std::string& key, const Timing& timing);

  /// Marks this run as the bench's reference invocation (default sizes, no
  /// --smoke). Finish() then also writes the finished manifest to
  /// ResultsDir()/BENCH_<stem>.json, the committed evidence for the
  /// bench's numbers; no other run writes there. A run with a failed
  /// phase or an armed RLBENCH_FAULTS spec is not published.
  void PublishAs(std::string stem) { publish_stem_ = std::move(stem); }

  /// Writes trace + manifest and prints the epilogue; idempotent.
  void Finish();

 private:
  obs::RunManifest manifest_;
  std::string publish_stem_;
  bool finished_ = false;
};

// --- Graceful per-dataset degradation ---------------------------------------

/// The per-dataset driver of the paper benches: runs `body(i)` for every
/// ids[i], fanned out across the pool at grain 1 (one dataset per chunk).
/// Nested Parallel* calls of a pooled body run inline, so each dataset
/// computes exactly what a serial drive computes; a one-dataset run calls
/// its body on the calling thread, whose Parallel* calls keep the pool.
/// A body writes only its own result slot (the manifest and TablePrinter
/// are not thread-safe) and runs under a "dataset/<id>" trace span. After
/// the join, in id order, each dataset becomes the manifest phase
/// "dataset/<id>"; a failing one records its Status and prints a
/// "(continuing)" warning. Returns the number of failed datasets; benches
/// exit 0 as long as at least one dataset succeeded.
size_t ForEachDataset(BenchRun& run, const std::vector<std::string>& ids,
                      const std::function<Status(size_t)>& body);

/// Record one dataset phase that was timed off-manifest.
void RecordDatasetPhase(BenchRun& run, const std::string& id, double seconds,
                        const Status& status);

// --- Task sources ------------------------------------------------------------

/// One dataset family's tasks. A source reads its flags once, records them
/// as config, and builds a dataset's labelled task by id; Task() may run
/// from concurrent ForEachDataset bodies.
class TaskSource {
 public:
  /// NotFound for an id outside the family.
  [[nodiscard]] virtual Result<data::MatchingTask> Task(
      const std::string& id) const = 0;

 protected:
  ~TaskSource() = default;
};

/// The 13 established benchmarks of Table III (ids Ds*, Dd*, Dt*), built
/// by datagen::BuildExistingBenchmark.
class ExistingTasks final : public TaskSource {
 public:
  /// Dataset ids from --datasets=Ds1,Ds2 (comma separated), else all 13 in
  /// catalog order; recorded as the manifest's datasets.
  static std::vector<std::string> SelectIds(const Flags& flags,
                                            BenchRun& run);

  /// Every task at the fixed `scale` (Table III's sizes), recorded as
  /// config "scale".
  ExistingTasks(BenchRun& run, double scale);

  /// Every task capped at --max-pairs labelled pairs (default
  /// `default_max_pairs`), recorded as config "max_pairs".
  ExistingTasks(const Flags& flags, BenchRun& run, size_t default_max_pairs);

  [[nodiscard]] Result<data::MatchingTask> Task(
      const std::string& id) const override;

 private:
  std::optional<double> scale_;  // fixed scale; else capped at max_pairs_
  size_t max_pairs_ = 0;
};

/// The new benchmarks of Section VI (Table V, ids Dn*), built from their
/// source datasets by core::BuildNewBenchmark.
class NewTasks final : public TaskSource {
 public:
  /// Dataset ids from --datasets=Dn1,Dn2 (comma separated), else all eight
  /// in catalog order; recorded as the manifest's datasets.
  static std::vector<std::string> SelectIds(const Flags& flags,
                                            BenchRun& run);

  /// Reads --scale, --recall and --kmax (defaults 0.35, 0.9 and 64, the
  /// paper's Section VI setting) and records them as config. A bench with
  /// a `default_max_pairs` also reads --max-pairs, records "max_pairs",
  /// and caps every task at that many labelled pairs by thinning easy
  /// negatives (positives are always kept).
  NewTasks(const Flags& flags, BenchRun& run,
           std::optional<size_t> default_max_pairs = std::nullopt);

  /// Steps 1-3 of the methodology for dataset `id`.
  [[nodiscard]] Result<core::NewBenchmark> Build(const std::string& id) const;

  /// Build(id)'s task.
  [[nodiscard]] Result<data::MatchingTask> Task(
      const std::string& id) const override;

  const core::NewBenchmarkOptions& options() const { return options_; }

 private:
  core::NewBenchmarkOptions options_;
  std::optional<size_t> max_pairs_;
};

// --- Shared reports ----------------------------------------------------------

/// Scores the matcher line-up (matchers::BuildMatcherLineup at
/// --epoch-scale, recorded as config "epoch_scale") on every dataset of
/// `ids` through ForEachDataset, saves the rows as the score cache
/// `cache_name` (SaveScores) and returns them in id order. Adds the number
/// of failed datasets to `*failed`.
std::vector<CachedScore> ScoreLineups(BenchRun& run, const Flags& flags,
                                      const TaskSource& tasks,
                                      const std::vector<std::string>& ids,
                                      const std::string& cache_name,
                                      size_t* failed);

/// Tables IV and VI: F1 x100 per matcher (rows, in line-up order, in the
/// four matcher-group sections) and dataset (columns; "-" where a dataset
/// has no score).
void PrintMatcherTable(const std::string& title,
                       const std::vector<std::string>& ids,
                       const std::vector<CachedScore>& scores);

/// Figures 3 and 6: non-linear boost and learning-based margin per
/// dataset. The scores come from the score cache `cache_name` written by
/// `table_bench`, or, with --recompute or when no cache exists, from
/// `recompute` (which adds its failed datasets to its argument). A dataset
/// of `ids` missing from a loaded cache is a failed phase. Records config
/// "recompute"; returns the number of failed datasets.
size_t PrintPractical(
    BenchRun& run, const Flags& flags, const std::vector<std::string>& ids,
    const std::string& cache_name, const std::string& table_bench,
    const std::function<std::vector<CachedScore>(size_t*)>& recompute,
    const std::string& title);

/// Figures 1 and 4: Algorithm 1's degree of linearity (best-threshold F1
/// and its threshold, for cosine and Jaccard) per dataset. Returns the
/// number of failed datasets.
size_t PrintLinearity(BenchRun& run, const TaskSource& tasks,
                      const std::vector<std::string>& ids,
                      const std::string& title);

/// Figures 2 and 5: the 17 complexity measures (Table I order) and their
/// average per dataset; the O(n^2) measures run on at most `sample`
/// points. Returns the number of failed datasets.
size_t PrintComplexity(BenchRun& run, const TaskSource& tasks,
                       const std::vector<std::string>& ids, size_t sample,
                       const std::string& title);

}  // namespace rlbench::benchutil

#endif  // RLBENCH_BENCH_BENCH_UTIL_H_
