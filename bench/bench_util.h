// Shared helpers for the bench harnesses: dataset selection flags,
// automatic scale capping, percentage formatting, a results cache so the
// figure benches can reuse the expensive matcher runs of the table
// benches, the repeated-timing helper, and the run manifest every bench
// records its results in.
#ifndef RLBENCH_BENCH_BENCH_UTIL_H_
#define RLBENCH_BENCH_BENCH_UTIL_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/practical.h"
#include "obs/manifest.h"

namespace rlbench::benchutil {

/// Scale factor capping a benchmark at `max_pairs` labelled pairs.
double AutoScale(size_t total_pairs, size_t max_pairs);

/// Dataset ids from --datasets=Ds1,Ds2 (comma separated); `fallback` when
/// the flag is absent.
std::vector<std::string> SelectIds(const Flags& flags,
                                   const std::vector<std::string>& fallback);

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

/// Run `body(id)` for each dataset id under a manifest phase
/// "dataset/<id>". A failing dataset marks its phase "failed" (with the
/// Status message), prints a warning, and the run continues with the next
/// id. Returns the number of failed datasets — benches exit 0 as long as
/// at least one dataset succeeded.
size_t ForEachDataset(BenchRun& run, const std::vector<std::string>& ids,
                      const std::function<Status(const std::string&)>& body);

/// Record one dataset phase that was timed off-manifest (parallel benches
/// join first, then record in deterministic id order on the main thread).
void RecordDatasetPhase(BenchRun& run, const std::string& id, double seconds,
                        const Status& status);

/// Cap a task's pair count by thinning easy negatives (positives are
/// always kept, so difficulty is preserved or increased). Shared by the
/// matcher harnesses over the blocking-generated benchmarks.
void CapPairs(data::MatchingTask* task, size_t max_pairs);

}  // namespace rlbench::benchutil

#endif  // RLBENCH_BENCH_BENCH_UTIL_H_
