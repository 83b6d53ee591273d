// End-to-end benchmark of rlbench's three user paths: the paper's
// difficulty assessment, out-of-core bulk resolution, and the match server.
// Each workload times calls into the public functions of the library's
// layers from outside and reads only what the program already emits
// (per-shard manifests, obs counters and histograms, the stats op).
//
// A run is one process: `rlbench_e2e --workload=<name> --seed=<n>
// --seconds=<s> --scratch=<dir> [--trace=<dir>] [--smoke]`. It prints one
// JSON object as the last line of stdout; run.py turns that into the
// benchmark's result line. See README.md for the workloads and metrics.
#ifndef RLBENCH_BENCH_E2E_E2E_H_
#define RLBENCH_BENCH_E2E_E2E_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace rlbench::e2e {

/// What one invocation runs.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool smoke = false;
  /// Per-run directory for spill files and model repositories; created
  /// before the first pass and removed after the last.
  std::string scratch;
  /// Path of this executable; the serve workload re-executes it as the
  /// server child.
  std::string binary;
  /// Where the traced pass writes its Chrome traces; empty when untraced.
  std::string trace_dir;
};

/// Input seed of a catalog spec: seed 1 keeps the catalog's own seed, so
/// seed 1 reproduces the specs unchanged; other seeds derive a new one.
uint64_t InputSeed(uint64_t catalog_seed, uint64_t seed);

/// Pool threads of the batch workloads (paper, bulk_sn, bulk_minhash).
/// On a shared 4-vCPU host every vCPU's speed drifts with its neighbours'
/// load, and a pass that waits at each ParallelFor for its slowest thread
/// drifts most: over ten seeds the run-to-run spread (IQR / median) was
/// 19-26% with 4 threads, 5-17% with 2 and 4-7% with 1. Results are
/// identical at any thread count, so this changes only the timing.
constexpr size_t kBatchThreads = 1;

/// The host-speed reference's wall time on a quiet vCPU of the VM in
/// README.md. The batch workloads report a timing t as t / reference ×
/// kReferenceMs: what it would take on that VM when quiet.
constexpr double kReferenceMs = 28.0;

/// \brief One run of the host-speed reference: build 100,000 short strings
/// and sort them, using nothing from the library.
struct ReferenceRun {
  double ms = 0.0;     ///< wall time
  double cpu_s = 0.0;  ///< CPU time
};

/// \brief A helper process that runs the host-speed reference on request.
///
/// On a shared host the speed of a vCPU drifts with its neighbours' cache
/// and memory traffic, by up to ~40% over minutes, and a whole run usually
/// sits in one spell. The batch workloads run the reference just before
/// each operation and report their timings relative to it: string
/// building, hashing and sorting slow down with the host as the library's
/// text paths do. Over ten seeds the spread (IQR / median) of the fastest
/// `paper` pass was 16%; that of pass / reference was 5%.
///
/// The helper is forked at construction, so the reference's memory counts
/// neither in the workload's peak RSS nor in its CPU time. Each run is
/// pinned to the CPU the caller is on.
class ReferenceProcess {
 public:
  ReferenceProcess();
  /// Closes the request pipe, on which the helper exits, and waits for it.
  ~ReferenceProcess();
  ReferenceProcess(const ReferenceProcess&) = delete;
  ReferenceProcess& operator=(const ReferenceProcess&) = delete;

  /// Runs the reference once and returns the helper's own timings.
  [[nodiscard]] Status Run(ReferenceRun* run);

 private:
  int pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
};

/// \brief One pass of a workload: its measuring budget, what it measured,
/// and the results pinned for the golden file and the cross-pass check.
struct Pass {
  bool traced = false;
  double seconds = 0.0;

  /// Set-up time. For the batch workloads, host-adjusted (see OpTimings);
  /// for serve, the median of the three children's spawn times.
  double setup_s = 0.0;
  /// The workload's user-facing operation. For serve, the p50 request
  /// latency at light load. For the batch workloads, the host-adjusted
  /// operation time.
  double latency_ms = 0.0;
  /// Items the operation completes per second of CPU time of the process
  /// doing the work: for serve, of the server child; for the batch
  /// workloads, host-adjusted.
  double throughput_per_s = 0.0;
  double peak_rss_mb = 0.0;       ///< serve: the server child; else unset
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Exact results: `%.17g` numbers or digests, keyed by what they are.
  std::map<std::string, std::string> pins;
  /// Raw per-operation samples kept for the results file.
  std::map<std::string, std::vector<double>> samples;
};

/// \brief Timings of a batch workload's operations. Each operation has its
/// set-up, then a reference run, then the operation itself.
struct OpTimings {
  std::vector<double> setup_s;
  std::vector<double> reference_ms;
  std::vector<double> reference_cpu_s;
  std::vector<double> op_ms;
  std::vector<double> op_cpu_s;
  ReferenceProcess reference;

  /// Runs the reference once; call between a set-up and its operation.
  [[nodiscard]] Status Reference();
  /// Sets the pass's end-to-end timings, each the median over operations
  /// of timing / reference × kReferenceMs (CPU time over the reference's
  /// CPU time for the throughput); `items` is what one operation
  /// completes. Keeps the raw samples, the operation's as `<op>_ms` and
  /// `<op>_cpu_s`.
  void Fill(double items, const std::string& op, Pass* pass) const;
};

/// \brief The measuring budget of a batch workload. Another operation
/// starts only if, at the pace of the last one, it ends within `seconds`,
/// so a run ends at its budget rather than up to one operation past it.
/// The first operation always runs.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}

  /// Whether to start another operation; call once before each.
  bool Next() {
    const double now = watch_.ElapsedSeconds();
    const double last = now - start_;
    start_ = now;
    return ops_++ == 0 || now + last <= seconds_;
  }

 private:
  double seconds_;
  double start_ = 0.0;
  uint64_t ops_ = 0;
  Stopwatch watch_;
};

/// \brief Correctness verdicts, per-layer metrics and the absolute layer
/// values behind them, accumulated over a run.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  void AddCheck(std::string name, bool ok, std::string detail = "");
  bool correct() const;
  const std::vector<Check>& checks() const { return checks_; }

  /// A per-layer metric (what a traced run reports).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// An absolute layer value; written to layers.json only.
  void Detail(const std::string& name, double value, const std::string& unit);

  const std::map<std::string, Metric>& layers() const { return layers_; }
  const std::map<std::string, Metric>& details() const { return details_; }

 private:
  std::vector<Check> checks_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, Metric> details_;
};

/// \brief Wall time, self time and process CPU time of the benchmark's own
/// spans, named `e2e/<workload>/<layer>.<call>` in the Chrome trace.
///
/// Self time is a span's wall time minus the part its child spans cover.
/// CPU time is the whole process's (all threads), so cpu / wall of a span
/// is how many cores it kept busy. Accounting runs whether or not tracing
/// is on; the trace span itself is a no-op when it is off.
class Spans {
 public:
  struct Totals {
    double wall_s = 0.0;
    double self_s = 0.0;
    double cpu_s = 0.0;
    uint64_t count = 0;
  };

  explicit Spans(std::string workload) : prefix_("e2e/" + workload + "/") {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// \brief RAII span around one call into a layer.
  class Scope {
   public:
    Scope(Spans* spans, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::string name_;
    double cpu_start_s_;
    double child_s_ = 0.0;
    Stopwatch watch_;
    obs::TraceSpan trace_;
  };

  /// Totals of one span name; zero when it never ran.
  Totals Get(const std::string& name) const;

  /// Every span's count, wall, self and CPU seconds as layer details.
  void Export(Report* report) const;

 private:
  const char* Intern(const std::string& name);

  std::string prefix_;
  std::set<std::string> names_;  // stable storage for trace span names
  std::map<std::string, Totals> totals_;
  std::vector<Scope*> stack_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// CPU seconds used by this process so far, all threads.
double CpuSeconds();

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// `%.17g`: reads back bit-exactly.
std::string Exact(double value);

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string Fnv1aHex(std::string_view bytes);

// --- Workloads ---------------------------------------------------------------
// Each runs one pass: operations, each after its own set-up, within
// pass->seconds; then the correctness checks (outside the timed region),
// and on a traced pass the per-layer metrics.

[[nodiscard]] Status RunPaper(const Options& options, Pass* pass,
                              Report* report);
[[nodiscard]] Status RunBulk(const Options& options, Pass* pass,
                             Report* report);
[[nodiscard]] Status RunServe(const Options& options, Pass* pass,
                              Report* report);

/// Entry point of the re-executed server child (`--serve_child`).
int ServeChildMain(const Flags& flags);

}  // namespace rlbench::e2e

#endif  // RLBENCH_BENCH_E2E_E2E_H_
