#include "e2e.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/rng.h"
#include "data/file_source.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace rlbench::e2e {

uint64_t InputSeed(uint64_t catalog_seed, uint64_t seed) {
  return seed == 1 ? catalog_seed : SplitSeed(catalog_seed, seed);
}

void Report::AddCheck(std::string name, bool ok, std::string detail) {
  checks_.push_back({std::move(name), ok, std::move(detail)});
}

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& check) { return check.ok; });
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = {value, unit};
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_[name] = {value, unit};
}

Spans::Scope::Scope(Spans* spans, const std::string& name)
    : spans_(spans),
      name_(name),
      cpu_start_s_(CpuSeconds()),
      trace_(spans->Intern(name)) {
  spans_->stack_.push_back(this);
}

Spans::Scope::~Scope() {
  double wall = watch_.ElapsedSeconds();
  Totals& totals = spans_->totals_[name_];
  totals.wall_s += wall;
  totals.self_s += wall - child_s_;
  totals.cpu_s += CpuSeconds() - cpu_start_s_;
  ++totals.count;
  spans_->stack_.pop_back();
  if (!spans_->stack_.empty()) spans_->stack_.back()->child_s_ += wall;
}

Spans::Totals Spans::Get(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

const char* Spans::Intern(const std::string& name) {
  return names_.insert(prefix_ + name).first->c_str();
}

void Spans::Export(Report* report) const {
  for (const auto& [name, totals] : totals_) {
    const std::string key = prefix_ + name;
    report->Detail(key + ".count", static_cast<double>(totals.count), "count");
    report->Detail(key + ".wall_s", totals.wall_s, "s");
    report->Detail(key + ".self_s", totals.self_s, "s");
    report->Detail(key + ".cpu_s", totals.cpu_s, "s");
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double position = q * static_cast<double>(values.size() - 1);
  size_t below = static_cast<size_t>(std::floor(position));
  size_t above = std::min(below + 1, values.size() - 1);
  double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double CpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  return static_cast<double>(obs::PeakRssBytes()) / (1024.0 * 1024.0);
}

std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Fnv1aHex(std::string_view bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

namespace {

ReferenceRun RunReference() {
  static volatile size_t sink = 0;
  const double cpu_start_s = CpuSeconds();
  Stopwatch watch;
  std::vector<std::string> strings;
  strings.reserve(100000);
  uint64_t state = 12345;
  for (int i = 0; i < 100000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    strings.push_back(std::to_string(state >> 20) + "abc");
  }
  std::sort(strings.begin(), strings.end());
  sink = sink + strings[strings.size() / 2].size();
  ReferenceRun run;
  run.ms = watch.ElapsedMillis();
  run.cpu_s = CpuSeconds() - cpu_start_s;
  return run;
}

bool ReadFull(int fd, void* data, size_t size) {
  char* out = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, out, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const void* data, size_t size) {
  const char* in = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, in, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    in += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// The helper: one reference run per CPU number read, until end of file.
[[noreturn]] void ReferenceHelperMain(int request_fd, int reply_fd) {
  int32_t cpu = 0;
  while (ReadFull(request_fd, &cpu, sizeof(cpu))) {
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);  // best effort
    }
    const ReferenceRun run = RunReference();
    if (!WriteFull(reply_fd, &run, sizeof(run))) break;
  }
  _exit(0);
}

}  // namespace

ReferenceProcess::ReferenceProcess() {
  int request[2];
  int reply[2];
  if (pipe2(request, O_CLOEXEC) != 0) return;
  if (pipe2(reply, O_CLOEXEC) != 0) {
    close(request[0]);
    close(request[1]);
    return;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(request[1]);
    close(reply[0]);
    ReferenceHelperMain(request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  if (pid < 0) {
    close(request[1]);
    close(reply[0]);
    return;
  }
  pid_ = pid;
  request_fd_ = request[1];
  reply_fd_ = reply[0];
}

ReferenceProcess::~ReferenceProcess() {
  if (pid_ < 0) return;
  close(request_fd_);
  close(reply_fd_);
  int wstatus = 0;
  while (waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
}

Status ReferenceProcess::Run(ReferenceRun* run) {
  const int32_t cpu = sched_getcpu();
  if (pid_ < 0 || !WriteFull(request_fd_, &cpu, sizeof(cpu)) ||
      !ReadFull(reply_fd_, run, sizeof(*run))) {
    return Status::IOError("reference helper failed");
  }
  return Status::OK();
}

Status OpTimings::Reference() {
  ReferenceRun run;
  RLBENCH_RETURN_NOT_OK(reference.Run(&run));
  reference_ms.push_back(run.ms);
  reference_cpu_s.push_back(run.cpu_s);
  return Status::OK();
}

namespace {

/// Median over i of values[i] / reference[i].
double MedianRatio(const std::vector<double>& values,
                   const std::vector<double>& reference) {
  std::vector<double> ratios(values.size());
  for (size_t i = 0; i < values.size(); ++i) ratios[i] = values[i] / reference[i];
  return Quantile(ratios, 0.5);
}

}  // namespace

void OpTimings::Fill(double items, const std::string& op, Pass* pass) const {
  pass->setup_s = MedianRatio(setup_s, reference_ms) * kReferenceMs;
  pass->latency_ms = MedianRatio(op_ms, reference_ms) * kReferenceMs;
  pass->throughput_per_s =
      items / (MedianRatio(op_cpu_s, reference_cpu_s) * kReferenceMs / 1000.0);
  pass->samples["setup_s"] = setup_s;
  pass->samples["reference_ms"] = reference_ms;
  pass->samples["reference_cpu_s"] = reference_cpu_s;
  pass->samples[op + "_ms"] = op_ms;
  pass->samples[op + "_cpu_s"] = op_cpu_s;
}

namespace {

std::string MetricsJson(const std::map<std::string, Report::Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ",";
    out += obs::JsonString(name) + ":{\"value\":" + obs::JsonNumber(metric.value) +
           ",\"unit\":" + obs::JsonString(metric.unit) + "}";
  }
  return out + "}";
}

std::string NumbersJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += obs::JsonNumber(values[i]);
  }
  return out + "]";
}

std::string PassJson(const Pass& pass) {
  std::string out = "{\"traced\":" + std::string(pass.traced ? "true" : "false") +
                    ",\"seconds\":" + obs::JsonNumber(pass.seconds) +
                    ",\"setup_s\":" + obs::JsonNumber(pass.setup_s) +
                    ",\"latency_ms\":" + obs::JsonNumber(pass.latency_ms) +
                    ",\"throughput_per_s\":" +
                    obs::JsonNumber(pass.throughput_per_s) +
                    ",\"peak_rss_mb\":" + obs::JsonNumber(pass.peak_rss_mb) +
                    ",\"attempted\":" + std::to_string(pass.attempted) +
                    ",\"failed\":" + std::to_string(pass.failed) +
                    ",\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : pass.samples) {
    if (!first) out += ",";
    first = false;
    out += obs::JsonString(name) + ":" + NumbersJson(values);
  }
  return out + "}}";
}

std::string PinsJson(const std::map<std::string, std::string>& pins) {
  std::string out = "{";
  for (const auto& [key, value] : pins) {
    if (out.size() > 1) out += ",";
    out += obs::JsonString(key) + ":" + obs::JsonString(value);
  }
  return out + "}";
}

Status RunWorkload(const Options& options, Pass* pass, Report* report) {
  if (options.workload == "paper") return RunPaper(options, pass, report);
  if (options.workload == "bulk_sn" || options.workload == "bulk_minhash") {
    return RunBulk(options, pass, report);
  }
  if (options.workload == "serve") return RunServe(options, pass, report);
  return Status::InvalidArgument("unknown workload '" + options.workload +
                                 "' (paper, bulk_sn, bulk_minhash, serve)");
}

/// The traced pass must compute exactly what the untraced pass did:
/// tracing and metrics are observation-only.
void CompareAcrossPasses(const Pass& untraced, const Pass& traced,
                         Report* report) {
  size_t differing = 0;
  std::string first;
  for (const auto& [key, value] : untraced.pins) {
    auto it = traced.pins.find(key);
    if (it == traced.pins.end() || it->second != value) {
      if (differing++ == 0) first = key;
    }
  }
  report->AddCheck("traced pass reproduces the untraced results",
                   differing == 0 && untraced.pins.size() == traced.pins.size(),
                   differing == 0 ? std::to_string(untraced.pins.size()) +
                                        " values"
                                  : std::to_string(differing) +
                                        " differ, first " + first);
}

}  // namespace

}  // namespace rlbench::e2e

int main(int argc, char** argv) {
  using namespace rlbench;
  using namespace rlbench::e2e;
  Flags flags(argc, argv);
  if (flags.GetBool("serve_child", false)) return ServeChildMain(flags);

  Options options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.smoke = flags.GetBool("smoke", false);
  options.scratch = flags.GetString("scratch", "");
  options.binary = argv[0];
  const double seconds = flags.GetDouble("seconds", 10.0);
  const std::string trace_dir = flags.GetString("trace", "");
  if (options.scratch.empty() || !(seconds > 0.0)) {
    std::fprintf(stderr, "usage: rlbench_e2e --workload=<name> --seed=<n> "
                         "--seconds=<s> --scratch=<dir> [--trace=<dir>] "
                         "[--smoke]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.scratch, ec);
  if (!trace_dir.empty()) std::filesystem::create_directories(trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.scratch.c_str(),
                 ec.message().c_str());
    return 2;
  }

  // A traced run spends half its budget untraced, as the baseline of the
  // tracing overhead, and half traced; the end-to-end numbers it reports
  // come from the untraced half.
  Report report;
  Pass untraced;
  untraced.seconds = trace_dir.empty() ? seconds : seconds / 2.0;
  Status status = RunWorkload(options, &untraced, &report);
  if (untraced.peak_rss_mb == 0.0) untraced.peak_rss_mb = PeakRssMb();

  Pass traced;
  if (status.ok() && !trace_dir.empty()) {
    obs::Metrics::SetEnabled(true);
    obs::Metrics::Instance().ResetAll();
    obs::SetTraceFile(trace_dir + "/trace.json");
    Options traced_options = options;
    traced_options.trace_dir = trace_dir;
    traced.traced = true;
    traced.seconds = seconds / 2.0;
    status = RunWorkload(traced_options, &traced, &report);
    obs::WriteTraceIfEnabled();
    if (status.ok()) {
      CompareAcrossPasses(untraced, traced, &report);
      report.Layer("e2e.trace_overhead",
                   traced.latency_ms / untraced.latency_ms, "ratio");
      const std::string path = trace_dir + "/layers.json";
      Status written = data::FileSource::WriteAtomic(
          path, "{\"workload\":" + obs::JsonString(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"metrics\":" + MetricsJson(report.layers()) +
                    ",\"absolute\":" + MetricsJson(report.details()) + "}\n");
      report.AddCheck("layers.json written", written.ok(), written.ToString());
    }
  }
  std::filesystem::remove_all(options.scratch, ec);
  if (!status.ok()) {
    report.AddCheck("workload ran", false, status.ToString());
  }

  const bool correct = report.correct();
  std::string checks = "[";
  for (const Report::Check& check : report.checks()) {
    if (checks.size() > 1) checks += ",";
    checks += "{\"name\":" + obs::JsonString(check.name) + ",\"ok\":" +
              (check.ok ? "true" : "false") +
              ",\"detail\":" + obs::JsonString(check.detail) + "}";
    if (!check.ok) {
      std::fprintf(stderr, "CHECK FAILED: %s: %s\n", check.name.c_str(),
                   check.detail.c_str());
    }
  }
  checks += "]";

  std::map<std::string, Report::Metric> end_to_end = {
      {"setup_s", {untraced.setup_s, "s"}},
      {"peak_rss_mb", {untraced.peak_rss_mb, "MiB"}},
      {"latency_ms", {untraced.latency_ms, "ms"}},
      {"throughput_per_s", {untraced.throughput_per_s, "1/s"}},
  };
  std::string out =
      "{\"workload\":" + obs::JsonString(options.workload) +
      ",\"seed\":" + std::to_string(options.seed) +
      ",\"smoke\":" + (options.smoke ? "true" : "false") +
      ",\"correct\":" + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(untraced.attempted + traced.attempted) +
      ",\"failed\":" + std::to_string(untraced.failed + traced.failed) +
      ",\"checks\":" + checks + ",\"metrics\":" + MetricsJson(end_to_end) +
      ",\"layers\":" + MetricsJson(report.layers()) +
      ",\"pins\":" + PinsJson(untraced.pins) +
      ",\"passes\":[" + PassJson(untraced) +
      (trace_dir.empty() ? "" : "," + PassJson(traced)) + "]}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
