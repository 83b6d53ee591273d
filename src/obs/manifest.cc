#include "obs/manifest.h"

#include <cstdio>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"

namespace rlbench::obs {

namespace {

// `git describe` of the working tree, resolved once per process. Benches
// run from arbitrary cwds, so a failure (no git, no repo) degrades to
// "unknown" rather than erroring.
std::string GitDescribe() {
  static std::once_flag once;
  static std::string cached = "unknown";
  std::call_once(once, [] {
    FILE* pipe =
        popen("git describe --always --dirty --tags 2>/dev/null", "r");
    if (pipe == nullptr) return;
    char buf[256];
    std::string out;
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    if (pclose(pipe) == 0 && !out.empty()) {
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
      if (!out.empty()) cached = out;
    }
  });
  return cached;
}

void AppendHistogramJson(std::string* out, const Histogram& histogram) {
  *out += "{\"count\": " + std::to_string(histogram.Count());
  *out += ", \"sum\": " + JsonNumber(histogram.Sum());
  *out += ", \"min\": " + JsonNumber(histogram.Min());
  *out += ", \"max\": " + JsonNumber(histogram.Max());
  *out += ", \"p50\": " + JsonNumber(histogram.Percentile(0.5));
  *out += ", \"p90\": " + JsonNumber(histogram.Percentile(0.9));
  *out += ", \"p99\": " + JsonNumber(histogram.Percentile(0.99));
  *out += "}";
}

}  // namespace

// The trace span inside an open phase needs a stable name string; the
// holder owns the copy so `phases_` reallocations cannot dangle it.
struct RunManifest::PhaseSpan {
  explicit PhaseSpan(std::string phase_name)
      : name(std::move(phase_name)), span(name.c_str()) {}
  std::string name;
  TraceSpan span;
};

RunManifest::RunManifest(std::string bench_name)
    : name_(std::move(bench_name)), start_(std::chrono::steady_clock::now()) {}

RunManifest::~RunManifest() = default;

void RunManifest::AddConfig(const std::string& key, const std::string& value) {
  config_.emplace_back(key, JsonString(value));
}

void RunManifest::AddConfig(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

void RunManifest::AddConfig(const std::string& key, int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunManifest::AddResult(const std::string& key, double value) {
  results_.emplace_back(key, value);
}

void RunManifest::BeginPhase(const std::string& phase_name) {
  phases_.push_back(Phase{phase_name, 0.0, true, false, ""});
  phase_stack_.push_back(phases_.size() - 1);
  phase_spans_.push_back(std::make_unique<PhaseSpan>(phase_name));
  phase_starts_.push_back(std::chrono::steady_clock::now());
}

void RunManifest::EndPhase() {
  if (phase_stack_.empty()) return;
  phase_spans_.pop_back();  // closes the trace span first
  size_t index = phase_stack_.back();
  phase_stack_.pop_back();
  auto started = phase_starts_.back();
  phase_starts_.pop_back();
  phases_[index].seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  phases_[index].open = false;
}

void RunManifest::FailPhase(const std::string& error) {
  if (phase_stack_.empty()) return;
  Phase& phase = phases_[phase_stack_.back()];
  phase.failed = true;
  phase.error = error;
}

void RunManifest::AddCompletedPhase(const std::string& phase_name,
                                    double seconds, bool failed,
                                    const std::string& error) {
  phases_.push_back(Phase{phase_name, seconds, false, failed, error});
}

bool RunManifest::HasFailedPhase() const {
  for (const Phase& phase : phases_) {
    if (phase.failed) return true;
  }
  return false;
}

double RunManifest::TotalSeconds() const {
  if (frozen_total_ >= 0.0) return frozen_total_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void RunManifest::Finalize() {
  frozen_total_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
}

std::string RunManifest::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema_version\": 3,\n";
  out += "  \"bench\": " + JsonString(name_) + ",\n";
  out += "  \"git\": " + JsonString(GitDescribe()) + ",\n";
  out += "  \"threads\": " + std::to_string(threads_) + ",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(hardware_concurrency_) + ",\n";
  out += "  \"peak_rss_bytes\": " + std::to_string(peak_rss_bytes_) + ",\n";
  if (has_seed_) {
    out += "  \"seed\": " + std::to_string(seed_) + ",\n";
  }
  out += "  \"datasets\": [";
  for (size_t i = 0; i < datasets_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(datasets_[i]);
  }
  out += "],\n";
  out += "  \"config\": {";
  for (size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(config_[i].first) + ": " + config_[i].second;
  }
  out += "},\n";
  if (!results_.empty()) {
    out += "  \"results\": {";
    for (size_t i = 0; i < results_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n    " + JsonString(results_[i].first) + ": " +
             JsonNumber(results_[i].second);
    }
    out += "\n  },\n";
  }
  out += "  \"phases\": [";
  for (size_t i = 0; i < phases_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": " + JsonString(phases_[i].name) +
           ", \"seconds\": " + JsonNumber(phases_[i].seconds) +
           ", \"status\": " + (phases_[i].failed ? "\"failed\"" : "\"ok\"");
    if (phases_[i].failed) {
      out += ", \"error\": " + JsonString(phases_[i].error);
    }
    out += "}";
  }
  out += "],\n";
  out += "  \"total_seconds\": " + JsonNumber(TotalSeconds());
  if (!trace_file_.empty()) {
    out += ",\n  \"trace_file\": " + JsonString(trace_file_);
  }
  if (MetricsEnabled()) {
    Metrics& metrics = Metrics::Instance();
    out += ",\n  \"counters\": {";
    bool first = true;
    for (const auto& entry : metrics.Counters()) {
      if (!first) out += ", ";
      first = false;
      out += "\n    " + JsonString(entry.first) + ": " +
             std::to_string(entry.second->Value());
    }
    out += first ? "}" : "\n  }";
    out += ",\n  \"gauges\": {";
    first = true;
    for (const auto& entry : metrics.Gauges()) {
      if (!first) out += ", ";
      first = false;
      out += "\n    " + JsonString(entry.first) + ": " +
             JsonNumber(entry.second->Value());
    }
    out += first ? "}" : "\n  }";
    out += ",\n  \"histograms\": {";
    first = true;
    for (const auto& entry : metrics.Histograms()) {
      if (!first) out += ", ";
      first = false;
      out += "\n    " + JsonString(entry.first) + ": ";
      AppendHistogramJson(&out, *entry.second);
    }
    out += first ? "}" : "\n  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace rlbench::obs
