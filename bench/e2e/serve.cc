// The serve workload. A child process — this binary re-executed with
// --serve_child — generates a full-scale benchmark, trains Magellan-RF,
// publishes it to a scratch ModelRepository, and serves the published
// snapshot through MatchServer on a 3-thread pool, with default options
// but for a deeper admission queue (see ServeChildMain).
// A single-threaded generator in this process drives it over 4 loopback
// connections through the public wire API (serve/net.h, serve/wire.h),
// sending match_batch requests of 4 test-split pairs in seeded order.
//
// Three phases, each against a fresh child (so every child's obs registry
// describes exactly one phase, and the spawn is the workload's set-up).
// A phase's share of the budget covers its spawn; load runs for the rest:
//   light     open loop at a fixed rate well below saturation: the p50;
//   heavy     open loop at a higher fixed rate: the tail;
//   saturate  closed loop, 16 requests in flight per connection: pairs per
//             second of the server's CPU time.
// Open-loop latency runs from when a request was due, so a stalled
// generator or server charges its backlog to every later request.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "data/file_source.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "e2e.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/model_repository.h"
#include "serve/net.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace rlbench::e2e {
namespace {

constexpr size_t kConnections = 4;
constexpr size_t kPairsPerRequest = 4;
constexpr size_t kClosedInFlight = 16;  // per connection, saturate phase
constexpr uint64_t kCheckEvery = 64;
constexpr size_t kServerThreads = 3;
constexpr char kMatcher[] = "Magellan-RF";

struct ServeSizes {
  const char* dataset;
  double light_rate;  // requests/s
  double heavy_rate;
  double warmup_s;    // unrecorded load before each phase
  size_t probe_calls;
};

// Scoring a Ds2 pair costs ~45 us, and a batch of up to 32 pairs runs
// inline on the event-loop thread (one pool chunk), so below ~5500
// requests/s one thread does all the work. At the light rate that thread
// is ~55% busy: lighter, its p50 is dominated by waking an idle vCPU and
// repeats worst (0.21-0.32 ms at 1500/s over ten runs); heavier, by
// queueing. The heavy rate keeps it ~80% busy, for the tail.
// Saturation, with batches large enough to fan out, is ~10-12k requests/s.
ServeSizes Sizes(bool smoke) {
  if (smoke) return {"Ds7", 1000.0, 1500.0, 0.05, 200};
  return {"Ds2", 3000.0, 4500.0, 0.25, 5000};
}

enum class Loop { kOpen, kClosed };

struct PhaseSpec {
  const char* name;
  Loop loop;
  double rate;   // open loop only
  double share;  // of the pass's seconds
};

/// Test-split pairs in seeded order; request r carries pairs 4r..4r+3.
class Requests {
 public:
  Requests(const data::MatchingTask& task, uint64_t seed)
      : test_(task.test()), order_(test_.size()) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Rng(seed).Shuffle(&order_);
  }

  std::vector<data::LabeledPair> Pairs(uint64_t request) const {
    std::vector<data::LabeledPair> pairs;
    for (size_t j = 0; j < kPairsPerRequest; ++j) {
      pairs.push_back(
          test_[order_[(request * kPairsPerRequest + j) % order_.size()]]);
    }
    return pairs;
  }

  static std::string Encode(const std::vector<data::LabeledPair>& pairs) {
    std::vector<std::pair<uint32_t, uint32_t>> indices;
    for (const auto& pair : pairs) indices.emplace_back(pair.left, pair.right);
    return serve::MatchClient::MatchBatchRequest(indices);
  }

 private:
  const std::vector<data::LabeledPair>& test_;
  std::vector<size_t> order_;
};

/// A served response kept for the bit-exactness check.
struct Sample {
  uint64_t request = 0;
  std::vector<double> scores;
  std::vector<uint8_t> decisions;
};

struct Tally {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  // open loop: how late each send was
  uint64_t sent = 0;
  uint64_t failed = 0;          // non-ok or unanswered
  uint64_t pairs_in_window = 0; // closed loop: pairs answered in time
  std::string first_error;
};

struct Conn {
  struct Sent {
    uint64_t request = 0;
    double due_s = 0.0;
  };
  serve::Socket socket;
  serve::FrameDecoder decoder;
  std::string out;  // framed bytes not yet written
  std::deque<Sent> sent;
};

/// Everything one phase measured, its child included.
struct PhaseResult {
  double setup_s = 0.0;
  double load_s = 0.0;  // how long the recorded load ran
  Tally tally;
  uint64_t served = 0;  // requests_served reported by the stats op
  uint64_t answered_pairs = 0;  // warm-up and recorded load together
  double ready_cpu_s = 0.0;
  serve::JsonValue done;  // the child's exit report

  /// CPU seconds the child spent between listening and exiting: serving
  /// the warm-up and the load, plus the stats and shutdown exchanges.
  double ServeCpuSeconds() const { return done.GetNumber("cpu_s") - ready_cpu_s; }
};

/// The generator: drives `conns` open loop at `rate` for `seconds`, or
/// closed loop for `seconds`, on this thread only.
class Generator {
 public:
  Generator(std::vector<Conn>* conns, const Requests* requests,
            uint64_t* next_request, std::vector<Sample>* samples,
            std::string* sample_response)
      : conns_(conns),
        requests_(requests),
        next_request_(next_request),
        samples_(samples),
        sample_response_(sample_response) {}

  Status Run(Loop loop, double rate, double seconds, Tally* tally) {
    loop_ = loop;
    seconds_ = seconds;
    tally_ = tally;
    in_flight_ = 0;
    clock_.Restart();
    const uint64_t total =
        loop == Loop::kOpen ? static_cast<uint64_t>(std::llround(rate * seconds))
                            : 0;
    uint64_t issued = 0;
    if (loop == Loop::kClosed) {
      for (size_t c = 0; c < conns_->size(); ++c) {
        for (size_t k = 0; k < kClosedInFlight; ++k) {
          RLBENCH_RETURN_NOT_OK(Send(c, 0.0));
        }
      }
    }
    serve::PollSet poll;
    while (true) {
      const double now = clock_.ElapsedSeconds();
      while (issued < total && static_cast<double>(issued) / rate <= now) {
        const double due = static_cast<double>(issued) / rate;
        tally_->late_ms.push_back((now - due) * 1000.0);
        RLBENCH_RETURN_NOT_OK(Send(issued % conns_->size(), due));
        ++issued;
      }
      for (Conn& conn : *conns_) {
        if (conn.out.empty()) continue;
        RLBENCH_ASSIGN_OR_RETURN(size_t wrote,
                                 serve::WriteNonBlocking(conn.socket, conn.out));
        conn.out.erase(0, wrote);
      }
      const bool sending = loop == Loop::kOpen ? issued < total : now < seconds;
      if (!sending && in_flight_ == 0) break;
      if (now > seconds + 10.0) break;  // the rest count as unanswered
      int timeout_ms = 10;
      if (issued < total) {
        const double wait_ms =
            (static_cast<double>(issued) / rate - now) * 1000.0;
        timeout_ms = wait_ms >= 2.0 ? static_cast<int>(wait_ms) - 1 : 0;
      }
      poll.Clear();
      for (const Conn& conn : *conns_) {
        poll.Add(conn.socket.fd(), true, !conn.out.empty());
      }
      RLBENCH_RETURN_NOT_OK(poll.Wait(timeout_ms).status());
      for (size_t c = 0; c < conns_->size(); ++c) {
        Conn& conn = (*conns_)[c];
        if (!poll.Readable(conn.socket.fd())) continue;
        RLBENCH_ASSIGN_OR_RETURN(serve::ReadResult read,
                                 serve::ReadNonBlocking(conn.socket));
        if (read.eof) return Status::IOError("serve: server closed a connection");
        conn.decoder.Append(read.data);
        while (true) {
          RLBENCH_ASSIGN_OR_RETURN(std::optional<std::string> frame,
                                   conn.decoder.Next());
          if (!frame.has_value()) break;
          RLBENCH_RETURN_NOT_OK(Receive(c, *frame));
        }
      }
    }
    tally_->failed += in_flight_;
    if (in_flight_ > 0 && tally_->first_error.empty()) {
      tally_->first_error = std::to_string(in_flight_) + " unanswered";
    }
    for (Conn& conn : *conns_) conn.sent.clear();
    return Status::OK();
  }

 private:
  Status Send(size_t c, double due_s) {
    Conn& conn = (*conns_)[c];
    const uint64_t request = (*next_request_)++;
    RLBENCH_RETURN_NOT_OK(serve::AppendFrame(
        Requests::Encode(requests_->Pairs(request)), &conn.out));
    conn.sent.push_back({request, due_s});
    ++in_flight_;
    ++tally_->sent;
    return Status::OK();
  }

  Status Receive(size_t c, const std::string& payload) {
    const double now = clock_.ElapsedSeconds();
    Conn& conn = (*conns_)[c];
    if (conn.sent.empty()) return Status::IOError("serve: unsolicited response");
    const Conn::Sent sent = conn.sent.front();
    conn.sent.pop_front();
    --in_flight_;
    auto parsed = serve::ParseJson(payload);
    const serve::JsonValue* scores = parsed.ok() ? parsed->Find("scores") : nullptr;
    const serve::JsonValue* decisions =
        parsed.ok() ? parsed->Find("decisions") : nullptr;
    const bool ok = parsed.ok() && parsed->GetBool("ok") && scores != nullptr &&
                    decisions != nullptr &&
                    scores->AsArray().size() == kPairsPerRequest &&
                    decisions->AsArray().size() == kPairsPerRequest;
    if (!ok) {
      ++tally_->failed;
      if (tally_->first_error.empty()) tally_->first_error = payload;
    } else {
      tally_->latency_ms.push_back((now - sent.due_s) * 1000.0);
      if (now <= seconds_) tally_->pairs_in_window += kPairsPerRequest;
      if (sent.request % kCheckEvery == 0) {
        Sample sample;
        sample.request = sent.request;
        for (size_t j = 0; j < kPairsPerRequest; ++j) {
          sample.scores.push_back(scores->AsArray()[j].AsNumber());
          sample.decisions.push_back(
              static_cast<uint8_t>(decisions->AsArray()[j].AsNumber()));
        }
        samples_->push_back(std::move(sample));
        if (sample_response_->empty()) *sample_response_ = payload;
      }
    }
    if (loop_ == Loop::kClosed && now < seconds_) {
      RLBENCH_RETURN_NOT_OK(Send(c, now));
    }
    return Status::OK();
  }

  std::vector<Conn>* conns_;
  const Requests* requests_;
  uint64_t* next_request_;
  std::vector<Sample>* samples_;
  std::string* sample_response_;
  Loop loop_ = Loop::kOpen;
  double seconds_ = 0.0;
  Tally* tally_ = nullptr;
  size_t in_flight_ = 0;
  Stopwatch clock_;
};

/// One blocking request/response on a non-blocking connection.
Result<serve::JsonValue> Exchange(Conn* conn, const std::string& payload) {
  RLBENCH_RETURN_NOT_OK(serve::AppendFrame(payload, &conn->out));
  Stopwatch watch;
  serve::PollSet poll;
  while (watch.ElapsedSeconds() < 30.0) {
    if (!conn->out.empty()) {
      RLBENCH_ASSIGN_OR_RETURN(size_t wrote,
                               serve::WriteNonBlocking(conn->socket, conn->out));
      conn->out.erase(0, wrote);
    }
    RLBENCH_ASSIGN_OR_RETURN(std::optional<std::string> frame,
                             conn->decoder.Next());
    if (frame.has_value()) return serve::ParseJson(*frame);
    poll.Clear();
    poll.Add(conn->socket.fd(), true, !conn->out.empty());
    RLBENCH_RETURN_NOT_OK(poll.Wait(10).status());
    if (!poll.Readable(conn->socket.fd())) continue;
    RLBENCH_ASSIGN_OR_RETURN(serve::ReadResult read,
                             serve::ReadNonBlocking(conn->socket));
    if (read.eof) return Status::IOError("serve: server closed mid-exchange");
    conn->decoder.Append(read.data);
  }
  return Status::DeadlineExceeded("serve: no response to " + payload);
}

/// The server child: spawned by fork + exec of this binary, reaped (and
/// killed first if it is still running) when this object goes away. Its
/// status pipe carries "ready <port> <cpu_s>" and, after shutdown,
/// "done <json>".
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (fd_ >= 0) close(fd_);
  }

  Status Spawn(const std::string& binary, std::vector<std::string> args) {
    int fds[2];
    if (pipe(fds) != 0) return Status::IOError("serve: pipe failed");
    args.insert(args.begin(), binary);
    args.push_back("--status_fd=" + std::to_string(fds[1]));
    // Everything the child touches before exec is built here: after fork
    // it may only call async-signal-safe functions.
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return Status::IOError("serve: fork failed");
    }
    if (pid_ == 0) {
      close(fds[0]);
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      if (getppid() != parent) _exit(4);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    fd_ = fds[0];
    return Status::OK();
  }

  /// Next status line, or an error after `timeout_s` or at EOF.
  Result<std::string> ReadLine(double timeout_s) {
    Stopwatch watch;
    serve::PollSet poll;
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const double left_ms = (timeout_s - watch.ElapsedSeconds()) * 1000.0;
      if (left_ms <= 0.0) return Status::DeadlineExceeded("serve: child silent");
      poll.Clear();
      poll.Add(fd_, true, false);
      RLBENCH_ASSIGN_OR_RETURN(int ready, poll.Wait(static_cast<int>(left_ms) + 1));
      if (ready == 0) continue;
      char chunk[4096];
      ssize_t got = read(fd_, chunk, sizeof(chunk));
      if (got <= 0) return Status::IOError("serve: child exited early");
      buffer_.append(chunk, static_cast<size_t>(got));
    }
  }

  /// Wait for the child to exit; OK only for exit code 0.
  Status Reap() {
    int wstatus = 0;
    pid_t reaped = waitpid(pid_, &wstatus, 0);
    pid_ = -1;
    if (reaped < 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      return Status::Internal("serve: child did not exit cleanly");
    }
    return Status::OK();
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buffer_;
};

Status RunPhase(const Options& options, const ServeSizes& sizes,
                const PhaseSpec& phase, double seconds, bool traced,
                const Requests& requests, uint64_t* next_request,
                const std::string& repo, std::vector<Sample>* samples,
                std::string* sample_response, Spans* spans,
                PhaseResult* result) {
  std::vector<std::string> args = {
      "--serve_child", std::string("--dataset=") + sizes.dataset,
      "--seed=" + std::to_string(options.seed), "--repo=" + repo};
  if (traced) {
    args.push_back("--trace_file=" + options.trace_dir + "/serve_child_" +
                   phase.name + ".json");
  }
  Child child;
  uint16_t port = 0;
  {
    Stopwatch watch;
    Spans::Scope span(spans, "serve.spawn");
    RLBENCH_RETURN_NOT_OK(child.Spawn(options.binary, args));
    RLBENCH_ASSIGN_OR_RETURN(std::string ready, child.ReadLine(120.0));
    std::vector<std::string> fields = SplitAny(ready, " ");
    if (fields.size() != 3 || fields[0] != "ready") {
      return Status::Internal("serve: child failed to start: " + ready);
    }
    port = static_cast<uint16_t>(std::stoi(fields[1]));
    result->ready_cpu_s = std::stod(fields[2]);
    result->setup_s = watch.ElapsedSeconds();
  }
  // At least half the phase is load, however slow the spawn.
  result->load_s = std::max(seconds - result->setup_s, seconds / 2.0);

  std::vector<Conn> conns(kConnections);
  for (Conn& conn : conns) {
    RLBENCH_ASSIGN_OR_RETURN(conn.socket, serve::ConnectLoopback(port));
    RLBENCH_RETURN_NOT_OK(serve::SetNonBlocking(conn.socket, true));
  }
  Generator generator(&conns, &requests, next_request, samples,
                      sample_response);
  Tally warmup;
  RLBENCH_RETURN_NOT_OK(
      generator.Run(phase.loop, phase.rate, sizes.warmup_s, &warmup));
  {
    Spans::Scope span(spans, std::string("serve.") + phase.name);
    RLBENCH_RETURN_NOT_OK(
        generator.Run(phase.loop, phase.rate, result->load_s, &result->tally));
  }
  result->answered_pairs =
      kPairsPerRequest * (warmup.latency_ms.size() + result->tally.latency_ms.size());
  result->tally.sent += warmup.sent;
  result->tally.failed += warmup.failed;
  if (result->tally.first_error.empty()) {
    result->tally.first_error = warmup.first_error;
  }

  RLBENCH_ASSIGN_OR_RETURN(serve::JsonValue stats,
                           Exchange(&conns[0], "{\"op\":\"stats\"}"));
  result->served = static_cast<uint64_t>(stats.GetNumber("requests_served"));
  RLBENCH_ASSIGN_OR_RETURN(serve::JsonValue bye,
                           Exchange(&conns[0], "{\"op\":\"shutdown\"}"));
  if (!bye.GetBool("ok")) return Status::Internal("serve: shutdown refused");
  conns.clear();
  RLBENCH_ASSIGN_OR_RETURN(std::string done, child.ReadLine(60.0));
  if (done.rfind("done ", 0) != 0) {
    return Status::Internal("serve: child reported " + done);
  }
  RLBENCH_ASSIGN_OR_RETURN(result->done, serve::ParseJson(done.substr(5)));
  return child.Reap();
}

/// Mean of one of the child's histograms ({"count","sum"}); 0 when empty.
double HistogramMean(const serve::JsonValue& done, const std::string& name) {
  const serve::JsonValue* histograms = done.Find("histograms");
  const serve::JsonValue* histogram =
      histograms != nullptr ? histograms->Find(name) : nullptr;
  if (histogram == nullptr) return 0.0;
  double count = histogram->GetNumber("count");
  return count > 0.0 ? histogram->GetNumber("sum") / count : 0.0;
}

double Counter(const serve::JsonValue& done, const std::string& name) {
  const serve::JsonValue* counters = done.Find("counters");
  return counters != nullptr ? counters->GetNumber(name) : 0.0;
}

/// Microseconds per call of `body`, over `calls` calls.
template <typename Body>
double TimeCalls(size_t calls, Spans* spans, const char* span_name,
                 const Body& body) {
  Spans::Scope span(spans, span_name);
  Stopwatch watch;
  for (size_t i = 0; i < calls; ++i) body(i);
  return watch.ElapsedSeconds() * 1e6 / static_cast<double>(calls);
}

/// Write one line to the status pipe.
void StatusLine(int fd, const std::string& line) {
  std::string out = line + "\n";
  size_t written = 0;
  while (written < out.size()) {
    ssize_t n = write(fd, out.data() + written, out.size() - written);
    if (n <= 0) return;
    written += static_cast<size_t>(n);
  }
}

}  // namespace

int ServeChildMain(const Flags& flags) {
  const int fd = static_cast<int>(flags.GetInt("status_fd", -1));
  auto fail = [fd](const std::string& what) {
    StatusLine(fd, "error " + what);
    return 3;
  };
  const auto* catalog =
      datagen::FindExistingBenchmark(flags.GetString("dataset", ""));
  const std::string repo = flags.GetString("repo", "");
  if (fd < 0 || catalog == nullptr || repo.empty()) return fail("bad flags");
  SetParallelThreads(kServerThreads);
  const std::string trace_file = flags.GetString("trace_file", "");
  if (!trace_file.empty()) {
    obs::Metrics::SetEnabled(true);
    obs::SetTraceFile(trace_file);
  }

  datagen::ExistingBenchmarkSpec spec = *catalog;
  spec.seed = InputSeed(spec.seed, static_cast<uint64_t>(flags.GetInt("seed", 1)));
  data::MatchingTask task = datagen::BuildExistingBenchmark(spec, 1.0);
  matchers::MatchingContext context(&task);
  auto model = matchers::TrainServableMatcher(kMatcher, context);
  if (!model.ok()) return fail(model.status().ToString());
  serve::SnapshotMetadata metadata;
  metadata.matcher_name = kMatcher;
  metadata.dataset_id = task.name();
  metadata.num_attrs = task.left().schema().num_attributes();
  serve::ModelRepository repository(repo);
  auto version = repository.Publish(metadata, **model);
  if (!version.ok()) return fail(version.status().ToString());
  auto snapshot = repository.LoadCurrent(kMatcher);
  if (!snapshot.ok()) return fail(snapshot.status().ToString());

  serve::MatchServerOptions server_options;
  server_options.repository_root = repo;
  // The default 512-pair queue fills in ~28 ms at the heavy rate, so a
  // host stall that long refuses requests. 4096 pairs ride out ~225 ms;
  // a server too slow for the offered load still fills it.
  server_options.service.queue_capacity_pairs = 4096;
  serve::MatchServer server(&context, server_options);
  Status installed = server.service().InstallSnapshot(*snapshot);
  if (!installed.ok()) return fail(installed.ToString());
  server.SetServedModel(snapshot->metadata);
  Status started = server.Start();
  if (!started.ok()) return fail(started.ToString());
  StatusLine(fd, "ready " + std::to_string(server.port()) + " " +
                     Exact(CpuSeconds()));
  Stopwatch serving;
  Status served = server.Serve();

  // What the registry saw (empty unless traced), CPU and peak RSS.
  std::string counters = "{";
  for (const auto& [name, counter] : obs::Metrics::Instance().Counters()) {
    if (counters.size() > 1) counters += ",";
    counters += obs::JsonString(name) + ":" + std::to_string(counter->Value());
  }
  std::string histograms = "{";
  for (const auto& [name, histogram] : obs::Metrics::Instance().Histograms()) {
    if (histograms.size() > 1) histograms += ",";
    histograms += obs::JsonString(name) + ":{\"count\":" +
                  std::to_string(histogram->Count()) +
                  ",\"sum\":" + obs::JsonNumber(histogram->Sum()) + "}";
  }
  StatusLine(fd, "done {\"ok\":" + std::string(served.ok() ? "true" : "false") +
                     ",\"serve_s\":" + obs::JsonNumber(serving.ElapsedSeconds()) +
                     ",\"cpu_s\":" + obs::JsonNumber(CpuSeconds()) +
                     ",\"peak_rss_mb\":" + obs::JsonNumber(PeakRssMb()) +
                     ",\"counters\":" + counters + "},\"histograms\":" +
                     histograms + "}}");
  obs::WriteTraceIfEnabled();
  return served.ok() ? 0 : 3;
}

Status RunServe(const Options& options, Pass* pass, Report* report) {
  const ServeSizes sizes = Sizes(options.smoke);
  const auto* catalog = datagen::FindExistingBenchmark(sizes.dataset);
  if (catalog == nullptr) return Status::NotFound("serve: unknown dataset");
  datagen::ExistingBenchmarkSpec spec = *catalog;
  spec.seed = InputSeed(spec.seed, options.seed);
  // The children generate the same task; this copy supplies the request
  // pairs and the reference scores.
  const data::MatchingTask task = datagen::BuildExistingBenchmark(spec, 1.0);
  const Requests requests(task, options.seed);

  const PhaseSpec phases[] = {
      {"light", Loop::kOpen, sizes.light_rate, 0.35},
      {"heavy", Loop::kOpen, sizes.heavy_rate, 0.25},
      {"saturate", Loop::kClosed, 0.0, 0.4},
  };
  Spans spans("serve");
  uint64_t next_request = 0;
  std::vector<Sample> samples;
  std::string sample_response;
  PhaseResult results[3];
  std::string repos[3];
  for (size_t p = 0; p < 3; ++p) {
    repos[p] = options.scratch + "/repo_" + (pass->traced ? "traced_" : "") +
               phases[p].name;
    RLBENCH_RETURN_NOT_OK(RunPhase(
        options, sizes, phases[p], pass->seconds * phases[p].share,
        pass->traced, requests, &next_request, repos[p], &samples,
        &sample_response, &spans, &results[p]));
    pass->samples["setup_s"].push_back(results[p].setup_s);
    pass->attempted += results[p].tally.sent;
    pass->failed += results[p].tally.failed;
    pass->peak_rss_mb =
        std::max(pass->peak_rss_mb, results[p].done.GetNumber("peak_rss_mb"));
  }
  const Tally& light = results[0].tally;
  const Tally& heavy = results[1].tally;
  const Tally& saturate = results[2].tally;

  // Checks, outside the timed phases.
  std::string first_error;
  for (const PhaseResult& result : results) {
    if (first_error.empty()) first_error = result.tally.first_error;
  }
  report->AddCheck("serve: every response ok", pass->failed == 0,
                   std::to_string(pass->failed) + " of " +
                       std::to_string(pass->attempted) + " failed" +
                       (first_error.empty() ? "" : "; first: " + first_error));
  bool served_all = true;
  std::string served_detail;
  for (const PhaseResult& result : results) {
    // requests_served counts every op, the stats request itself included.
    served_all &= result.served == result.tally.sent + 1;
    served_detail += std::to_string(result.served) + "/" +
                     std::to_string(result.tally.sent) + " ";
  }
  report->AddCheck("serve: each child served every request sent", served_all,
                   served_detail);

  std::string snapshot_digest;
  bool snapshots_agree = true;
  for (const std::string& repo : repos) {
    auto bytes = data::FileSource::ReadAll(
        serve::ModelRepository(repo).SnapshotPath(kMatcher, 1));
    if (!bytes.ok()) return bytes.status();
    std::string digest = Fnv1aHex(*bytes);
    if (snapshot_digest.empty()) snapshot_digest = digest;
    snapshots_agree &= digest == snapshot_digest;
  }
  report->AddCheck("serve: the three children published identical snapshots",
                   snapshots_agree);

  RLBENCH_ASSIGN_OR_RETURN(serve::Snapshot snapshot,
                           serve::ModelRepository(repos[0]).LoadCurrent(kMatcher));
  // The reference scores, and on a traced pass the probes, run on the
  // server's pool size.
  SetParallelThreads(kServerThreads);
  matchers::MatchingContext context(&task);
  snapshot.model->PrepareContext(context);
  size_t differing = 0;
  for (const Sample& sample : samples) {
    std::vector<data::LabeledPair> pairs = requests.Pairs(sample.request);
    std::vector<double> scores(pairs.size());
    std::vector<uint8_t> decisions(pairs.size());
    RLBENCH_RETURN_NOT_OK(
        snapshot.model->ScoreBatch(context, pairs, scores, decisions));
    for (size_t j = 0; j < pairs.size(); ++j) {
      differing += std::bit_cast<uint64_t>(scores[j]) !=
                       std::bit_cast<uint64_t>(sample.scores[j]) ||
                   decisions[j] != sample.decisions[j];
    }
  }
  report->AddCheck("serve: every 64th response matches ScoreBatch on the "
                   "published snapshot bit for bit",
                   differing == 0 && !samples.empty(),
                   std::to_string(differing) + " of " +
                       std::to_string(samples.size() * kPairsPerRequest) +
                       " scores differ");

  // Serve reports raw timings. Its work spans two processes and four
  // threads, which the single-threaded reference does not track: over ten
  // seeds, saturated pairs per CPU-second spread 8% raw and 17% relative
  // to a reference run in this process around the phase.
  pass->setup_s = Quantile(pass->samples["setup_s"], 0.5);
  pass->latency_ms = Quantile(light.latency_ms, 0.5);
  // Saturated pairs per second of the server's CPU time. Pairs per wall
  // second swing with how much CPU the host grants the child: over six
  // traced runs the child kept 1.64-2.04 cores busy and wall throughput
  // spread +-16%, while pairs per CPU-second spread +-6.5%.
  const double saturate_wall_pairs_per_s =
      static_cast<double>(saturate.pairs_in_window) / results[2].load_s;
  pass->throughput_per_s = static_cast<double>(results[2].answered_pairs) /
                           results[2].ServeCpuSeconds();
  pass->samples["saturate_wall_pairs_per_s"] = {saturate_wall_pairs_per_s};
  pass->pins["serve/snapshot"] = snapshot_digest;
  pass->pins["serve/test_pairs"] = std::to_string(task.test().size());
  for (size_t p = 0; p < 3; ++p) {
    const std::vector<double>& latency = results[p].tally.latency_ms;
    pass->samples[std::string(phases[p].name) + "_p50_p99_n"] = {
        Quantile(latency, 0.5), Quantile(latency, 0.99),
        static_cast<double>(latency.size())};
  }
  // The p50 of each second's worth of light responses: how the host
  // drifted within the phase.
  const size_t per_second = static_cast<size_t>(sizes.light_rate);
  std::vector<double>& second_p50 = pass->samples["light_second_p50_ms"];
  for (size_t start = 0; start + per_second <= light.latency_ms.size();
       start += per_second) {
    const auto first = light.latency_ms.begin() + static_cast<ptrdiff_t>(start);
    second_p50.push_back(
        Quantile({first, first + static_cast<ptrdiff_t>(per_second)}, 0.5));
  }

  if (pass->traced) {
    // Per-call probes, in process, on the snapshot the children served.
    const size_t calls = sizes.probe_calls;
    std::string frame;
    size_t encoded = 0;
    const double encode_us = TimeCalls(calls, &spans, "serve.wire.encode",
                                       [&](size_t i) {
      frame.clear();
      encoded += serve::AppendFrame(Requests::Encode(requests.Pairs(i)), &frame)
                     .ok();
    });
    std::string framed_response;
    RLBENCH_RETURN_NOT_OK(serve::AppendFrame(sample_response, &framed_response));
    size_t decoded = 0;
    const double decode_us = TimeCalls(calls, &spans, "serve.wire.decode",
                                       [&](size_t) {
      serve::FrameDecoder decoder;
      decoder.Append(framed_response);
      auto next = decoder.Next();
      if (!next.ok() || !next->has_value()) return;
      auto parsed = serve::ParseJson(**next);
      const serve::JsonValue* scores =
          parsed.ok() ? parsed->Find("scores") : nullptr;
      decoded += scores != nullptr && scores->AsArray().size() == kPairsPerRequest;
    });
    serve::MatchService service(&context);
    RLBENCH_RETURN_NOT_OK(service.InstallSnapshot(snapshot));
    size_t answered = 0;
    const double service_us = TimeCalls(calls, &spans, "serve.service",
                                        [&](size_t i) {
      auto id = service.SubmitRequest(
          requests.Pairs(i), {},
          [&answered](const serve::RequestOutcome& outcome) {
            answered += outcome.status.ok();
          });
      if (id.ok()) service.PumpOne();
    });
    std::vector<double> scores(256);
    std::vector<uint8_t> decisions(256);
    size_t scored = 0;
    const double score_b4_us = TimeCalls(calls, &spans, "matchers.score_b4",
                                         [&](size_t i) {
      std::vector<data::LabeledPair> pairs = requests.Pairs(i);
      scored += snapshot.model
                    ->ScoreBatch(context, pairs,
                                 std::span(scores).first(pairs.size()),
                                 std::span(decisions).first(pairs.size()))
                    .ok();
    });
    const size_t batches = std::max<size_t>(1, calls / 64);
    const double score_b256_us =
        TimeCalls(batches, &spans, "matchers.score_b256", [&](size_t i) {
          std::vector<data::LabeledPair> pairs;
          for (uint64_t r = 64 * i; pairs.size() < 256; ++r) {
            for (const auto& pair : requests.Pairs(r)) pairs.push_back(pair);
          }
          scored += snapshot.model->ScoreBatch(context, pairs, scores, decisions)
                        .ok();
        }) / 256.0;
    report->AddCheck("serve: in-process probes succeeded on every call",
                     encoded == calls && decoded == calls &&
                         answered == calls && scored == calls + batches,
                     std::to_string(encoded) + " encoded, " +
                         std::to_string(decoded) + " decoded, " +
                         std::to_string(answered) + " answered, " +
                         std::to_string(scored) + " scored");

    const double p50_us = pass->latency_ms * 1000.0;
    report->Layer("serve.wire_encode_share", encode_us / p50_us, "ratio");
    report->Layer("serve.wire_decode_share", decode_us / p50_us, "ratio");
    report->Layer("serve.service_share", service_us / p50_us, "ratio");
    report->Layer("serve.transport_share",
                  1.0 - (encode_us + decode_us + service_us) / p50_us, "ratio");
    report->Layer("matchers.score_share_b4", score_b4_us / p50_us, "ratio");
    report->Layer("matchers.score_cpu_share_b256",
                  score_b256_us * pass->throughput_per_s / 1e6, "ratio");
    const double heavy_p99 = Quantile(heavy.latency_ms, 0.99);
    report->Layer("serve.heavy_tail_ratio", heavy_p99 / pass->latency_ms,
                  "ratio");
    const serve::JsonValue& saturate_done = results[2].done;
    report->Layer("serve.child_cpu_ratio",
                  (saturate_done.GetNumber("cpu_s") - results[2].ready_cpu_s) /
                      saturate_done.GetNumber("serve_s"),
                  "ratio");
    report->Detail("serve.wire.encode_us", encode_us, "us");
    report->Detail("serve.wire.decode_us", decode_us, "us");
    report->Detail("serve.service_us_per_req", service_us, "us");
    report->Detail("serve.transport_ms",
                   pass->latency_ms -
                       (encode_us + decode_us + service_us) / 1000.0,
                   "ms");
    report->Detail("matchers.score_us_per_pair_b4",
                   score_b4_us / static_cast<double>(kPairsPerRequest), "us");
    report->Detail("matchers.score_us_per_pair_b256", score_b256_us, "us");
    report->Detail("serve.saturate_pairs_per_s", saturate_wall_pairs_per_s, "1/s");
    report->Detail("serve.saturate_pairs_per_cpu_s", pass->throughput_per_s,
                   "1/s");
    for (size_t p = 0; p < 3; ++p) {
      const std::string prefix = std::string("serve.") + phases[p].name;
      const Tally& tally = results[p].tally;
      const serve::JsonValue& done = results[p].done;
      const double latency_mean = HistogramMean(done, "serve/latency_ms");
      const double p99 = Quantile(tally.latency_ms, 0.99);
      report->Layer(prefix + ".queue_wait_share",
                    latency_mean > 0.0
                        ? HistogramMean(done, "serve/queue_wait_ms") /
                              latency_mean
                        : 0.0,
                    "ratio");
      report->Layer(prefix + ".batch_pairs_mean",
                    HistogramMean(done, "serve/batch_pairs"), "count");
      const double ticks = Counter(done, "serve/loop/ticks");
      report->Layer(prefix + ".frames_per_tick",
                    ticks > 0.0 ? Counter(done, "serve/loop/frames") / ticks
                                : 0.0,
                    "ratio");
      report->Layer(prefix + ".rejected", Counter(done, "serve/rejected"),
                    "count");
      if (phases[p].loop == Loop::kOpen) {
        report->Layer(prefix + ".gen_late_share",
                      Quantile(tally.late_ms, 0.99) / p99, "ratio");
        report->Detail(prefix + ".gen_late_ms_p99",
                       Quantile(tally.late_ms, 0.99), "ms");
        report->Detail(prefix + ".gen_late_ms_max",
                       Quantile(tally.late_ms, 1.0), "ms");
      }
      report->Detail(prefix + ".p50_ms", Quantile(tally.latency_ms, 0.5), "ms");
      report->Detail(prefix + ".p99_ms", p99, "ms");
      report->Detail(prefix + ".p999_ms", Quantile(tally.latency_ms, 0.999),
                     "ms");
      report->Detail(prefix + ".responses",
                     static_cast<double>(tally.latency_ms.size()), "count");
      report->Detail(prefix + ".queue_wait_ms_mean",
                     HistogramMean(done, "serve/queue_wait_ms"), "ms");
      report->Detail(prefix + ".setup_s", results[p].setup_s, "s");
    }
    spans.Export(report);
  }
  return Status::OK();
}

}  // namespace rlbench::e2e
