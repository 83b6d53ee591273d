// The loopback match server: a nonblocking event loop (event_loop.h) tying
// together net.h (framed TCP), wire.h (JSON requests), service.h (batched
// scoring, tenant admission, tiered shedding, shadow promotion) and
// model_repository.h (snapshot reload).
//
// Concurrency model: one thread, many connections. Each Tick() of the
// event loop collects every complete frame across all ready connections
// and submits match ops into the service's micro-batcher, so pipelined
// requests — from one client or many — coalesce into shared batches while
// responses still come back in per-connection request order (each frame
// owns a response slot; slots flush strictly in order). Ops:
//
//   ping          -> liveness + served matcher identity
//   match_pair    -> score one (left, right) candidate pair
//   match_batch   -> score up to max_batch_pairs pairs, optional
//                    deadline_ms; both match ops accept a "tenant" field
//   assess        -> score the full test split, return confusion + F1
//   stats         -> queue depth / shed tier + per-tier counts / rolling
//                    p99 / shadow window / model identity
//   reload        -> load a snapshot version from the repository, hot-swap
//   shadow_start  -> begin shadow-scoring a candidate snapshot
//   shadow_status -> agreement / latency / verdict of the active window
//   shadow_cancel -> abort the window without promoting
//   shutdown      -> stop accepting, answer everything in flight, stop
//
// Per-request failures (admission rejection, quota or shed rejection —
// both carrying "retry_after_ms" — deadline expiry, injected worker
// faults) travel back as {"ok":false,"code",...} responses; the server
// process itself stays up. After shutdown begins, late frames on still-
// open connections are answered with FailedPrecondition "shutting down"
// rather than silence.
#ifndef RLBENCH_SRC_SERVE_SERVER_H_
#define RLBENCH_SRC_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "matchers/context.h"
#include "serve/event_loop.h"
#include "serve/model_repository.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace rlbench::serve {

struct MatchServerOptions {
  uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
  MatchServiceOptions service;
  EventLoopOptions loop;
  std::string repository_root;  ///< empty disables the reload op
  /// Poll timeout of one event-loop tick (ms); bounds shutdown latency.
  int tick_timeout_ms = 50;
  /// Matcher retrained when the drift controller triggers; "" retrains
  /// the served matcher. If that training fails, the server falls back to
  /// the always-trainable zero-shot EnsembleLink.
  std::string drift_retrain_matcher;
  /// Shadow gate for drift-triggered candidates. Agreement with the
  /// incumbent is not required by default — the incumbent is the model
  /// the drift monitor just flagged as stale — but the fault and latency
  /// gates still protect the swap.
  ShadowOptions drift_shadow = [] {
    ShadowOptions shadow;
    shadow.min_agreement = 0.0;
    return shadow;
  }();
};

/// \brief Single-threaded loopback JSON server over one MatchingContext.
class MatchServer {
 public:
  MatchServer(const matchers::MatchingContext* context,
              MatchServerOptions options);

  MatchService& service() { return service_; }

  /// Record which snapshot identity is being served (shown by ping/stats);
  /// call after installing a model directly through service().
  void SetServedModel(SnapshotMetadata metadata) {
    served_ = std::move(metadata);
  }

  /// Bind + listen on 127.0.0.1; port() is valid afterwards.
  [[nodiscard]] Status Start();
  uint16_t port() const { return port_; }

  /// Run the event loop until a shutdown request completes its drain (or
  /// the loop's poll fails). Returns OK after a graceful shutdown: every
  /// admitted request answered, every response byte flushed.
  [[nodiscard]] Status Serve();

 private:
  /// One frame's pending response. Callbacks hold the slot alive even if
  /// the connection is evicted before the service answers.
  struct Slot {
    bool ready = false;
    std::string response;
  };

  /// Frame sink of the event loop: parse, submit or answer, queue a slot.
  void OnFrame(uint64_t conn_id, std::string payload);

  /// Answer one parsed request that is not a match op (OnFrame submits
  /// those to the micro-batcher itself).
  std::string HandleRequest(const JsonValue& request);

  /// The snapshot a reload or shadow_start request names: its "matcher" at
  /// "version" when that is > 0, else the matcher's CURRENT version.
  /// FailedPrecondition when no repository is configured.
  [[nodiscard]] Result<Snapshot> LoadRequestedSnapshot(
      const JsonValue& request) const;

  /// Emit every leading ready slot of every connection, in request order.
  void FlushReadySlots();

  /// Count of slots still waiting on the service.
  size_t PendingSlots() const;

  /// Pick up a promotion/rollback the service performed while pumping.
  void AbsorbShadowEvent();

  /// React to a drift trigger: retrain (EnsembleLink fallback), publish
  /// to the repository when configured, and start a shadow window. The
  /// drift controller re-arms when that window resolves.
  void AbsorbDriftTrigger();

  const matchers::MatchingContext* context_;
  MatchServerOptions options_;
  MatchService service_;
  std::optional<ModelRepository> repository_;
  EventLoop loop_;
  bool listening_ = false;
  uint16_t port_ = 0;
  std::optional<SnapshotMetadata> served_;
  std::unordered_map<uint64_t, std::deque<std::shared_ptr<Slot>>> slots_;
  uint64_t requests_served_ = 0;
  bool shutdown_ = false;
  /// A drift-triggered shadow window is in flight; its resolution re-arms
  /// the drift controller.
  bool drift_candidate_active_ = false;
};

}  // namespace rlbench::serve

#endif  // RLBENCH_SRC_SERVE_SERVER_H_
