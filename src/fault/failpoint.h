// Deterministic, seeded fault injection behind named failpoints — the
// failpoint discipline storage engines use (RocksDB's fault-injection env,
// TiKV's fail-rs): production code declares *where* a fault can strike
// with RLBENCH_FAULT_POINT("data/file/read"); a spec supplied at run time
// decides *whether* it strikes, with what kind, and at what seeded
// probability. Off by default; one relaxed atomic load per failpoint when
// disabled (the same zero-cost gating as src/obs/).
//
// Spec grammar (RLBENCH_FAULTS environment variable, or SetSpec()):
//
//   spec    := clause (';' clause)*
//   clause  := 'seed=' <uint64>
//            | point '=' kind ':' prob [':max=' <uint64>]
//   point   := failpoint name, optionally ending in '*' (prefix wildcard)
//   kind    := 'io' | 'truncate' | 'corrupt' | 'alloc' | 'any'
//   prob    := real in [0, 1]
//
// Examples:
//   RLBENCH_FAULTS="seed=7;data/file/read=io:0.25"
//   RLBENCH_FAULTS="seed=3;data/file/*=any:0.1;core/build_benchmark=alloc:1:max=2"
//
// The first clause whose point matches wins. Each clause owns an
// independent decision stream derived from (seed, point pattern, n-th
// evaluation), so a given spec produces the same fault schedule on every
// run regardless of what other clauses fire — and a `max=` cap bounds how
// many times a clause may hit (handy for testing bounded retry).
//
// Determinism caveat: the n-th-evaluation counter is per clause, so the
// schedule is deterministic whenever matching failpoints are evaluated in
// a deterministic order. Each failpoint sits on a serial path (file IO,
// import, benchmark building), but a multi-dataset bench runs its
// datasets concurrently on the pool, so which dataset a clause's n-th
// evaluation hits depends on scheduling. RLBENCH_THREADS=1 runs the pool
// inline in id order, which reproduces a schedule exactly.
//
// A malformed spec in RLBENCH_FAULTS aborts at first resolution with a
// parse error: a typo'd spec silently injecting nothing would invalidate
// exactly the experiments this layer exists to protect.
#ifndef RLBENCH_SRC_FAULT_FAILPOINT_H_
#define RLBENCH_SRC_FAULT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace rlbench::fault {

/// What an armed failpoint injects at a given hit.
enum class FaultKind {
  kNone = 0,
  kIOError,   ///< the operation reports an injected I/O failure
  kTruncate,  ///< data is cut short at a seeded offset
  kCorrupt,   ///< data is mangled at a seeded position
  kAlloc,     ///< allocation pressure: the operation reports exhaustion
};

/// Stable lower-case name ("io", "truncate", ...); "none" for kNone.
const char* FaultKindName(FaultKind kind);

/// \brief Outcome of evaluating one failpoint: no fault (the overwhelmingly
/// common case) or a fault kind plus deterministic per-hit entropy the call
/// site uses to pick offsets / bytes to mangle.
struct FaultHit {
  FaultKind kind = FaultKind::kNone;
  uint64_t payload = 0;

  explicit operator bool() const { return kind != FaultKind::kNone; }
};

namespace internal {

// 0 = unresolved (consult RLBENCH_FAULTS), 1 = off, 2 = on.
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
extern std::atomic<int> g_fault_state;
int ResolveFaultState();

/// Slow path behind RLBENCH_FAULT_POINT; only called while enabled.
/// Reads the armed clause list without its mutex — lock-free by contract
/// (SetSpec/Clear must not race with evaluation, see above), which the
/// thread-safety analysis cannot see.
FaultHit Evaluate(const char* point) RLBENCH_NO_THREAD_SAFETY_ANALYSIS;

}  // namespace internal

/// \brief True iff a fault spec is currently armed.
inline bool FaultsEnabled() {
  int state = internal::g_fault_state.load(std::memory_order_relaxed);
  if (state == 0) state = internal::ResolveFaultState();
  return state == 2;
}

/// \brief Programmatic override of RLBENCH_FAULTS (tests, harnesses).
/// Parses and arms `spec`; an empty spec disables injection. Returns
/// InvalidArgument (leaving the previous spec armed) when `spec` does not
/// parse. Must not be called while other threads evaluate failpoints.
[[nodiscard]] Status SetSpec(const std::string& spec);

/// \brief Disarm injection and forget any spec (env or programmatic);
/// counters reset. RLBENCH_FAULTS is not re-read afterwards.
void Clear();

/// \brief The armed spec string ("" when disabled).
std::string ActiveSpec();

/// \brief Per-clause accounting, in spec order.
struct FaultPointStats {
  std::string point;         ///< pattern as written (may end in '*')
  FaultKind kind = FaultKind::kNone;
  uint64_t evaluations = 0;  ///< matching failpoint evaluations
  uint64_t hits = 0;         ///< evaluations that injected a fault
};
std::vector<FaultPointStats> Stats();

}  // namespace rlbench::fault

/// Evaluate the named failpoint: yields a FaultHit that converts to false
/// when nothing is injected. `point` must be a string literal (or outlive
/// the call). Usage:
///
///   if (auto hit = RLBENCH_FAULT_POINT("data/file/read")) {
///     return Status::IOError("injected: read of " + path);
///   }
#define RLBENCH_FAULT_POINT(point)                   \
  (::rlbench::fault::FaultsEnabled()                 \
       ? ::rlbench::fault::internal::Evaluate(point) \
       : ::rlbench::fault::FaultHit{})

#endif  // RLBENCH_SRC_FAULT_FAILPOINT_H_
