// Deterministic parallel execution layer for the measurement and matching
// hot paths. All parallelism in rlbench flows through this header: a
// lazily-initialised global thread pool executes fixed-boundary chunks of
// index ranges, so results are bit-identical no matter how many threads
// run them.
//
// Determinism contract:
//   * Chunk boundaries depend only on (begin, end, grain) — never on the
//     thread count or on runtime timing.
//   * ParallelFor bodies write to disjoint, index-addressed slots; the pool
//     only decides WHEN a chunk runs, never WHAT it computes.
//   * ParallelReduce combines the per-chunk partials in ascending chunk
//     order on the calling thread, so floating-point grouping is fixed.
//   * Per-chunk randomness derives from SplitSeed(base, chunk_index)
//     (common/rng.h), independent of the other chunks' consumption.
//   Together these make every parallel call site produce byte-identical
//   results at 1, 2, or N threads (see tests/core/thread_invariance_test.cc).
//
// Nested calls: a Parallel* call issued from inside a Parallel* body is
// rejected from the pool and executes serially inline on the calling worker
// (same chunk boundaries, same combine order — identical results, no
// deadlock, no oversubscription).
//
// Exceptions: the first exception thrown by any chunk is captured and
// rethrown on the calling thread after all in-flight chunks finish.
//
// Sizing: RLBENCH_THREADS environment variable, else
// std::thread::hardware_concurrency(); SetParallelThreads() overrides at
// runtime (tests use it to sweep thread counts within one process).
//
// fork(): a child process starts with a fresh, unstarted pool at the
// default size; the parent's workers do not exist in the child.
#ifndef RLBENCH_SRC_COMMON_PARALLEL_H_
#define RLBENCH_SRC_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace rlbench {

/// Threads the global pool runs on (pool workers + the calling thread).
/// Resolution order: SetParallelThreads() override, RLBENCH_THREADS
/// environment variable, std::thread::hardware_concurrency(); at least 1.
size_t ParallelThreadCount();

/// Override the pool size (0 restores the environment/hardware default).
/// Tears down and relaunches the pool workers; must not be called from
/// inside a Parallel* body.
void SetParallelThreads(size_t threads);

/// True while the calling thread is executing a Parallel* body; nested
/// Parallel* calls observe this and run serially inline.
bool InParallelRegion();

/// The fixed chunking of [begin, end) at the given grain: ceil(n / grain)
/// chunks, every chunk `grain` wide except a short tail. Exposed so call
/// sites and tests can reason about (and pin) the determinism contract.
size_t ParallelChunkCount(size_t begin, size_t end, size_t grain);

/// Boundaries [first, last) of chunk `chunk` under the fixed chunking.
std::pair<size_t, size_t> ParallelChunkBounds(size_t begin, size_t end,
                                              size_t grain, size_t chunk);

namespace internal {

/// Run `body(chunk_index)` for every chunk index in [0, num_chunks) on the
/// global pool (calling thread participates). Serial when num_chunks <= 1,
/// the pool has one thread, or the caller is already inside a parallel
/// region. Rethrows the first body exception.
void RunChunks(size_t num_chunks, const std::function<void(size_t)>& body);

}  // namespace internal

/// \brief Parallel loop over [begin, end): `body(i)` once per index.
///
/// The body must only write to state owned by index i (disjoint slots);
/// under that contract the result is identical to the serial loop for every
/// thread count. `grain` is the number of consecutive indices one chunk
/// processes (amortises dispatch; keep it large enough that a chunk does
/// ~10µs of work).
template <typename Body>
void ParallelFor(size_t begin, size_t end, size_t grain, const Body& body) {
  if (begin >= end) return;
  size_t chunks = ParallelChunkCount(begin, end, grain);
  internal::RunChunks(chunks, [&](size_t chunk) {
    auto [first, last] = ParallelChunkBounds(begin, end, grain, chunk);
    for (size_t i = first; i < last; ++i) body(i);
  });
}

/// \brief Deterministic chunked reduction over [begin, end).
///
/// `map(first, last, chunk_index)` computes the partial value of one fixed
/// chunk; `combine(accumulator, partial)` folds the partials in ascending
/// chunk order on the calling thread. Because both the chunk boundaries and
/// the combine order are fixed, the result — including floating-point
/// grouping — is independent of the thread count.
template <typename T, typename Map, typename Combine>
T ParallelReduce(size_t begin, size_t end, size_t grain, T identity,
                 const Map& map, const Combine& combine) {
  if (begin >= end) return identity;
  size_t chunks = ParallelChunkCount(begin, end, grain);
  std::vector<T> partials(chunks, identity);
  internal::RunChunks(chunks, [&](size_t chunk) {
    auto [first, last] = ParallelChunkBounds(begin, end, grain, chunk);
    partials[chunk] = map(first, last, chunk);
  });
  T result = std::move(identity);
  for (size_t c = 0; c < chunks; ++c) {
    result = combine(std::move(result), std::move(partials[c]));
  }
  return result;
}

/// Default grain for element-cheap loops (a few hundred ns per element).
inline constexpr size_t kDefaultGrain = 256;

}  // namespace rlbench

#endif  // RLBENCH_SRC_COMMON_PARALLEL_H_
