#!/usr/bin/env bash
# One-shot pre-PR gate (and CI entry point). Six stages:
#   1. configure + build + ctest under ASan/UBSan (warnings as errors).
#      The ctest suite includes repo lint, its rule self-tests, the
#      negative-compilation fixtures, the observability end-to-end check
#      (obs_manifest_validate), the paper-bench smoke and the bench smokes
#      (micro_kernels, macro_bulk, micro_serve --storm, micro_drift), so
#      they all run under the sanitizers here
#   2. serve smoke: rlbench_serve on a loopback port (shed tier + linear
#      fallback armed), rlbench_client round-trip (ping/match/assess/
#      reload/shadow lifecycle), clean shutdown — all under the stage-1
#      sanitizers
#   3. TSan build + the concurrency-bearing tests (parallel pool, the
#      columnar store's parallel build and concurrent reads, thread-count
#      invariance, metrics shards)
#   4. fault-injection storm: a real bench under RLBENCH_FAULTS across 8
#      seeds with ASan/UBSan armed — graceful degradation may fail
#      datasets, but a crash/abort/sanitizer report fails the gate
#   5. Clang thread-safety analysis: full build under -Wthread-safety
#      -Wthread-safety-beta -Werror=thread-safety-analysis, then the
#      negative-compilation fixtures again with Clang, whose thread-safety
#      fixtures GCC cannot check (skipped with a warning if clang++ is not
#      installed)
#   6. clang-tidy over src/ (skipped with a warning if not installed)
#
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"
SCRATCH_ROOT="$(mktemp -d "${TMPDIR:-/tmp}/rlbench_check.XXXXXX")"
trap 'rm -rf "${SCRATCH_ROOT}"' EXIT

echo "== [1/6] build + test under ASan/UBSan =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRLBENCH_SANITIZE="address;undefined" \
  -DRLBENCH_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
# halt_on_error so UBSan findings fail the test run instead of scrolling by.
(
  cd "${BUILD_DIR}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    ctest --output-on-failure -j "${JOBS}"
)

echo "== [2/6] serve smoke (client/server round-trip under ASan/UBSan) =="
SERVE_DIR="${SCRATCH_ROOT}/serve"
mkdir -p "${SERVE_DIR}"
PORT_FILE="${SERVE_DIR}/port"
# The server trains Magellan-DT (cheap), publishes it into a fresh
# repository, binds an ephemeral loopback port, and writes it to
# --port_file once it is accepting connections. Shedding and the linear
# fallback tier are armed so the event loop runs its full configuration
# (even though this gentle smoke never trips a tier).
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
ASAN_OPTIONS="detect_leaks=1" \
  "${BUILD_DIR}/src/serve/rlbench_serve" --dataset=Ds3 --scale=0.2 \
  --matcher=Magellan-DT --repo="${SERVE_DIR}/repo" \
  --shed --fallback=SA-ESDE --quotas="smoke=200:50" \
  --port_file="${PORT_FILE}" > "${SERVE_DIR}/server.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 240); do
  [[ -s "${PORT_FILE}" ]] && break
  if ! kill -0 "${SERVE_PID}" 2>/dev/null; then
    echo "serve smoke: server died before binding" >&2
    cat "${SERVE_DIR}/server.log" >&2
    exit 1
  fi
  sleep 0.5
done
if [[ ! -s "${PORT_FILE}" ]]; then
  echo "serve smoke: server never wrote its port file" >&2
  kill "${SERVE_PID}" 2>/dev/null || true
  exit 1
fi
SERVE_PORT="$(cat "${PORT_FILE}")"
SERVE_CLIENT="${BUILD_DIR}/src/serve/rlbench_client"
# Each client call exits non-zero on an error response; set -e fails the
# gate. reload exercises the repository path (the snapshot published on
# startup hot-swaps back in).
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=ping
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=match --left=0 --right=0
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=assess
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=stats
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=reload --matcher=Magellan-DT
# Shadow lifecycle over the wire: start a candidate, poll it, cancel it.
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shadow_start --matcher=SA-ESDE
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shadow_status
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shadow_cancel
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shutdown
wait "${SERVE_PID}"   # non-zero server exit fails the gate (set -e)
grep -q "shut down cleanly" "${SERVE_DIR}/server.log"
if grep -qE "AddressSanitizer|LeakSanitizer|runtime error:" \
    "${SERVE_DIR}/server.log"; then
  echo "serve smoke: sanitizer report in server log" >&2
  tail -20 "${SERVE_DIR}/server.log" >&2
  exit 1
fi
echo "serve smoke: round-trip ok, clean shutdown"

echo "== [3/6] concurrency tests under TSan =="
TSAN_DIR="${REPO_ROOT}/build-tsan"
cmake -B "${TSAN_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRLBENCH_SANITIZE="thread" \
  -DRLBENCH_WERROR=ON
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target \
  common_test data_test core_test obs_test
# Only the tests that exercise the pool, the columnar store's parallel
# build and concurrent reads, and the thread-count invariance of the
# measure pipeline; the full suite already ran under ASan/UBSan above.
# TSan halts on the first race, so a pass here is a proof of race-freedom
# for these paths.
(
  cd "${TSAN_DIR}"
  # die_after_fork=0: ParallelForkTest's child starts a fresh pool after
  # forking a process with live workers, which TSan otherwise refuses to
  # run at all; races are still reported and still halt.
  TSAN_OPTIONS="halt_on_error=1:die_after_fork=0" ./tests/common_test \
    --gtest_filter='Parallel*:SplitSeed*'
  TSAN_OPTIONS="halt_on_error=1" ./tests/data_test \
    --gtest_filter='ColumnarStoreTest.*'
  TSAN_OPTIONS="halt_on_error=1" ./tests/core_test \
    --gtest_filter='ThreadInvarianceTest.*'
  # The lock-free metric shards and per-thread trace buffers under real
  # pool concurrency.
  TSAN_OPTIONS="halt_on_error=1" ./tests/obs_test \
    --gtest_filter='MetricsTest.*:TraceTest.*:ObsInvarianceTest.*'
)
echo "TSan: clean"

echo "== [4/6] fault-injection storm =="
# Drive a real bench through seeded fault storms with the sanitizers armed.
# The degradation contract: failed datasets are fine (the bench exits 0
# while at least one dataset survives, 1 when all fail), but any abort,
# signal, or sanitizer report fails the gate. abort_on_error turns
# sanitizer findings into SIGABRT so they can't masquerade as a clean
# "all datasets failed" exit.
FAULT_SCRATCH="${SCRATCH_ROOT}/fault_storm"
mkdir -p "${FAULT_SCRATCH}"
for seed in 1 2 3 4 5 6 7 8; do
  spec="seed=${seed};data/file/*=any:0.25;data/csv/*=any:0.15"
  spec="${spec};core/build_benchmark=any:0.3"
  status=0
  (
    cd "${FAULT_SCRATCH}"
    UBSAN_OPTIONS="halt_on_error=1:abort_on_error=1:print_stacktrace=1" \
    ASAN_OPTIONS="detect_leaks=1:abort_on_error=1" \
    RLBENCH_FAULTS="${spec}" \
      "${BUILD_DIR}/bench/table5_newbench" --datasets=Dn1,Dn3 --scale=0.05 \
      > "storm_${seed}.log" 2>&1
  ) || status=$?
  if [[ "${status}" -gt 1 ]]; then
    echo "fault storm seed ${seed}: bench died (exit ${status})" >&2
    tail -20 "${FAULT_SCRATCH}/storm_${seed}.log" >&2
    exit 1
  fi
  if grep -qE "AddressSanitizer|LeakSanitizer|runtime error:" \
      "${FAULT_SCRATCH}/storm_${seed}.log"; then
    echo "fault storm seed ${seed}: sanitizer report" >&2
    tail -20 "${FAULT_SCRATCH}/storm_${seed}.log" >&2
    exit 1
  fi
done
echo "fault storm: clean (8 seeds, no crashes, no sanitizer reports)"

echo "== [5/6] Clang thread-safety analysis =="
TS_CLANG="$(command -v clang++ || true)"
if [[ -z "${TS_CLANG}" ]]; then
  for v in 18 17 16 15 14; do
    if command -v "clang++-${v}" >/dev/null; then
      TS_CLANG="clang++-${v}"
      break
    fi
  done
fi
if [[ -z "${TS_CLANG}" ]]; then
  echo "WARNING: clang++ not installed; skipping thread-safety analysis" \
    "(annotations compile as no-ops under GCC)" >&2
else
  TS_DIR="${REPO_ROOT}/build-threadsafety"
  cmake -B "${TS_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER="${TS_CLANG}" \
    -DRLBENCH_THREAD_SAFETY=ON
  cmake --build "${TS_DIR}" -j "${JOBS}"
  echo "thread-safety analysis: clean"
  # The negative-compilation fixtures with Clang: the must-not-compile
  # thread-safety fixtures only prove anything under Clang's analysis.
  (cd "${TS_DIR}" && ctest -R compile_fail_test --output-on-failure)
fi

echo "== [6/6] clang-tidy =="
TIDY_BIN="$(command -v clang-tidy || true)"
if [[ -z "${TIDY_BIN}" ]]; then
  for v in 18 17 16 15 14; do
    if command -v "clang-tidy-${v}" >/dev/null; then
      TIDY_BIN="clang-tidy-${v}"
      break
    fi
  done
fi
if [[ -z "${TIDY_BIN}" ]]; then
  echo "WARNING: clang-tidy not installed; skipping tidy stage" >&2
else
  TIDY_DIR="${REPO_ROOT}/build-tidy"
  cmake -B "${TIDY_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=Release -DRLBENCH_TIDY=ON
  # Building with CMAKE_CXX_CLANG_TIDY runs tidy on every translation unit;
  # RLBENCH_WERROR stays off so only tidy diagnostics surface here.
  cmake --build "${TIDY_DIR}" -j "${JOBS}" --target \
    rlbench_obs rlbench_common rlbench_text rlbench_data rlbench_embed \
    rlbench_ml rlbench_datagen rlbench_block rlbench_matchers rlbench_core \
    rlbench_serve
  echo "clang-tidy: clean"
fi

echo "== all gates passed =="
