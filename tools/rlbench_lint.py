#!/usr/bin/env python3
"""Repo lint for rlbench: project invariants clang-tidy cannot express.

Engine v2: every rule is a Rule object carrying its checker plus positive
and negative fixtures; `--self-test` runs each rule against its fixtures,
so a rule that silently stops firing (regex rot, refactored allowlist)
fails in ctest instead of letting violations through.

Rules:
  guard         every header under src/ and bench/ opens with an include
                guard derived from its repo-relative path
                (src/common/check.h -> RLBENCH_SRC_COMMON_CHECK_H_)
  rng           no std::rand / srand / std::random_device / raw std::mt19937
                outside common/rng.{h,cc}; all randomness flows through
                rlbench::Rng so experiments stay reproducible
  threads       no raw std::thread / std::jthread / std::async outside
                common/parallel.cc; all parallelism flows through
                ParallelFor / ParallelReduce so results stay deterministic
                (std::thread::id and hardware_concurrency are inert and
                exempt)
  detach        no thread .detach() anywhere: a detached thread outlives
                every shutdown contract in the codebase (pool teardown,
                serve drain, trace/metric flush) and turns clean exits
                into races
  locks         no raw std::mutex / condition_variable / lock_guard /
                unique_lock / scoped_lock outside
                common/thread_annotations.h; all locking flows through
                rlbench::Mutex / MutexLock / CondVar so the Clang
                thread-safety analysis sees the whole lock graph. Files
                declaring a Mutex member must carry at least one
                RLBENCH_GUARDED_BY annotation (a mutex that guards
                nothing the analysis can check is a smell)
  nodiscard     status-returning declarations in headers must be
                [[nodiscard]], and `(void)` casts of call expressions are
                banned in src/ and bench/ — a dropped Status is a dropped
                error; handle it or propagate with RLBENCH_RETURN_NOT_OK /
                RLBENCH_ASSIGN_OR_RETURN
  chrono        no direct std::chrono outside common/stopwatch.h,
                src/obs/, and src/data/file_source.cc (retry backoff);
                all timing flows through Stopwatch or the observability
                layer so clock reads stay auditable
  fstream       no raw std::ifstream / std::ofstream outside
                src/data/file_source.* and src/fault/; all file IO flows
                through data::FileSource so failure semantics stay uniform
                and the fault-injection layer covers every IO path
  sockets       no raw socket code (<sys/socket.h>, <netinet/*>, <poll.h>,
                ::socket/::bind/::connect/::accept calls) outside
                src/serve/net.*; all transport flows through serve::Socket
                and the framed helpers so the server stays loopback-only
                and connection failure semantics stay in one place
  blocknet      no blocking socket helpers (Accept, WaitReadable, SendAll,
                RecvSome, SendFrame, RecvFrame) in src/serve/ outside
                net.* and the synchronous client.* — the server side is a
                nonblocking event loop, and one blocking call on its thread
                parks every multiplexed connection behind one slow peer
  drift         no drift/ includes or drift types (DriftTracker,
                WindowReservoir, DriftController, ComputeWindowMeasures)
                in src/serve/ outside service.* — the serve-path sampling
                hook is one guarded call in MatchService::PumpOne, and the
                rest of the serve layer sees only the plain-number
                DriftStatus view, so "drift off = one null check" stays
                auditable
  using-ns      no `using namespace` at any scope in headers
  kernels       no associative-container lookups or heap allocation inside
                loop bodies of src/text/kernels.cc — the vectorized kernels
                are the per-pair hot path and must work over presorted
                contiguous spans with stack scratch only (top-level, non-
                loop allocations like ParseNumeric's strtod buffer are fine)
  bulk          no whole-dataset entry points (FileSource::ReadAll,
                BulkSourceGenerator::Materialize, BuildSourceDataset, the
                in-memory MinHashBlocking / SortedNeighborhoodBlocking)
                inside src/bulk/ — the out-of-core pipeline must stream;
                collected forms belong in tests and benchmarks
  cmake-reg     every .cc under src/ is listed in its directory's
                CMakeLists.txt (unregistered files silently fall out of the
                build and rot)

Exit status: 0 when clean, 1 with one "path:line: message" per violation.
With --self-test: 0 when every rule's fixtures behave, 1 otherwise.
"""

import argparse
import pathlib
import re
import sys
import tempfile

HEADER_DIRS = ("src", "bench")
SOURCE_DIRS = ("src", "bench", "tests", "examples", "tools")
LINE_COMMENT = re.compile(r"//.*$")


class Fixture:
    """One synthetic file a rule is tested against.

    `bad` fixtures must produce at least one violation; good ones none.
    """

    def __init__(self, rel, text, bad):
        self.rel = rel
        self.text = text
        self.bad = bad


class Rule:
    def __init__(self, name, check, fixtures, headers_only=False):
        self.name = name
        self.check = check  # check(rel: str, lines: [str], errors: [str])
        self.fixtures = fixtures
        self.headers_only = headers_only


def _pattern_check(allowlist, allowed_prefixes, patterns, scope=""):
    """Confinement checker: flag `patterns` in files under `scope` (the
    whole tree by default) outside the allowlisted files and prefixes."""

    def check(rel, lines, errors):
        if not rel.startswith(scope):
            return
        if rel in allowlist or rel.startswith(allowed_prefixes):
            return
        for i, line in enumerate(lines):
            code = LINE_COMMENT.sub("", line)
            for pattern, message in patterns:
                if pattern.search(code):
                    errors.append(f"{rel}:{i + 1}: {message}")

    return check


# --- guard ------------------------------------------------------------------

def guard_name(rel_path):
    mangled = re.sub(r"[^A-Za-z0-9]", "_", str(rel_path)).upper()
    return f"RLBENCH_{mangled}_"


def check_guard(rel, lines, errors):
    guard = guard_name(rel)
    ifndef_idx = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("#ifndef"):
            ifndef_idx = i
        break
    if ifndef_idx is None:
        errors.append(f"{rel}:1: header must open with include guard "
                      f"'#ifndef {guard}' (found none before first code)")
        return
    tokens = lines[ifndef_idx].split()
    if len(tokens) < 2 or tokens[1] != guard:
        found = tokens[1] if len(tokens) > 1 else "<nothing>"
        errors.append(f"{rel}:{ifndef_idx + 1}: include guard '{found}' does "
                      f"not match path-derived '{guard}'")
        return
    define_idx = ifndef_idx + 1
    if define_idx >= len(lines) or lines[define_idx].split()[:2] != [
            "#define", guard]:
        errors.append(f"{rel}:{define_idx + 1}: '#ifndef {guard}' must be "
                      f"followed by '#define {guard}'")
    closed = any(line.strip().startswith("#endif") for line in lines[::-1][:5])
    if not closed:
        errors.append(f"{rel}:{len(lines)}: missing trailing '#endif' for "
                      f"include guard {guard}")


GUARD_FIXTURES = [
    Fixture("src/x/y.h", "#ifndef RLBENCH_SRC_X_Y_H_\n"
            "#define RLBENCH_SRC_X_Y_H_\n#endif  // RLBENCH_SRC_X_Y_H_\n",
            bad=False),
    Fixture("src/x/y.h", "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n"
            "#endif\n", bad=True),
    Fixture("src/x/y.h", "#pragma once\nint x;\n", bad=True),
]

# --- rng --------------------------------------------------------------------

RNG_ALLOWLIST = {"src/common/rng.h", "src/common/rng.cc"}
RNG_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand is banned; use rlbench::Rng"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand is banned; use rlbench::Rng"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is non-deterministic; seed rlbench::Rng explicitly"),
    (re.compile(r"\bstd::mt19937(_64)?\b"),
     "raw std::mt19937 outside common/rng; draw through rlbench::Rng"),
]

RNG_FIXTURES = [
    Fixture("src/a/b.cc", "int x = std::rand();\n", bad=True),
    Fixture("src/a/b.cc", "std::mt19937 gen(7);\n", bad=True),
    Fixture("src/common/rng.cc", "std::mt19937_64 gen_;\n", bad=False),
    Fixture("src/a/b.cc", "// std::rand in a comment is fine\n", bad=False),
]

# --- threads ----------------------------------------------------------------

# tests/obs/trace_test.cc spawns one raw thread on purpose: it asserts
# that per-thread trace tracks are named, which ParallelFor cannot pin to
# a specific OS thread. The thread_annotations test needs raw threads to
# drive real cross-thread contention through Mutex/CondVar.
THREAD_ALLOWLIST = {"src/common/parallel.cc", "tests/obs/trace_test.cc",
                    "tests/common/thread_annotations_test.cc"}
THREAD_PATTERNS = [
    # std::thread::id / ::hardware_concurrency are inert (no thread is
    # spawned); everything else must go through common/parallel.h.
    (re.compile(r"\bstd::thread\b(?!::(?:id|hardware_concurrency)\b)"),
     "raw std::thread outside common/parallel; use ParallelFor/Reduce"),
    (re.compile(r"\bstd::jthread\b"),
     "raw std::jthread outside common/parallel; use ParallelFor/Reduce"),
    (re.compile(r"\bstd::async\b"),
     "std::async outside common/parallel; use ParallelFor/Reduce"),
]

THREAD_FIXTURES = [
    Fixture("src/a/b.cc", "std::thread t([] {});\n", bad=True),
    Fixture("src/a/b.cc", "auto n = std::thread::hardware_concurrency();\n",
            bad=False),
    Fixture("src/common/parallel.cc", "std::thread t([] {});\n", bad=False),
]

# --- detach -----------------------------------------------------------------

DETACH_PATTERNS = [
    (re.compile(r"(?:\.|->)\s*detach\s*\(\s*\)"),
     "thread detach() is banned: a detached thread outlives every shutdown "
     "contract (pool teardown, serve drain, obs flush); join it instead"),
]


def check_detach(rel, lines, errors):
    for i, line in enumerate(lines):
        code = LINE_COMMENT.sub("", line)
        for pattern, message in DETACH_PATTERNS:
            if pattern.search(code):
                errors.append(f"{rel}:{i + 1}: {message}")


DETACH_FIXTURES = [
    Fixture("src/common/parallel.cc", "worker.detach();\n", bad=True),
    Fixture("src/a/b.cc", "thread_ptr->detach();\n", bad=True),
    Fixture("src/a/b.cc", "worker.join();\n", bad=False),
]

# --- locks ------------------------------------------------------------------

LOCKS_ALLOWLIST = {"src/common/thread_annotations.h"}
LOCKS_PATTERNS = [
    (re.compile(r"\bstd::(?:recursive_|shared_|timed_)?mutex\b"),
     "raw std::mutex outside common/thread_annotations.h; use "
     "rlbench::Mutex so the thread-safety analysis sees the lock"),
    (re.compile(r"\bstd::condition_variable(?:_any)?\b"),
     "raw std::condition_variable outside common/thread_annotations.h; "
     "use rlbench::CondVar"),
    (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "raw std lock wrapper outside common/thread_annotations.h; use "
     "rlbench::MutexLock"),
]
MUTEX_MEMBER = re.compile(r"^\s*(?:rlbench::)?Mutex\s+\w+\s*(?:RLBENCH_\w+\s*\([^)]*\)\s*)?;")


def check_locks(rel, lines, errors):
    if rel in LOCKS_ALLOWLIST:
        return
    # The negative-compilation fixtures are deliberate misuse: policing
    # their lock hygiene would force them to be correct.
    if rel.startswith("tests/static/fixtures/"):
        return
    declares_mutex = False
    has_guarded_by = False
    for i, line in enumerate(lines):
        code = LINE_COMMENT.sub("", line)
        for pattern, message in LOCKS_PATTERNS:
            if pattern.search(code):
                errors.append(f"{rel}:{i + 1}: {message}")
        if MUTEX_MEMBER.match(code):
            declares_mutex = True
        if "RLBENCH_GUARDED_BY" in code:
            has_guarded_by = True
    if declares_mutex and not has_guarded_by:
        errors.append(f"{rel}:1: declares a Mutex but no field carries "
                      f"RLBENCH_GUARDED_BY; annotate what the mutex guards "
                      f"(see src/common/thread_annotations.h)")


LOCKS_FIXTURES = [
    Fixture("src/a/b.cc", "std::mutex mu_;\n", bad=True),
    Fixture("src/a/b.cc", "std::lock_guard<std::mutex> lock(mu_);\n",
            bad=True),
    Fixture("src/a/b.cc", "std::condition_variable cv_;\n", bad=True),
    Fixture("src/common/thread_annotations.h", "std::mutex mu_;\n",
            bad=False),
    Fixture("src/a/b.cc",
            "Mutex mu_;\nint x_ RLBENCH_GUARDED_BY(mu_) = 0;\n", bad=False),
    Fixture("src/a/b.cc", "Mutex mu_;\nint x_ = 0;\n", bad=True),
]

# --- nodiscard --------------------------------------------------------------

STATUS_DECL = re.compile(
    r"^(\s*)(?:virtual\s+|static\s+|inline\s+|explicit\s+)*"
    r"(?:rlbench::|common::)?(?:Status|Result<[^;{=]*>)\s+&?[A-Za-z_]\w*\s*\(")
VOID_CAST_CALL = re.compile(r"\(void\)\s*[A-Za-z_][\w:]*\s*(?:\(|\.|->)")
# `(void)` discards of calls are checked where real handling is expected;
# tests legitimately discard in EXPECT_DEATH bodies and failpoint drills.
VOID_CAST_DIRS = ("src/", "bench/", "examples/")


def check_nodiscard(rel, lines, errors):
    is_header = rel.endswith(".h")
    for i, line in enumerate(lines):
        code = LINE_COMMENT.sub("", line)
        if is_header and STATUS_DECL.match(code) and \
                "[[nodiscard]]" not in code:
            prev = lines[i - 1] if i > 0 else ""
            if "[[nodiscard]]" not in prev:
                errors.append(
                    f"{rel}:{i + 1}: status-returning declaration must be "
                    f"[[nodiscard]] (a dropped Status is a dropped error)")
        if rel.startswith(VOID_CAST_DIRS) and VOID_CAST_CALL.search(code):
            errors.append(
                f"{rel}:{i + 1}: explicit `(void)` discard of a call is "
                f"banned; handle the result or propagate with "
                f"RLBENCH_RETURN_NOT_OK / RLBENCH_ASSIGN_OR_RETURN")


NODISCARD_FIXTURES = [
    Fixture("src/a/b.h", "Status Load(const std::string& path);\n", bad=True),
    Fixture("src/a/b.h", "[[nodiscard]] Status Load(const std::string& p);\n",
            bad=False),
    Fixture("src/a/b.h",
            "[[nodiscard]]\nResult<int> Parse(const std::string& text);\n",
            bad=False),
    Fixture("src/a/b.h", "Result<int> Parse(const std::string& text);\n",
            bad=True),
    Fixture("src/a/b.h", "virtual Status Train(const Task& task) = 0;\n",
            bad=True),
    Fixture("src/a/b.h", "  StatusCode code() const { return code_; }\n",
            bad=False),
    Fixture("src/a/b.h", "  Status status;\n", bad=False),
    Fixture("src/a/b.cc", "(void)WriteAtomic(path, blob);\n", bad=True),
    Fixture("src/a/b.cc", "(void)source.Write(path, blob);\n", bad=True),
    Fixture("src/a/b.cc", "(void)unused_arg;\n", bad=False),
    Fixture("tests/a/b.cc", "(void)RLBENCH_FAULT_POINT(\"t\");\n", bad=False),
]

# --- chrono -----------------------------------------------------------------

# trace_test sleeps to age the trace epoch before a re-arm; Stopwatch has
# no sleep and polling it would burn a core for nothing.
CHRONO_ALLOWLIST = {"src/common/stopwatch.h", "src/data/file_source.cc",
                    "src/common/thread_annotations.h",
                    "tests/obs/trace_test.cc"}
CHRONO_ALLOWED_PREFIXES = ("src/obs/",)
CHRONO_PATTERNS = [
    (re.compile(r"#\s*include\s*<chrono>"),
     "direct <chrono> outside common/stopwatch.h and src/obs/; time through "
     "Stopwatch or the obs layer"),
    (re.compile(r"\bstd::chrono\b"),
     "direct std::chrono outside common/stopwatch.h and src/obs/; time "
     "through Stopwatch or the obs layer"),
]

CHRONO_FIXTURES = [
    Fixture("src/a/b.cc", "#include <chrono>\n", bad=True),
    Fixture("src/obs/trace.cc", "std::chrono::steady_clock::now();\n",
            bad=False),
    Fixture("src/common/stopwatch.h", "std::chrono::steady_clock::now();\n",
            bad=False),
]

# --- fstream ----------------------------------------------------------------

FSTREAM_ALLOWLIST = {"src/data/file_source.h", "src/data/file_source.cc"}
FSTREAM_ALLOWED_PREFIXES = ("src/fault/",)
FSTREAM_PATTERNS = [
    (re.compile(r"\bstd::(?:i|o|)fstream\b"),
     "raw fstream outside data/file_source; read and write through "
     "data::FileSource so faults and failure semantics stay uniform"),
]

FSTREAM_FIXTURES = [
    Fixture("src/a/b.cc", "std::ofstream out(path);\n", bad=True),
    Fixture("src/data/file_source.cc", "std::ifstream in(path);\n",
            bad=False),
]

# --- sockets ----------------------------------------------------------------

SOCKET_ALLOWED_PREFIXES = ("src/serve/net",)
SOCKET_PATTERNS = [
    (re.compile(r"#\s*include\s*<(?:sys/socket\.h|netinet/[\w.]+|"
                r"arpa/inet\.h|poll\.h|sys/epoll\.h|sys/select\.h)>"),
     "socket/poll headers outside src/serve/net; go through serve::Socket "
     "and the framed IO helpers"),
    (re.compile(r"::(?:socket|bind|listen|connect|accept|recv|send|poll)\s*\("),
     "raw socket call outside src/serve/net; go through serve::Socket and "
     "the framed IO helpers"),
]

SOCKET_FIXTURES = [
    Fixture("src/a/b.cc", "#include <sys/socket.h>\n", bad=True),
    Fixture("src/serve/net.cc", "int fd = ::socket(AF_INET, 0, 0);\n",
            bad=False),
]

# --- blocknet ---------------------------------------------------------------

# The serve-side event loop multiplexes every connection on one thread: a
# single blocking wait (accept, framed recv, full-buffer send) parks all of
# them behind one slow peer. net.* implements both flavors, and client.*
# is the synchronous caller-side API, so both stay exempt.
BLOCKNET_PREFIX = "src/serve/"
BLOCKNET_ALLOWED_PREFIXES = ("src/serve/net", "src/serve/client")
BLOCKNET_PATTERNS = [
    (re.compile(r"\b(?:Accept|WaitReadable|SendAll|RecvSome|SendFrame|"
                r"RecvFrame)\s*\("),
     "blocking socket helper in serve code outside net.*/client.*; the "
     "event loop must stay nonblocking (AcceptWithDeadline, "
     "ReadNonBlocking/WriteNonBlocking via EventLoop)"),
]


BLOCKNET_FIXTURES = [
    Fixture("src/serve/server.cc",
            "auto socket = Accept(listener_);\n", bad=True),
    Fixture("src/serve/server.cc",
            "auto frame = RecvFrame(socket, &decoder);\n", bad=True),
    Fixture("src/serve/event_loop.cc",
            "RLBENCH_RETURN_NOT_OK(SendAll(conn.socket, bytes));\n",
            bad=True),
    Fixture("src/serve/service.cc",
            "auto ready = WaitReadable(socket, 50);\n", bad=True),
    # The nonblocking variants are the sanctioned loop primitives.
    Fixture("src/serve/event_loop.cc",
            "auto accepted = AcceptWithDeadline(listener_, 0);\n"
            "auto read = ReadNonBlocking(conn.socket);\n"
            "auto wrote = WriteNonBlocking(conn.socket, view);\n",
            bad=False),
    # net.* and the synchronous client API implement/consume the blocking
    # flavor on purpose.
    Fixture("src/serve/net.cc",
            "Result<Socket> Accept(const Socket& listener) {\n", bad=False),
    Fixture("src/serve/client.cc",
            "return RecvFrame(socket_, &decoder_);\n", bad=False),
    # Blocking helpers outside src/serve/ are the sockets rule's business.
    Fixture("tests/serve/loop_test.cc",
            "auto one = Accept(*listener);\n", bad=False),
]

# --- using-ns ---------------------------------------------------------------

USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")


def check_using_namespace(rel, lines, errors):
    for i, line in enumerate(lines):
        code = LINE_COMMENT.sub("", line)
        if USING_NAMESPACE.search(code):
            errors.append(f"{rel}:{i + 1}: 'using namespace' is banned in "
                          f"headers")


USING_NS_FIXTURES = [
    Fixture("src/a/b.h", "using namespace std;\n", bad=True),
    Fixture("src/a/b.h", "using rlbench::Status;\n", bad=False),
]

# --- kernels ----------------------------------------------------------------

KERNELS_FILE = "src/text/kernels.cc"
KERNELS_LOOP_HEAD = re.compile(r"\b(?:for|while)\s*\(")
KERNELS_BANNED = [
    (re.compile(r"\bstd::(?:unordered_)?(?:map|set)\b"),
     "associative-container lookup in a kernels.cc loop body; kernels "
     "operate on presorted contiguous spans (intersect by merge scan)"),
    (re.compile(r"\bstd::vector\b|\bstd::string\b|\bnew\b|\bmalloc\s*\(|"
                r"\bmake_(?:unique|shared)\b|"
                r"\.(?:push_back|emplace_back|resize|reserve)\s*\("),
     "heap allocation in a kernels.cc loop body; hoist scratch out of the "
     "hot loop (stack buffers or caller-provided spans)"),
]


def check_kernels(rel, lines, errors):
    """Brace-tracking scan: flag banned tokens only inside loop bodies.

    A small state machine rather than a full parser: `pending_loop` is set
    when a for/while head is seen and converted to a loop body at its
    opening brace (paren depth distinguishes the semicolons inside a
    `for (;;)` head from a braceless single-statement body).
    """
    if rel != KERNELS_FILE:
        return
    depth = 0
    paren = 0
    loop_stack = []  # brace depth at which each open loop body started
    pending_loop = False
    for i, line in enumerate(lines):
        code = LINE_COMMENT.sub("", line)
        in_loop = bool(loop_stack) or pending_loop or \
            KERNELS_LOOP_HEAD.search(code)
        if in_loop:
            for pattern, message in KERNELS_BANNED:
                if pattern.search(code):
                    errors.append(f"{rel}:{i + 1}: {message}")
        if KERNELS_LOOP_HEAD.search(code):
            pending_loop = True
        for ch in code:
            if ch == "(":
                paren += 1
            elif ch == ")":
                paren -= 1
            elif ch == "{":
                depth += 1
                if pending_loop:
                    loop_stack.append(depth)
                    pending_loop = False
            elif ch == "}":
                if loop_stack and loop_stack[-1] == depth:
                    loop_stack.pop()
                depth -= 1
            elif ch == ";" and pending_loop and paren == 0:
                # Braceless single-statement loop body ends here.
                pending_loop = False


KERNELS_FIXTURES = [
    Fixture("src/text/kernels.cc",
            "size_t F(std::span<const uint32_t> a) {\n"
            "  size_t n = 0;\n"
            "  for (size_t i = 0; i < a.size(); ++i) {\n"
            "    std::unordered_map<uint32_t, int> m;\n"
            "    n += m.count(a[i]);\n"
            "  }\n"
            "  return n;\n"
            "}\n", bad=True),
    Fixture("src/text/kernels.cc",
            "void G(std::span<int> out) {\n"
            "  while (true) {\n"
            "    scratch.push_back(1);\n"
            "  }\n"
            "}\n", bad=True),
    Fixture("src/text/kernels.cc",
            "size_t H(size_t n) {\n"
            "  size_t acc = 0;\n"
            "  for (size_t i = 0; i < n; ++i)\n"
            "    acc += new_count(i);\n"
            "  return acc;\n"
            "}\n", bad=False),
    Fixture("src/text/kernels.cc",
            "bool ParseNumeric(std::string_view v, double* out) {\n"
            "  std::string buf(StripAscii(v));\n"
            "  for (char c : buf) {\n"
            "    if (c == '.') *out = 1.0;\n"
            "  }\n"
            "  return true;\n"
            "}\n", bad=False),
    Fixture("src/other/file.cc",
            "for (;;) { scratch.push_back(1); }\n", bad=False),
]

# --- bulk -------------------------------------------------------------------

# src/bulk/ exists to resolve datasets that do not fit in memory, so its
# code must stream through BulkSourceGenerator / ShardReader. These tokens
# are the exact whole-dataset entry points that would silently make the
# pipeline in-core again; tests and benchmarks may still use them to cross-
# check the streamed results against collected ones.
BULK_PREFIX = "src/bulk/"
BULK_PATTERNS = [
    (re.compile(r"\b(?:ReadAll|Materialize|BuildSourceDataset|"
                r"MinHashBlocking|SortedNeighborhoodBlocking)\b"),
     "whole-dataset materialization inside src/bulk/; the out-of-core "
     "pipeline must stream (BulkSourceGenerator, ShardReader/ShardWriter) "
     "— collected forms belong in tests"),
]


BULK_FIXTURES = [
    Fixture("src/bulk/x.cc", "auto blob = FileSource::ReadAll(path);\n",
            bad=True),
    Fixture("src/bulk/x.cc", "auto pair = source.Materialize();\n",
            bad=True),
    Fixture("src/bulk/x.cc",
            "auto c = block::MinHashBlocking(d1, d2, options);\n", bad=True),
    Fixture("src/bulk/x.cc",
            "auto c = block::SortedNeighborhoodBlocking(d1, d2, o);\n",
            bad=True),
    Fixture("src/bulk/x.cc", "// Materialize() lives in tests only.\n",
            bad=False),
    Fixture("src/bulk/x.cc", "writer.Append(shard, std::move(entry));\n",
            bad=False),
    Fixture("tests/bulk/x.cc", "auto pair = source.Materialize();\n",
            bad=False),
    Fixture("src/datagen/bulk_source.cc", "SourcePair Materialize();\n",
            bad=False),
]

# --- drift ------------------------------------------------------------------

# The difficulty-drift monitor samples scored pairs off the serve path.
# That sampling hook lives in exactly one place — MatchService::PumpOne in
# service.cc, behind the batch-tier/status guard — so the "drift off means
# one null check" contract stays auditable. Everything else in src/serve/
# talks to drift through MatchService's plain-number DriftStatus view
# (DriftSnapshot / TakeDriftTrigger / RearmDrift), never the drift types.
DRIFT_PREFIX = "src/serve/"
DRIFT_ALLOWED_PREFIXES = ("src/serve/service",)
DRIFT_PATTERNS = [
    (re.compile(r"#\s*include\s+\"drift/"),
     "drift header included in serve code outside service.*; the serve "
     "layer reaches the drift monitor only through MatchService "
     "(DriftSnapshot/TakeDriftTrigger/RearmDrift)"),
    (re.compile(r"\bdrift::|\b(?:DriftTracker|WindowReservoir|"
                r"DriftController|ComputeWindowMeasures)\b"),
     "drift type named in serve code outside service.*; use "
     "MatchService's plain-number DriftStatus view instead"),
]


DRIFT_FIXTURES = [
    Fixture("src/serve/server.cc",
            "#include \"drift/tracker.h\"\n", bad=True),
    Fixture("src/serve/event_loop.cc",
            "std::unique_ptr<drift::DriftTracker> tracker_;\n", bad=True),
    Fixture("src/serve/server.h",
            "drift::WindowReservoir reservoir_;\n", bad=True),
    Fixture("src/serve/wire.cc",
            "auto m = ComputeWindowMeasures(ctx, window);\n", bad=True),
    # The choke point itself owns the tracker and its types.
    Fixture("src/serve/service.h",
            "#include \"drift/tracker.h\"\n"
            "std::unique_ptr<drift::DriftTracker> drift_;\n", bad=False),
    Fixture("src/serve/service.cc",
            "drift_->RecordBatch(flat, scores, decisions);\n", bad=False),
    # The plain-number view is the sanctioned interface.
    Fixture("src/serve/server.cc",
            "DriftStatus drift = service_.DriftSnapshot();\n"
            "service_.RearmDrift();\n", bad=False),
    # The drift subsystem and its tests are out of scope.
    Fixture("src/drift/tracker.cc",
            "WindowReservoir reservoir_(options.reservoir);\n", bad=False),
    Fixture("tests/serve/drift_service_test.cc",
            "#include \"drift/tracker.h\"\n", bad=False),
]

# --- rule registry ----------------------------------------------------------

RULES = [
    Rule("guard", check_guard, GUARD_FIXTURES, headers_only=True),
    Rule("using-ns", check_using_namespace, USING_NS_FIXTURES,
         headers_only=True),
    Rule("rng", _pattern_check(RNG_ALLOWLIST, (), RNG_PATTERNS),
         RNG_FIXTURES),
    Rule("threads", _pattern_check(THREAD_ALLOWLIST, (), THREAD_PATTERNS),
         THREAD_FIXTURES),
    Rule("detach", check_detach, DETACH_FIXTURES),
    Rule("locks", check_locks, LOCKS_FIXTURES),
    Rule("nodiscard", check_nodiscard, NODISCARD_FIXTURES),
    Rule("kernels", check_kernels, KERNELS_FIXTURES),
    Rule("bulk", _pattern_check(set(), (), BULK_PATTERNS, scope=BULK_PREFIX),
         BULK_FIXTURES),
    Rule("chrono",
         _pattern_check(CHRONO_ALLOWLIST, CHRONO_ALLOWED_PREFIXES,
                        CHRONO_PATTERNS), CHRONO_FIXTURES),
    Rule("fstream",
         _pattern_check(FSTREAM_ALLOWLIST, FSTREAM_ALLOWED_PREFIXES,
                        FSTREAM_PATTERNS), FSTREAM_FIXTURES),
    Rule("sockets", _pattern_check(set(), SOCKET_ALLOWED_PREFIXES,
                                   SOCKET_PATTERNS), SOCKET_FIXTURES),
    Rule("blocknet",
         _pattern_check(set(), BLOCKNET_ALLOWED_PREFIXES, BLOCKNET_PATTERNS,
                        scope=BLOCKNET_PREFIX), BLOCKNET_FIXTURES),
    Rule("drift",
         _pattern_check(set(), DRIFT_ALLOWED_PREFIXES, DRIFT_PATTERNS,
                        scope=DRIFT_PREFIX), DRIFT_FIXTURES),
]

# --- cmake-reg (tree-level, not per-file) -----------------------------------


def check_cmake_registration(root, errors):
    for cc in sorted((root / "src").rglob("*.cc")):
        rel = cc.relative_to(root).as_posix()
        cmake = cc.parent / "CMakeLists.txt"
        if not cmake.exists():
            errors.append(f"{rel}:1: no CMakeLists.txt in {cc.parent.name}/ "
                          f"to register this source")
            continue
        listed = re.findall(r"[\w./-]+\.cc\b", cmake.read_text())
        if cc.name not in listed:
            cmake_rel = cmake.relative_to(root).as_posix()
            errors.append(f"{rel}:1: not registered in {cmake_rel}")


def self_test_cmake_reg():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src" / "a").mkdir(parents=True)
        (root / "src" / "a" / "used.cc").write_text("int x;\n")
        (root / "src" / "a" / "orphan.cc").write_text("int y;\n")
        (root / "src" / "a" / "CMakeLists.txt").write_text(
            "add_library(a used.cc)\n")
        errors = []
        check_cmake_registration(root, errors)
        if len(errors) != 1 or "orphan.cc" not in errors[0]:
            failures.append(f"cmake-reg: expected exactly the orphan to be "
                            f"flagged, got {errors}")
    return failures


def self_test():
    failures = []
    for rule in RULES:
        for j, fixture in enumerate(rule.fixtures):
            errors = []
            rule.check(fixture.rel, fixture.text.splitlines(), errors)
            if fixture.bad and not errors:
                failures.append(
                    f"{rule.name}: fixture #{j} ({fixture.rel}) should be "
                    f"flagged but passed: {fixture.text!r}")
            elif not fixture.bad and errors:
                failures.append(
                    f"{rule.name}: fixture #{j} ({fixture.rel}) should pass "
                    f"but was flagged: {errors}")
    failures.extend(self_test_cmake_reg())
    for failure in failures:
        print(f"SELF-TEST FAIL: {failure}")
    total = sum(len(rule.fixtures) for rule in RULES)
    if failures:
        print(f"rlbench_lint --self-test: {len(failures)} failure(s) over "
              f"{total} fixtures + cmake-reg", file=sys.stderr)
        return 1
    print(f"rlbench_lint --self-test: {len(RULES) + 1} rules, "
          f"{total} fixtures + cmake-reg tree fixture: all behave")
    return 0


def lint(root):
    errors = []
    seen = set()
    for top in HEADER_DIRS:
        for header in sorted((root / top).rglob("*.h")):
            rel = header.relative_to(root).as_posix()
            lines = header.read_text().splitlines()
            for rule in RULES:
                if rule.headers_only:
                    if rule.name == "guard":
                        rule.check(pathlib.PurePosixPath(rel), lines, errors)
                    else:
                        rule.check(rel, lines, errors)
            seen.add(rel)
    for top in SOURCE_DIRS:
        directory = root / top
        if not directory.is_dir():
            continue
        for source in sorted(directory.rglob("*")):
            if source.suffix not in {".h", ".cc", ".cpp"}:
                continue
            rel = source.relative_to(root).as_posix()
            lines = source.read_text().splitlines()
            for rule in RULES:
                if not rule.headers_only:
                    rule.check(rel, lines, errors)
    check_cmake_registration(root, errors)
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every rule against its fixtures and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = pathlib.Path(args.root).resolve()
    errors = lint(root)
    for error in errors:
        print(error)
    if errors:
        print(f"rlbench_lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
