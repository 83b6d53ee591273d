#!/usr/bin/env python3
"""Runs the rlbench end-to-end benchmark (see README.md).

One invocation runs one workload in its own process:

  python3 bench/e2e/run.py --workload paper --seed 1 --trace 0

It builds bench/e2e into .bench_build/ when needed, runs rlbench_e2e, checks
its outputs (the binary's own checks, plus the golden values for seed 1),
prints every metric by name with its unit, writes a results file under
.bench_build/results/, and ends stdout with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--seconds defaults to BENCHMARK.json's run_seconds. --trace 0 reports the
end-to-end metrics named in BENCHMARK.json; --trace 1 reports its
per-layer metrics and leaves the Chrome traces and layers.json in
.bench_build/trace/<workload>-seed<n>/. The exit code is non-zero when any
check fails.

  python3 bench/e2e/run.py --smoke [--binary PATH]

runs every workload at tiny size, untraced and traced, under a temporary
directory, and fails unless every check passes (the e2e_smoke test).
"""

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
GOLDEN = HERE / "golden" / "seed1.json"
WORKLOADS = ("paper", "bulk_sn", "bulk_minhash", "serve")
RUN_TIMEOUT_S = 170

# The per-layer metrics each workload must report when traced. The other
# per-layer metrics in BENCHMARK.json belong to layers the workload does
# not exercise and read 0.
_BULK_LAYERS = ["datagen.record_cpu_share"] + [f"bulk.{name}" for name in (
    "partition_share", "shard_read_share", "candidates_share", "score_share",
    "cpu_ratio", "spill_bytes_per_record", "candidates_per_record",
    "match_yield", "recall", "encode_cpu_share", "decode_cpu_share")]
_SERVE_PHASE_LAYERS = ("queue_wait_share", "batch_pairs_mean",
                       "frames_per_tick", "rejected")
LAYERS = {
    "paper": [
        "core.build_new_benchmark_share", "block.configs_tried",
        "block.evaluated_candidates", "matchers.context_share",
        "core.linearity_share", "core.complexity_share",
        "data.feature_cache_hit_ratio",
    ] + [f"matchers.{group}_{what}"
         for group in ("dl", "classic", "linear", "zeroshot")
         for what in ("share", "cpu_ratio")],
    "bulk_sn": _BULK_LAYERS + ["block.sn_key_cpu_share"],
    "bulk_minhash": _BULK_LAYERS + ["block.band_keys_cpu_share"],
    "serve": [
        "serve.wire_encode_share", "serve.wire_decode_share",
        "serve.service_share", "serve.transport_share",
        "matchers.score_share_b4", "matchers.score_cpu_share_b256",
        "serve.heavy_tail_ratio", "serve.child_cpu_ratio",
        "serve.light.gen_late_share", "serve.heavy.gen_late_share",
    ] + [f"serve.{phase}.{what}" for phase in ("light", "heavy", "saturate")
         for what in _SERVE_PHASE_LAYERS],
}
for _layers in LAYERS.values():
    _layers.append("e2e.trace_overhead")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once and build rlbench_e2e; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no rlbench sources under {ROOT}; cannot build")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rlbench_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log(f"run.py: build step failed: {' '.join(step)}")
            sys.exit(2)
    return BUILD / "rlbench_e2e"


def run_binary(binary, workload, seed, seconds, scratch, trace_dir, smoke):
    """Runs one workload; returns the binary's result object (or None)."""
    command = [str(binary), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--scratch={scratch}"]
    if trace_dir:
        command.append(f"--trace={trace_dir}")
    if smoke:
        command.append("--smoke")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("RLBENCH_")}
    # Run manifests call `git describe`; keep git inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    # Own session, so a timeout takes the server child down with it.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=env, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def golden_problems(workload, pins):
    golden = {}
    if GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text()).get(workload, {})
    if not golden:
        return [f"no golden values for {workload} in {GOLDEN.name}"]
    problems = [f"{key}: {pins.get(key)} != golden {value}"
                for key, value in sorted(golden.items())
                if pins.get(key) != value]
    problems += [f"{key}: not in the golden file"
                 for key in sorted(set(pins) - set(golden))]
    return problems


def reported_metrics(spec, workload, result, traced):
    """The metrics BENCHMARK.json names, from the binary's output."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    source = result["layers" if traced else "metrics"]
    names = {entry["name"] for entry in wanted}
    owned = set(LAYERS[workload]) if traced else names
    metrics = {}
    problems = [f"{name}: owned by {workload} but not in BENCHMARK.json"
                for name in sorted(owned - names)]
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = source.get(name)
        if got is None and name not in owned:
            got = {"value": 0.0, "unit": unit}
        if got is None:
            problems.append(f"{name}: not reported")
            continue
        value = got["value"]
        if got["unit"] != unit:
            problems.append(f"{name}: unit {got['unit']} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: not a finite number ({value})")
            continue
        if not traced and value <= 0:
            problems.append(f"{name}: {value} is not positive")
        metrics[name] = {"value": value, "unit": unit}
    problems += [f"{name}: reported but not owned by {workload}"
                 for name in sorted(set(source) - owned)]
    return metrics, problems


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build_type():
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1] or "Release"
    return "unknown"


def run_one(args):
    binary = Path(args.binary) if args.binary else build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = args.trace == 1
    seconds = args.seconds or spec["run_seconds"]
    tag = f"{args.workload}-seed{args.seed}"
    scratch = BUILD / "run" / f"{tag}-{os.getpid()}"
    trace_dir = BUILD / "trace" / tag if traced else None
    result = run_binary(binary, args.workload, args.seed, seconds,
                        scratch, trace_dir, smoke=False)
    if result is None:
        log("run.py: rlbench_e2e printed no result")
        return 1

    problems = [f"{check['name']}: {check['detail']}"
                for check in result["checks"] if not check["ok"]]
    if args.seed == 1 and not args.write_golden:
        problems += golden_problems(args.workload, result["pins"])
    metrics, metric_problems = reported_metrics(spec, args.workload, result,
                                                traced)
    problems += metric_problems
    correct = bool(result["correct"]) and not problems

    if args.write_golden:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        golden[args.workload] = result["pins"]
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        log(f"run.py: wrote {len(result['pins'])} golden values for "
            f"{args.workload}")

    line = {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "git": git_revision(), "host": platform.node(),
        "nproc": os.cpu_count(), "build_type": build_type(),
        "workload": args.workload, "seed": args.seed,
        "seconds": seconds, "trace": args.trace,
        "problems": problems, "result": result, "line": line,
    }
    path = results_dir / f"{tag}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        log(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"results: {path}")
    print(json.dumps(line))
    return 0 if correct else 1


def run_smoke(args):
    binary = Path(args.binary) if args.binary else build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    with tempfile.TemporaryDirectory(prefix="rlbench_e2e_smoke_") as tmp:
        for workload in WORKLOADS:
            for traced in (False, True):
                label = f"{workload} ({'traced' if traced else 'untraced'})"
                trace_dir = Path(tmp) / "trace" / workload if traced else None
                result = run_binary(binary, workload, 1, 1.0,
                                    Path(tmp) / "scratch" / workload,
                                    trace_dir, smoke=True)
                if result is None:
                    log(f"FAILED: {label}: no result")
                    failures += 1
                    continue
                problems = [f"{check['name']}: {check['detail']}"
                            for check in result["checks"] if not check["ok"]]
                problems += reported_metrics(spec, workload, result,
                                             traced)[1]
                if traced and not (trace_dir / "layers.json").is_file():
                    problems.append("layers.json not written")
                for problem in problems:
                    log(f"FAILED: {label}: {problem}")
                failures += bool(problems) or not result["correct"]
                log(f"{label}: {len(result['checks'])} checks, "
                    f"{'ok' if not problems else 'FAILED'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size; asserts checks")
    parser.add_argument("--binary", help="use this rlbench_e2e, no build")
    parser.add_argument("--write-golden", action="store_true",
                        help="store this seed-1 run's pinned results")
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args)
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.write_golden and args.seed != 1:
        parser.error("--write-golden needs --seed 1")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
