#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark.

  python3 bench/e2e/compare.py --parent ../parent --change . [--pairs 10]

Runs `bench/e2e/run.py` in each checkout (each builds its own
.bench_build/) for every workload in BENCHMARK.json, at its run_seconds, in
--pairs pairs; pair i uses seed i on both sides and alternates which side
runs first. For every workload and end-to-end metric it reports each
side's median and quartiles (statistics.quantiles, n=4), the share of
pairs the change won (ties count for neither), and a verdict against the
bound in BENCHMARK.json:

  regression   the change's median is worse than the parent's by more than
               the bound
  unresolved   the parent's own spread (IQR / median) is wider than the
               bound, and not every change run beats every parent run
  gain         the change won at least 9 of 10 pairs and the medians differ
               by more than the parent's IQR
  within bound otherwise

Each workload is its own row. Passing the same checkout as --parent and
--change measures the benchmark's own run-to-run agreement (baseline.json).
Exits non-zero on a regression or on any run that failed its checks.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds, trace=0):
    command = [sys.executable, "bench/e2e/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "metrics": {}}
    line["exit"] = done.returncode
    line["seed"] = seed
    return line


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def verdict(metric, parent, change):
    """Verdict for one metric, from the paired runs of both sides."""
    lower = metric["better"] == "lower"
    p, c = summary(parent), summary(change)
    worse_by = (c["median"] - p["median"]) / p["median"]
    if not lower:
        worse_by = -worse_by
    wins = sum((cv < pv) if lower else (cv > pv)
               for pv, cv in zip(parent, change)) / len(parent)
    all_better = (max(change) < min(parent)) if lower \
        else (min(change) > max(parent))
    if worse_by > metric["bound"]:
        word = "regression"
    elif p["spread"] > metric["bound"] and not all_better:
        word = "unresolved"
    elif wins >= 0.9 and worse_by < 0 and \
            abs(c["median"] - p["median"]) > p["q3"] - p["q1"]:
        word = "gain"
    else:
        word = "within bound"
    return {"parent": p, "change": c, "worse_by": worse_by, "wins": wins,
            "bound": metric["bound"], "verdict": word}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true",
                        help="finish with one traced run per workload on "
                             "the change side and keep its layers.json")
    parser.add_argument("--json", help="write every run and row here")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")

    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: {w: [] for w in workloads} for side in sides}

    for i in range(args.pairs):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                line = run(sides[side], workload, seed, seconds)
                runs[side][workload].append(line)
                print(f"pair {i + 1}/{args.pairs} {workload:13s} {side:6s} "
                      f"seed {seed}: "
                      f"{'ok' if line['correct'] else 'FAILED'}",
                      file=sys.stderr, flush=True)

    rows, failed = [], 0
    for workload in workloads:
        for side in sides:
            failed += sum(not line["correct"] for line in runs[side][workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [line["metrics"].get(name, {}).get("value")
                             for line in runs[side][workload]]
                      for side in sides}
            if any(v is None for vs in values.values() for v in vs):
                rows.append({"workload": workload, "metric": name,
                             "verdict": "missing"})
                continue
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"],
                         **verdict(metric, values["parent"],
                                   values["change"])})

    print(f"{'workload':13s} {'metric':17s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>7s} {'won':>4s} "
          f"{'spread':>6s} {'bound':>5s}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:13s} {row['metric']:17s} missing")
            continue
        cells = []
        for side in ("parent", "change"):
            s = row[side]
            cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]")
        print(f"{row['workload']:13s} {row['metric']:17s} {cells[0]:>32s} "
              f"{cells[1]:>32s} {row['worse_by']:+7.1%} {row['wins']:4.0%} "
              f"{row['parent']['spread']:6.1%} {row['bound']:5.0%}  "
              f"{row['verdict']}")

    layers = {}
    if args.traced:
        for workload in workloads:
            line = run(args.change, workload, 1, seconds, trace=1)
            path = Path(args.change) / ".bench_build" / "trace" / \
                f"{workload}-seed1" / "layers.json"
            layers[workload] = json.loads(path.read_text()) \
                if path.is_file() else None
            failed += not line["correct"]

    if args.json:
        Path(args.json).write_text(json.dumps(
            {"host": platform.node(), "nproc": os.cpu_count(),
             "seconds": seconds, "pairs": args.pairs, "rows": rows,
             "runs": runs,
             "layers": layers}, indent=1) + "\n")
    regressions = sum(row["verdict"] in ("regression", "missing")
                      for row in rows)
    if failed:
        print(f"{failed} run(s) failed their checks", file=sys.stderr)
    return 1 if regressions or failed else 0


if __name__ == "__main__":
    sys.exit(main())
