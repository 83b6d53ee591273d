#!/usr/bin/env python3
"""Diff the results of two rlbench run manifests (schema v3).

  bench_compare.py <old.json> <new.json>

For every timing `<key>_median_s` present in both files it prints the old
and new median and the relative change, and flags the change as outside
the noise when |new - old| > 3 x the larger of the two `<key>_mad_s`
(a missing MAD counts as 0). Every other numeric result present in both
files is printed as old -> new, and results found in only one file are
listed as added or removed.

Typical use: before/after of a re-recorded bench result,

  git show <parent>:bench_results/BENCH_kernels.json > /tmp/old.json
  python3 tools/bench_compare.py /tmp/old.json bench_results/BENCH_kernels.json

Exit status: 0 whatever the numbers say; 1 when an input is not a valid
run manifest (tools/validate_manifest.py decides), with the problems on
stderr.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import validate_manifest  # noqa: E402

MEDIAN = "_median_s"
MAD = "_mad_s"
NOISE_MADS = 3.0


def load(errors, path):
    manifest = validate_manifest.load_json(errors, path)
    if manifest is not None:
        validate_manifest.validate_manifest(errors, path, manifest)
    return manifest


def relative(old, new):
    if old == 0:
        return "n/a" if new == 0 else "new"
    return f"{(new - old) / abs(old) * 100.0:+.1f}%"


def compare(old, new, out):
    old_results = old.get("results", {})
    new_results = new.get("results", {})
    print(f"old: {old['bench']} git {old['git']}, "
          f"{old['hardware_concurrency']} cores", file=out)
    print(f"new: {new['bench']} git {new['git']}, "
          f"{new['hardware_concurrency']} cores", file=out)

    shared = [key for key in old_results if key in new_results]
    timings = [key[:-len(MEDIAN)] for key in shared if key.endswith(MEDIAN)]
    timing_keys = set()
    if timings:
        print(f"\ntimings (median s; noise = {NOISE_MADS:g} x the larger "
              f"MAD):", file=out)
        width = max(len(name) for name in timings)
        for name in timings:
            median, mad = name + MEDIAN, name + MAD
            timing_keys.update((median, mad))
            o, n = old_results[median], new_results[median]
            noise = NOISE_MADS * max(old_results.get(mad, 0.0),
                                     new_results.get(mad, 0.0))
            verdict = "CHANGED" if abs(n - o) > noise else "within noise"
            print(f"  {name:<{width}}  {o:>12.6g} -> {n:<12.6g} "
                  f"{relative(o, n):>8}  {verdict}", file=out)

    others = [key for key in shared if key not in timing_keys]
    if others:
        print("\nother results:", file=out)
        width = max(len(key) for key in others)
        for key in others:
            o, n = old_results[key], new_results[key]
            print(f"  {key:<{width}}  {o:>12.6g} -> {n:<12.6g} "
                  f"{relative(o, n):>8}", file=out)

    added = [key for key in new_results if key not in old_results]
    removed = [key for key in old_results if key not in new_results]
    for label, keys in (("added", added), ("removed", removed)):
        if keys:
            print(f"\n{label}:", file=out)
            for key in keys:
                results = new_results if label == "added" else old_results
                print(f"  {key} = {results[key]:.6g}", file=out)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="manifest before the change")
    parser.add_argument("new", help="manifest after the change")
    args = parser.parse_args()

    errors = []
    old = load(errors, args.old)
    new = load(errors, args.new)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print("bench_compare: an input is not a run manifest",
              file=sys.stderr)
        return 1
    compare(old, new, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
