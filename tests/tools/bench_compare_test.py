#!/usr/bin/env python3
"""ctest for tools/bench_compare.py over hand-made run manifests.

One timing moves inside its noise band (3 x the larger MAD) and one moves
outside it; a plain result changes, one result is added and one removed.
The tool must flag only the second timing, list the rest, exit 0, and
exit non-zero when an input is not a manifest.

  bench_compare_test.py <repo root>
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def manifest(git, results):
    return {
        "schema_version": 3,
        "bench": "micro_example",
        "git": git,
        "threads": 4,
        "hardware_concurrency": 4,
        "peak_rss_bytes": 1 << 20,
        "datasets": ["Ds1"],
        "config": {"repeats": 5},
        "results": results,
        "phases": [{"name": "run", "seconds": 1.0, "status": "ok"}],
        "total_seconds": 1.0,
    }


OLD = manifest("aaaaaaa", {
    "pairs": 450,
    "quiet/fast_median_s": 1.00, "quiet/fast_mad_s": 0.05,
    "moved/fast_median_s": 1.00, "moved/fast_mad_s": 0.05,
    "moved/speedup": 2.0,
    "gone/ops": 7,
})
NEW = manifest("bbbbbbb", {
    "pairs": 450,
    # |1.12 - 1.00| = 0.12 <= 3 x max(0.05, 0.04): inside the noise.
    "quiet/fast_median_s": 1.12, "quiet/fast_mad_s": 0.04,
    # |0.40 - 1.00| = 0.60 > 3 x max(0.05, 0.02): outside it.
    "moved/fast_median_s": 0.40, "moved/fast_mad_s": 0.02,
    "moved/speedup": 5.0,
    "fresh/ops": 9,
})


def run(tool, *paths):
    return subprocess.run([sys.executable, str(tool), *map(str, paths)],
                          capture_output=True, text=True, check=False)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    tool = root / "tools" / "bench_compare.py"
    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="bench_compare_") as scratch:
        scratch = pathlib.Path(scratch)
        old, new, bad = (scratch / name for name in
                         ("old.json", "new.json", "bad.json"))
        old.write_text(json.dumps(OLD))
        new.write_text(json.dumps(NEW))
        bad.write_text(json.dumps(dict(NEW, schema_version=2)))

        result = run(tool, old, new)
        lines = result.stdout.splitlines()
        print(result.stdout, end="")

        def line_with(key):
            return next((line for line in lines
                         if line.strip().startswith(key)), "")

        expect(result.returncode == 0,
               f"exit {result.returncode} on two manifests: {result.stderr}")
        expect(line_with("quiet/fast").endswith("within noise"),
               "quiet/fast should be within noise")
        expect(line_with("moved/fast").endswith("CHANGED"),
               "moved/fast should be flagged")
        expect("-60.0%" in line_with("moved/fast"),
               "moved/fast should report -60.0%")
        expect(line_with("moved/speedup").split()[1:4] == ["2", "->", "5"],
               "moved/speedup should print old -> new")
        expect(line_with("pairs").split()[1:4] == ["450", "->", "450"],
               "pairs should be shared")
        expect(not line_with("quiet/fast_mad_s"),
               "a MAD key should not print as a plain result")
        added = lines.index("added:") if "added:" in lines else -1
        removed = lines.index("removed:") if "removed:" in lines else -1
        expect(added >= 0 and "fresh/ops" in lines[added + 1],
               "fresh/ops should be listed as added")
        expect(removed >= 0 and "gone/ops" in lines[removed + 1],
               "gone/ops should be listed as removed")

        for args in ((old, bad), (old, scratch / "missing.json")):
            result = run(tool, *args)
            expect(result.returncode != 0,
                   f"{args[1].name}: a non-manifest input must exit non-zero")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
