#!/usr/bin/env python3
"""Smoke test of the paper benches (table3-7, fig1-6 and both ablations).

usage: paper_bench_smoke.py <bench binary dir>

Runs every paper bench at tiny size through tools/validate_manifest.py
--run (a scratch directory, metrics and tracing on, manifest and trace
validated), then checks, each in its own scratch directory:
  * the degradation contract: an unknown dataset id next to a known one is
    a failed dataset/<id> phase and the run exits 0; a list of unknown ids
    only exits 1;
  * the per-dataset fan-out changes no number: table4_matchers prints the
    same table and score CSV at RLBENCH_THREADS=1 and 4;
  * at RLBENCH_THREADS=1 the datasets run inline in id order, so a fault
    spec that hits the first build_benchmark evaluation fails the first
    dataset;
  * fig3_practical records a dataset missing from the score cache as a
    failed phase that names the cache file;
  * ablation_difficulty rejects an unknown --domain with a failed phase
    and exit 1.
Exit status 0 when every check holds; each failure is printed.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
VALIDATOR = ROOT / "tools" / "validate_manifest.py"
# Lines that differ between runs by design (paths and wall time).
RUN_LOCAL = re.compile(r"^\[(manifest|trace|published):|finished in ")

TINY = [
    ("table3_datasets", "--datasets=Ds1,Dt1", "--scale=0.05"),
    ("fig1_linearity", "--datasets=Ds1,Dd1", "--max-pairs=300"),
    ("fig2_complexity", "--datasets=Ds1,Dd1", "--max-pairs=300",
     "--sample=200"),
    ("table4_matchers", "--datasets=Ds1,Ds7", "--max-pairs=300"),
    ("fig3_practical", "--recompute", "--datasets=Ds1,Ds7",
     "--max-pairs=300"),
    ("table5_newbench", "--datasets=Dn3,Dn8", "--scale=0.05"),
    ("fig4_linearity_new", "--datasets=Dn3,Dn8", "--scale=0.05"),
    ("fig5_complexity_new", "--datasets=Dn3,Dn8", "--scale=0.05",
     "--sample=200"),
    ("table6_matchers_new", "--datasets=Dn3,Dn8", "--scale=0.05",
     "--max-pairs=300"),
    ("fig6_practical_new", "--recompute", "--datasets=Dn3,Dn8",
     "--scale=0.05", "--max-pairs=300"),
    ("table7_comparison", "--scale=0.05", "--max-pairs=300"),
    ("ablation_blocking", "--scale=0.05"),
    ("ablation_difficulty", "--pairs=300"),
]

# The benches that take --datasets, with the other flags that keep them
# cheap.
DATASET_BENCHES = [
    (bench, *(a for a in args if not a.startswith("--datasets=")))
    for bench, *args in TINY
    if any(a.startswith("--datasets=") for a in args)]


class Smoke:
    def __init__(self, bench_dir):
        self.bench_dir = pathlib.Path(bench_dir).resolve()
        self.failures = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
            print(f"FAIL: {message}", file=sys.stderr)

    def run(self, cwd, bench, *args, threads=None, faults=None):
        """Runs a bench in `cwd`; returns (exit code, stdout, manifest)."""
        env = dict(os.environ)
        env.pop("RLBENCH_FAULTS", None)
        if threads is not None:
            env["RLBENCH_THREADS"] = str(threads)
        if faults is not None:
            env["RLBENCH_FAULTS"] = faults
        result = subprocess.run([str(self.bench_dir / bench), *args],
                                cwd=cwd, env=env, capture_output=True,
                                text=True)
        path = pathlib.Path(cwd) / "bench_results" / f"{bench}.manifest.json"
        manifest = json.loads(path.read_text()) if path.is_file() else {}
        stdout = "".join(line for line in result.stdout.splitlines(True)
                         if not RUN_LOCAL.search(line))
        return result.returncode, stdout, manifest

    def failed_phases(self, manifest):
        return {phase["name"]: phase.get("error", "")
                for phase in manifest.get("phases", [])
                if phase.get("status") == "failed"}

    def validate_tiny_runs(self):
        for bench, *args in TINY:
            result = subprocess.run(
                [sys.executable, str(VALIDATOR), "--run",
                 str(self.bench_dir / bench), *args],
                capture_output=True, text=True)
            self.check(result.returncode == 0,
                       f"{bench} {' '.join(args)}: {result.stderr[-800:]}")

    def unknown_ids(self):
        for bench, *args in DATASET_BENCHES:
            with tempfile.TemporaryDirectory() as scratch:
                rc, _, manifest = self.run(scratch, bench, *args,
                                           "--datasets=NOPE,NADA")
                failed = self.failed_phases(manifest)
                self.check(rc == 1 and {"dataset/NOPE", "dataset/NADA"} <=
                           failed.keys(),
                           f"{bench} with only unknown ids: exit {rc}, "
                           f"failed phases {sorted(failed)}")
        for bench, known in (("table3_datasets", "Ds1"),
                             ("fig4_linearity_new", "Dn3")):
            args = next(a for b, *a in DATASET_BENCHES if b == bench)
            with tempfile.TemporaryDirectory() as scratch:
                rc, _, manifest = self.run(scratch, bench, *args,
                                           f"--datasets={known},NOPE")
                failed = self.failed_phases(manifest)
                self.check(rc == 0 and list(failed) == ["dataset/NOPE"] and
                           "NotFound" in failed["dataset/NOPE"],
                           f"{bench} --datasets={known},NOPE: exit {rc}, "
                           f"failed phases {failed}")

    def thread_invariance_and_cache_miss(self):
        table4 = ("table4_matchers", "--datasets=Ds1,Ds7", "--max-pairs=300")
        outputs = []
        with tempfile.TemporaryDirectory() as one, \
                tempfile.TemporaryDirectory() as four:
            for scratch, threads in ((one, 1), (four, 4)):
                rc, stdout, _ = self.run(scratch, *table4, threads=threads)
                self.check(rc == 0, f"table4 at {threads} threads: exit {rc}")
                csv = pathlib.Path(scratch) / "bench_results" / \
                    "table4_scores.csv"
                outputs.append((stdout, csv.read_bytes()
                                if csv.is_file() else b""))
            self.check(outputs[0][1] != b"", "table4 wrote no score cache")
            self.check(outputs[0] == outputs[1],
                       "table4 table or score CSV differs between "
                       "RLBENCH_THREADS=1 and 4")

            # The cache in `four` holds Ds1 and Ds7 only.
            rc, stdout, manifest = self.run(four, "fig3_practical",
                                            "--datasets=Ds1,Ds3")
            failed = self.failed_phases(manifest)
            self.check(rc == 0 and list(failed) == ["dataset/Ds3"] and
                       "table4_scores.csv" in failed["dataset/Ds3"] and
                       "--recompute" in failed["dataset/Ds3"] and
                       re.search(r"^Ds1\s", stdout, re.M) is not None,
                       f"fig3 with Ds3 missing from the cache: exit {rc}, "
                       f"failed phases {failed}")
            rc, _, manifest = self.run(four, "fig3_practical")
            failed = self.failed_phases(manifest)
            self.check(rc == 0 and len(manifest.get("datasets", [])) == 13
                       and len(failed) == 11,
                       f"flagless fig3 over a two-dataset cache: exit {rc}, "
                       f"{len(failed)} failed phases")
            rc, _, _ = self.run(four, "fig3_practical", "--datasets=Ds3")
            self.check(rc == 1, f"fig3 with every dataset missing from the "
                                f"cache: exit {rc}")

    def serial_fault_schedule(self):
        with tempfile.TemporaryDirectory() as scratch:
            rc, _, manifest = self.run(
                scratch, "table5_newbench", "--datasets=Dn3,Dn8",
                "--scale=0.05", threads=1,
                faults="seed=1;core/build_benchmark=any:1:max=1")
            failed = self.failed_phases(manifest)
            self.check(rc == 0 and list(failed) == ["dataset/Dn3"],
                       f"table5 at RLBENCH_THREADS=1 with the first build "
                       f"faulted: exit {rc}, failed phases {sorted(failed)}")

    def unknown_domain(self):
        with tempfile.TemporaryDirectory() as scratch:
            rc, stdout, manifest = self.run(scratch, "ablation_difficulty",
                                            "--pairs=300", "--domain=prodcut")
            failed = self.failed_phases(manifest)
            self.check(rc == 1 and "sweep" in failed and
                       "prodcut" in failed["sweep"] and stdout.strip() == "",
                       f"ablation_difficulty --domain=prodcut: exit {rc}, "
                       f"failed phases {failed}")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    smoke = Smoke(sys.argv[1])
    smoke.validate_tiny_runs()
    smoke.unknown_ids()
    smoke.thread_invariance_and_cache_miss()
    smoke.serial_fault_schedule()
    smoke.unknown_domain()
    if smoke.failures:
        print(f"paper_bench_smoke: {len(smoke.failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("paper_bench_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
