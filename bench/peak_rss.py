"""Peak memory of `submhe simulate` against the run length, one process per run.

    PYTHONPATH=src python bench/peak_rss.py --label NAME

Runs `simulate` on configs/case_study_certified.json (K: "auto", seed 1) at
400, 4,000 and 40,000 steps, each with the oracle off and on. Every run is
a fresh child process, started with the submhe this script imports on its
PYTHONPATH (so one script measures two trees of the package, as
bench/step_cost.py does) and OpenBLAS on one thread. The child pins itself
to one CPU as perfbench/child.py pins its children (the highest-numbered CPU
it may use), calls submhe.cli.run_cli, and reports its own peak resident
set, VmHWM in /proc/self/status (so the script needs Linux). The interpreter
and numpy take about 39 MB of that before the first step; what a run adds
on top of them grows with its length only where the program keeps
something per step. A cell is the median of three processes, and the
simulate outputs go to a temporary directory that is removed afterwards.

It adds or replaces the row NAME in BENCH_memory.json at the repo root,
with the Python, numpy and BLAS versions.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from step_cost import environment, write_row  # pins BLAS threads before numpy

import submhe

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "case_study_certified.json"
RESULTS = ROOT / "BENCH_memory.json"
STEPS = (400, 4000, 40000)
ORACLES = ("off", "on")
SEED = 1
REPEATS = 3

CHILD = """
import os, sys
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
from submhe.cli import run_cli
rc = run_cli(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
"""


def child_peak_mb(steps, oracle, outdir):
    """VmHWM in MB of one fresh process running simulate for `steps` steps."""
    env = {**os.environ, "PYTHONPATH": str(Path(submhe.__file__).parent.parent),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    argv = ["simulate", "--config", str(CONFIG), "--seed", str(SEED),
            "--steps", str(steps), "--oracle", oracle, "--out", str(outdir)]
    res = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                         capture_output=True, text=True, check=True)
    return int(res.stdout.splitlines()[-1]) / 1024.0


def measure(steps=STEPS, repeats=REPEATS):
    """{"oracle_off" | "oracle_on": {str(steps): {"median_mb", "runs_mb"}}}.
    The repeats are the outer loop over every cell, so a busy stretch of the
    machine hits all cells alike."""
    runs = {(oracle, n): [] for oracle in ORACLES for n in steps}
    with tempfile.TemporaryDirectory() as outdir:
        for _ in range(repeats):
            for oracle, n in runs:
                runs[oracle, n].append(round(child_peak_mb(n, oracle, outdir), 2))
    return {f"oracle_{oracle}": {
        str(n): {"median_mb": round(statistics.median(runs[oracle, n]), 2),
                 "runs_mb": runs[oracle, n]} for n in steps} for oracle in ORACLES}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="row name in BENCH_memory.json, e.g. the commit")
    args = parser.parse_args(argv)
    row = {"label": args.label, "seed": SEED, "repeats": REPEATS,
           "env": {**environment(), "pinned_cpu": max(os.sched_getaffinity(0))}}
    for name, cells in measure().items():
        row[name] = cells
        print(f"{args.label} {name}: " + ", ".join(
            f"{n} steps {cell['median_mb']} MB" for n, cell in cells.items()))
    write_row(RESULTS, "bench/peak_rss.py", row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
