"""Per-step cost of the certified closed loop, measured in-process.

    PYTHONPATH=src python bench/step_cost.py --label NAME

Runs `simulate`'s loop on configs/case_study_certified.json (seeds 1-3, 400
steps, 12 repeats), each run set up through `cli.prepare_run`, twice: with
the oracle off at the certified K* (K "auto"), and with the oracle on at
K = 25. A step is the time from one step's build_problem
call to the next one's, so every step but the last (whose interval would
include the post-loop monitor pass) is timed. The loop is deterministic for
a seed, so each step does the same work in every repeat, and the step's
cost is its minimum over the repeats. The script prints p50 and p90 over
the steps of all seeds, and the median per `looped` value (the iterations a
solve ran before its closed-form tail; K for a solve that never settled).
It also gives the median of the growing steps (t < M, whose windows are
still filling and whose flags are checked one step at a time), and records
each seed's whole-loop wall time, `run_closed_loop` from
call to return (the post-loop pass included), as its minimum over the
repeats, so that work moved out of the steps and into that pass shows.

It adds or replaces the row NAME in BENCH_step.json at the repo root, with
the Python, numpy and BLAS versions. The submhe it measures is the one
on PYTHONPATH, so one script times two trees of the package on the same
machine. BLAS runs on one thread, as the windows (at most 49 free
coordinates here) are far too small to split, and the process pins itself
to one CPU: unpinned, the same tree's p50 moved by up to 1.5x from process
to process on a 2-vCPU host, pinned by a few per cent.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

import submhe.harness as harness  # noqa: E402
from submhe.cli import prepare_run  # noqa: E402
from submhe.config import load_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "case_study_certified.json"
RESULTS = ROOT / "BENCH_step.json"
RUNS = (("oracle_off", "auto", False), ("oracle_on", 25, True))  # (name, K, oracle)
SEEDS = (1, 2, 3)
STEPS = 400
REPEATS = 12


def timed_run(doc, K, oracle, seed, steps):
    """(per-step seconds, looped per step, K, whole-loop seconds, M) of one
    loop run, set up afresh through `cli.prepare_run` (K "auto" is K*)."""
    cfg = prepare_run(doc, K, seed=seed, steps=steps, oracle=oracle)
    stamps = []
    build = harness.build_problem

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return build(*args, **kwargs)

    harness.build_problem = stamped
    try:
        begin = time.perf_counter()
        log = harness.run_closed_loop(cfg)
        loop_s = time.perf_counter() - begin
    finally:
        harness.build_problem = build
    return np.diff(stamps), log.looped[:-1].copy(), cfg.K, loop_s, cfg.shapes.M


def measure(doc, seeds, steps, repeats):
    """{run name: summary of its per-step minima}. The repeats are the outer
    loop over every (run, seed), so each step's repeats are spread over the
    whole measurement and a slow stretch of the machine hits all runs alike."""
    best = {}
    for _ in range(repeats):
        for name, K, oracle in RUNS:
            for seed in seeds:
                dt, looped, k_run, loop_s, M = timed_run(doc, K, oracle, seed, steps)
                prev = best.get((name, seed))
                if prev is not None:
                    dt, loop_s = np.minimum(prev[0], dt), min(prev[3], loop_s)
                best[name, seed] = (dt, looped, k_run, loop_s, M)
    return {name: summarize([best[name, seed] for seed in seeds])
            for name, _, _ in RUNS}


def summarize(per_seed):
    costs = np.concatenate([dt for dt, *_ in per_seed]) * 1e6
    looped = np.concatenate([lp for _, lp, *_ in per_seed])
    growing = np.concatenate([dt[:M] for dt, *_, M in per_seed]) * 1e6
    by_looped = {str(k): {"steps": int((looped == k).sum()),
                          "median_us": round(float(np.median(costs[looped == k])), 2)}
                 for k in np.unique(looped).tolist()}
    return {"K": int(per_seed[0][2]), "steps_timed": int(costs.size),
            "p50_us": round(float(np.percentile(costs, 50)), 2),
            "p90_us": round(float(np.percentile(costs, 90)), 2),
            "loop_ms": [round(loop_s * 1e3, 3) for _, _, _, loop_s, _ in per_seed],
            "growing": {"steps": int(growing.size),
                        "median_us": round(float(np.median(growing)), 2)},
            "by_looped": by_looped}


def pin_one_cpu():
    """Pin this process to the last CPU it may run on, as perfbench and
    peak_rss.py pin theirs (CPU 0 of the reference 2-vCPU VM also services
    its device interrupts); that CPU, or None where the platform has no
    affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def write_row(results, script, row):
    """Add `row` to the JSON document at `results` (begun for `script` on
    configs/case_study_certified.json when absent), in place of any row
    with its label."""
    doc = json.loads(results.read_text()) if results.is_file() else {
        "script": script, "config": "configs/case_study_certified.json",
        "rows": []}
    doc["rows"] = [r for r in doc["rows"] if r["label"] != row["label"]] + [row]
    results.write_text(json.dumps(doc, indent=2) + "\n")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(), "cpus": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="row name in BENCH_step.json, e.g. the commit")
    args = parser.parse_args(argv)
    cpu = pin_one_cpu()
    doc = load_config(CONFIG)
    row = {"label": args.label, "seeds": list(SEEDS), "steps": STEPS,
           "repeats": REPEATS, "env": {**environment(), "pinned_cpu": cpu}}
    for name, res in measure(doc, SEEDS, STEPS, REPEATS).items():
        row[name] = res
        print(f"{args.label} {name} K={res['K']}: p50 {res['p50_us']} us, "
              f"p90 {res['p90_us']} us over {res['steps_timed']} steps; "
              f"whole loop per seed {res['loop_ms']} ms; growing steps "
              f"median {res['growing']['median_us']} us")
        for k, cls in res["by_looped"].items():
            print(f"    looped {k:>4}: {cls['steps']:5d} steps, "
                  f"median {cls['median_us']} us")
    write_row(RESULTS, "bench/step_cost.py", row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
