"""Cost of the window-optimum oracle (solver.solve_oracle), measured in-process.

    PYTHONPATH=src python bench/oracle_cost.py --label NAME

Two workloads, on configs/case_study_certified.json:
- the probe: `certify-probe`'s config (the certificate P searched, L_Phi
  "probe", 200 trials; probe seeds 11-13), running harness.lipschitz_probe
  on fresh window shapes as `analyze-k` does. A trial is the time from one
  trial's residual_sigma_parts call to the next one's (to the probe's
  return for the last trial), the benchmark's stamp; its two oracle solves
  are cold (no start);
- the loop: `simulate`'s loop with the oracle on at K = 25 (seeds 1-6, 400
  steps), set up through `cli.prepare_run`, whose oracle solves are warm,
  from the step's K-th iterate.

Both are deterministic for a seed, so each trial and each solve does the
same work in every repeat, and its cost is its minimum over the repeats.
The script prints the probe trial's p50 and p90, each solve kind's p50 and
p90 per solve, and the histogram of the oracle's kernel iterations.

It adds or replaces the row NAME in BENCH_oracle.json at the repo root. As
with bench/step_cost.py, the submhe it measures is the one on PYTHONPATH,
BLAS runs on one thread and the process pins itself to one CPU.
"""

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

from step_cost import environment, pin_one_cpu, write_row  # pins BLAS threads before numpy

import numpy as np

import submhe.harness as harness
from submhe.cli import _resolve_certificate, prepare_run
from submhe.config import loads_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "case_study_certified.json"
RESULTS = ROOT / "BENCH_oracle.json"
PROBE_SEEDS = (11, 12, 13)
PROBE_TRIALS = 200
LOOP_SEEDS = (1, 2, 3, 4, 5, 6)
LOOP_K = 25
STEPS = 400
REPEATS = 10


def probe_doc(seed):
    """The benchmark's probe config: P searched, L_Phi probed."""
    doc = json.loads(CONFIG.read_text())
    doc["certificate"]["P"] = "search"
    doc["analysis"]["L_Phi"] = "probe"
    doc["analysis"]["probe_seed"] = seed
    doc["analysis"]["probe_trials"] = PROBE_TRIALS
    return loads_config(json.dumps(doc))


class Recorder:
    """Routes harness.residual_sigma_parts and harness.solve_oracle through
    timers while in use: the stamp of each call of the first, and the
    duration and kernel iterations of each oracle solve."""

    def __init__(self):
        self.stamps, self.solves, self.iters = [], [], []

    def __enter__(self):
        self.real = harness.residual_sigma_parts, harness.solve_oracle
        sigma, oracle = self.real

        def stamped(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return sigma(*args, **kwargs)

        def timed(*args, **kwargs):
            begin = time.perf_counter()
            report = oracle(*args, **kwargs)
            self.solves.append(time.perf_counter() - begin)
            self.iters.append(report.iters)
            return report

        harness.residual_sigma_parts, harness.solve_oracle = stamped, timed
        return self

    def __exit__(self, *exc):
        harness.residual_sigma_parts, harness.solve_oracle = self.real


def probe_run(doc, cert):
    """(per-trial seconds, per-solve seconds, iterations) of one probe."""
    shapes = doc.window_shapes(cert)
    with Recorder() as rec:
        harness.lipschitz_probe(shapes, n_trials=doc.analysis["probe_trials"],
                                seed=doc.analysis["probe_seed"])
        end = time.perf_counter()
    return np.diff(rec.stamps + [end]), np.array(rec.solves), rec.iters


def loop_run(doc, seed):
    """(per-solve seconds, iterations) of the oracle in one loop run."""
    cfg = prepare_run(doc, LOOP_K, seed=seed, steps=STEPS, oracle=True)
    with Recorder() as rec:
        harness.run_closed_loop(cfg)
    return np.array(rec.solves), rec.iters


def measure():
    """Per-item minima over the repeats; the repeats are the outer loop, so
    a slow stretch of the machine hits every item alike."""
    probes = [(doc, _resolve_certificate(doc)[0]) for doc in map(probe_doc, PROBE_SEEDS)]
    loop_doc = loads_config(CONFIG.read_text())
    best = {}

    def keep(key, times, iters):
        prev = best.get(key)
        best[key] = (times if prev is None else np.minimum(prev[0], times), iters)

    for _ in range(REPEATS):
        for seed, (doc, cert) in zip(PROBE_SEEDS, probes):
            trials, solves, iters = probe_run(doc, cert)
            keep(("trial", seed), trials, None)
            keep(("cold", seed), solves, iters)
        for seed in LOOP_SEEDS:
            keep(("warm", seed), *loop_run(loop_doc, seed))
    return {
        "probe_trial": summarize(best, "trial", PROBE_SEEDS),
        "cold_probe_solve": summarize(best, "cold", PROBE_SEEDS),
        "warm_loop_solve": summarize(best, "warm", LOOP_SEEDS),
    }


def summarize(best, kind, seeds):
    costs = np.concatenate([best[kind, seed][0] for seed in seeds]) * 1e6
    out = {"count": int(costs.size),
           "p50_us": round(float(np.percentile(costs, 50)), 2),
           "p90_us": round(float(np.percentile(costs, 90)), 2)}
    if kind != "trial":
        iters = Counter(k for seed in seeds for k in best[kind, seed][1])
        out["iters"] = {str(k): iters[k] for k in sorted(iters)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="row name in BENCH_oracle.json, e.g. the commit")
    args = parser.parse_args(argv)
    cpu = pin_one_cpu()
    row = {"label": args.label, "probe_seeds": list(PROBE_SEEDS),
           "probe_trials": PROBE_TRIALS, "loop_seeds": list(LOOP_SEEDS),
           "loop_K": LOOP_K, "steps": STEPS, "repeats": REPEATS,
           "env": {**environment(), "pinned_cpu": cpu}}
    for name, res in measure().items():
        row[name] = res
        print(f"{args.label} {name}: p50 {res['p50_us']} us, p90 {res['p90_us']} us "
              f"over {res['count']}" + (f"; iterations {res['iters']}"
                                        if "iters" in res else ""))
    write_row(RESULTS, "bench/oracle_cost.py", row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
