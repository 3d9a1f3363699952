"""Closed-loop benchmark of submhe: one workload, one seed, one result line.

    python3 perfbench/run.py --workload certified-loop --seed 1 --seconds 30 --trace 0

Each run starts fresh `submhe` CLI processes (perfbench/child.py with
PYTHONPATH=src, one at a time, OpenBLAS on one thread) until --seconds have
been spent, checks every process's outputs, and prints as its last stdout
line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 the processes
are traced and the metrics are its per_layer list, plus a kernel sweep in
one more process. The full record (environment, gate, every layer value)
goes to perfbench/results/. perfbench/README.md says why each workload
exists and which end-to-end metric each layer metric should move.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "case_study_certified.json"
CHILD = BENCH / "child.py"
RESULTS = BENCH / "results"
WORK = BENCH / "work"

_clock = time.monotonic  # CLOCK_MONOTONIC, the clock child.py stamps with

PROCESS_TIMEOUT_S = 60   # two hung processes still end a run within 180 s
BURN_IN = 50          # steps before the estimation error counts as steady
BLAS_THREADS = "1"    # windows of at most 119 dims are far too small to split

# Loop workloads run the shipped certified config; the probe workload runs a
# copy of it that searches for P and probes L_Phi (see make_probe_config).
# An operation is one call of the stamped function made by its caller: a
# closed-loop step (controller.evaluate under run_closed_loop) or a
# Lipschitz-probe trial (residual_sigma_parts under lipschitz_probe).
LOOP_OP = ("evaluate", "controller.evaluate", "harness.run_closed_loop")
PROBE_OP = ("residual_sigma_parts", "mhe.residual_sigma_parts",
            "harness.lipschitz_probe")
WORKLOADS = {
    "certified-loop": {"kind": "loop", "ops": 400, "op": LOOP_OP,
                       "flags": ["--oracle", "off"]},
    "verified-loop": {"kind": "loop", "ops": 400, "op": LOOP_OP,
                      "flags": ["--oracle", "on", "--iters", "25",
                                "--uncertified"]},
    "certify-probe": {"kind": "probe", "ops": 200, "op": PROBE_OP},
}


def derive_seed(seed, index):
    """Process seed: the first two processes share one, so their outputs
    must match byte for byte."""
    digest = hashlib.sha256(f"{seed}:{max(index - 1, 0)}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_probe_config(seed, trials, path):
    doc = json.loads(CONFIG.read_text())
    doc["certificate"]["P"] = "search"
    doc["analysis"]["L_Phi"] = "probe"
    doc["analysis"]["probe_seed"] = seed
    doc["analysis"]["probe_trials"] = trials
    path.write_text(json.dumps(doc, indent=2))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(child_args, workdir, tag):
    """Run child.py once; return its record, stdout path and timings."""
    record_path = workdir / f"{tag}.record.json"
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    argv = [sys.executable, str(CHILD)] + child_args[:1] + [
        "--record", str(record_path)] + child_args[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = _clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err)
        try:
            rc = proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_exit = _clock()
    record = None
    if record_path.is_file():
        try:
            record = json.loads(record_path.read_text())
        except ValueError:
            pass
    errors = []
    if rc != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        errors.append(f"exit code {rc}: {' | '.join(tail)}")
    if record is None:
        errors.append("no record written")
    return {"tag": tag, "rc": rc, "record": record, "stdout": out_path,
            "t_spawn": t_spawn, "t_exit": t_exit, "errors": errors}


# -- correctness gate -------------------------------------------------------

def _close(a, b, rel=1e-9):
    import numpy as np
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.all(np.abs(a - b) <= rel * (1.0 + np.abs(b))))


def check_loop(proc, seed, steps, outdir):
    """Gate one simulate process; fill in its step outcomes and quality."""
    import numpy as np

    errors = proc["errors"]
    summary_path, csv_path = outdir / "summary.json", outdir / "trajectory.csv"
    if not (summary_path.is_file() and csv_path.is_file()):
        errors.append("simulate wrote no trajectory or summary")
        return
    summary = json.loads(summary_path.read_text())
    proc["output_bytes"] = csv_path.read_bytes()
    proc["K"] = summary["K"]
    proc["solver_backend"] = summary["solver_backend"]
    proc["monitor_fail"] = sum(m["fail"] for m in summary["monitors"].values())
    flags = summary["constraint_flags"]
    if not all(flags.values()):
        errors.append(f"constraint flags {flags}")
    if summary["prng"] != "pcg64" or summary["seed"] != seed:
        errors.append("sidecar prng/seed differ from the request")

    rows = list(csv.DictReader(proc["output_bytes"].decode().splitlines()))
    if len(rows) != steps:
        errors.append(f"{len(rows)} rows, expected {steps}")
        return
    proc["failed_steps"] = sum(
        any(v == "fail" for k, v in row.items() if k.startswith("mon_"))
        for row in rows)

    # Replay the plant and the feedback law from the CSV, independently of
    # the harness: the seeded disturbance stream, x+ = A x + B u + w1,
    # y = C x + w2, u = clamp(-G xhat), e = xhat - x.
    cfg = json.loads(CONFIG.read_text())
    sysb = cfg["system"]
    A, B, C = (np.array(sysb[k], float) for k in "ABC")
    G = np.array(cfg["controller"]["gain"], float)
    box = lambda b: np.array([[float(lo), float(hi)] for lo, hi in b]).T
    u_lo, u_hi = box(sysb["u_box"])
    rng = np.random.default_rng(seed)
    w1_lo, w1_hi = box(sysb["w1_box"])
    w2_lo, w2_hi = box(sysb["w2_box"])
    w1s = rng.uniform(w1_lo, w1_hi, size=(steps, w1_lo.size))
    w2s = rng.uniform(w2_lo, w2_hi, size=(steps, w2_lo.size))
    col = lambda row, p, n: np.array([float(row[f"{p}{i}"]) for i in range(n)])
    n_x, n_y, n_u = A.shape[0], C.shape[0], B.shape[1]
    x = np.array(cfg["scenario"]["x0"], float)
    e_norm = []
    eps = []
    for t, row in enumerate(rows):
        xt, yt, ut = col(row, "x", n_x), col(row, "y", n_y), col(row, "u", n_u)
        xhat = col(row, "xhat", n_x)
        ok = (_close(xt, x) and _close(yt, C @ x + w2s[t])
              and _close(ut, np.clip(-G @ xhat, u_lo, u_hi))
              and _close(float(row["e_norm"]), np.linalg.norm(xhat - xt)))
        if not ok:
            errors.append(f"replay mismatch at t={t}")
            return
        x = A @ xt + B @ ut + w1s[t]
        e_norm.append(float(row["e_norm"]))
        if row["eps"]:
            eps.append(float(row["eps"]))
    rms = lambda v: math.sqrt(sum(a * a for a in v) / len(v)) if v else 0.0
    proc["est_err_rms"] = rms(e_norm[BURN_IN:])
    proc["subopt_rms"] = rms(eps[BURN_IN:])
    # gross check that the estimate converged from its initial error
    if not proc["est_err_rms"] <= 0.1 * e_norm[0]:
        errors.append(f"estimation error rms {proc['est_err_rms']:.3g} did not "
                      f"fall below a tenth of the initial {e_norm[0]:.3g}")
    check_stamps(proc, steps)


def check_stamps(proc, expected):
    stamps = proc["record"]["stamps"]
    if proc["record"]["spans"] is None and len(stamps) != expected:
        proc["errors"].append(f"{len(stamps)} operation stamps, expected "
                              f"{expected}: the hook in child.py misses the calls")


def check_probe(proc, trials):
    """Gate one analyze-k process: a passing ledger at the reported K*."""
    errors = proc["errors"]
    proc["output_bytes"] = proc["stdout"].read_bytes()
    try:
        out = json.loads(proc["output_bytes"])
        ledger = out["ledger"]
        k_star = out["K_star"]
        params = ledger["params"]
    except (ValueError, KeyError) as exc:
        errors.append(f"analyze-k output unreadable: {exc}")
        return
    proc["K"] = k_star
    if not (isinstance(k_star, int) and 1 <= k_star and ledger["K"] == k_star):
        errors.append(f"K_star {k_star!r} does not match its ledger")
    if not ledger["small_gain"]["passed"]:
        errors.append("ledger at K_star does not pass the small-gain test")
    if not _close(ledger["phi"], params["phi_base"] ** k_star):
        errors.append("ledger phi differs from phi_base ** K_star")
    if not out["meta"]["L_Phi_probed"]:
        errors.append("L_Phi was not probed")
    check_stamps(proc, trials)


# -- one run ----------------------------------------------------------------

def run_processes(workload, seed, seconds, trace, workdir):
    spec = WORKLOADS[workload]
    deadline = _clock() + seconds
    procs = []
    while True:
        i = len(procs)
        s = derive_seed(seed, i)
        outdir = workdir / f"p{i}"
        outdir.mkdir()
        if spec["kind"] == "loop":
            cli = ["simulate", "--config", str(CONFIG), "--out", str(outdir),
                   "--seed", str(s), "--steps", str(spec["ops"])] + spec["flags"]
        else:
            cfg = outdir / "probe.json"
            make_probe_config(s, spec["ops"], cfg)
            cli = ["analyze-k", "--config", str(cfg)]
        hook = ["--trace"] if trace else ["--stamp", spec["op"][0]]
        proc = spawn(["cli"] + hook + ["--"] + cli, workdir, f"p{i}")
        proc["seed"] = s
        proc["failed_steps"] = 0
        if not proc["errors"]:
            if spec["kind"] == "loop":
                check_loop(proc, s, spec["ops"], outdir)
            else:
                check_probe(proc, spec["ops"])
        procs.append(proc)
        typical = statistics.median(p["t_exit"] - p["t_spawn"] for p in procs)
        if len(procs) >= 2 and _clock() + typical > deadline:
            return procs


def gate(workload, procs):
    spec = WORKLOADS[workload]
    ops_per_proc = spec["ops"]
    first, second = procs[0], procs[1]
    reproducible = (not first["errors"] and not second["errors"]
                    and first["output_bytes"] == second["output_bytes"])
    if not reproducible and not (first["errors"] or second["errors"]):
        second["errors"].append("output differs from the same-seed process")
    attempted = ops_per_proc * len(procs)
    failed = sum(ops_per_proc if p["errors"] else p["failed_steps"]
                 for p in procs)
    return {
        "correct": failed == 0 and reproducible,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "reproducible": reproducible,
        "processes": len(procs),
        "errors": {p["tag"]: p["errors"] for p in procs if p["errors"]},
        "K": sorted({p.get("K") for p in procs if p.get("K") is not None}),
        "solver_backend": sorted({p["solver_backend"] for p in procs
                                  if "solver_backend" in p}),
        "monitor_fail": sum(p.get("monitor_fail", 0) for p in procs),
        "est_err_rms": _mean(p.get("est_err_rms") for p in procs),
        "subopt_rms": _mean(p.get("subopt_rms") for p in procs),
    }


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def _percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def op_latencies(workload, rec):
    """Per-operation latencies (s) of one process and where its setup ends.

    An operation is timed between consecutive calls of the workload's
    stamped function (a step, or a probe trial); set-up ends at the first.
    """
    _, span_name, parent_name = WORKLOADS[workload]["op"]
    spans = rec["spans"]
    if spans is None:
        stamps = rec["stamps"]
    else:
        stamps = [s[1] for s in spans if s[0] == span_name
                  and s[3] >= 0 and spans[s[3]][0] == parent_name]
    return [b - a for a, b in zip(stamps, stamps[1:])], stamps[0] if stamps else None


def timed_processes(workload, procs):
    """Processes that exited 0 and timed at least one operation."""
    timed = [p for p in procs if p["rc"] == 0 and p["record"] is not None
             and op_latencies(workload, p["record"])[0]]
    if not timed:
        raise RuntimeError("no process produced timings")
    return timed


def end_to_end(workload, procs):
    lat, setup, rss, busy = [], [], [], []
    ops = 0
    timed = timed_processes(workload, procs)
    for p in timed:
        rec = p["record"]
        per_op, setup_end = op_latencies(workload, rec)
        lat.extend(per_op)
        ops += len(per_op)
        setup.append(setup_end - p["t_spawn"])
        busy.append(p["t_exit"] - setup_end)
        rss.append(rec["peak_rss_kb"] / 1024.0)
    return {
        "setup_s": statistics.median(setup),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": _percentile(lat, 90) * 1e3,
        "op_ms_p99": _percentile(lat, 99) * 1e3,
        "ops_per_s": ops / sum(busy),
        "peak_rss_mb": statistics.median(rss),
        "call_s": statistics.median(p["record"]["t_return"] - p["record"]["t_call"]
                                    for p in timed),
        "ops_timed": len(lat),
        "setups_timed": len(setup),
    }


# -- traced run -------------------------------------------------------------

LAYERS = ("cli", "config", "controller", "model", "linalg", "analysis",
          "harness", "mhe", "solver")


def layer_values(workload, procs):
    """Per-layer values from the spans of the traced processes.

    Totals in s are per process; .us values are per call. A layer's self
    time is its spans' durations minus the time their child spans cover.
    """
    traced = timed_processes(workload, procs)
    n = len(traced)
    calls, total, failed = defaultdict(int), defaultdict(float), defaultdict(int)
    self_s = defaultdict(float)
    notes = defaultdict(list)
    other = 0.0
    loop_wall = 0.0
    loop_self = defaultdict(float)
    write = 0.0
    for p in traced:
        spans = p["record"]["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, ok, note in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        in_loop = [False] * len(spans)
        for i, (name, t0, t1, parent, ok, note) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[i]
            calls[name] += 1
            total[name] += dur
            failed[name] += not ok
            self_s[name] += own
            self_s[name.split(".")[0]] += own
            if note is not None:
                notes[name].append(note)
            if parent < 0:
                other -= dur
            in_loop[i] = name == "harness.run_closed_loop" or (
                parent >= 0 and in_loop[parent])
            if in_loop[i]:
                loop_self[name.split(".")[0]] += own
            if name == "harness.run_closed_loop":
                loop_wall += dur
                sim = spans[parent] if parent >= 0 else None
                if sim is not None and sim[0] == "cli.cmd_simulate":
                    write += sim[2] - t1
        other += p["t_exit"] - p["t_spawn"]

    per_proc = lambda name: total[name] / n
    per_call = lambda name: total[name] / calls[name] * 1e6 if calls[name] else 0.0
    iters = sum(notes["solver.solve_fixed_iters"])
    v = {f"{layer}.self_s": self_s[layer] / n for layer in LAYERS}
    v.update({
        "process.other_s": other / n,
        "config.load_config.s": per_proc("config.load_config"),
        "controller.evaluate.us": per_call("controller.evaluate"),
        "controller.assert_stabilizing.s": per_proc("controller.assert_stabilizing"),
        "controller.estimate_closed_loop_gain.s":
            per_proc("controller.estimate_closed_loop_gain"),
        "model.find_certificate.s": per_proc("model.find_certificate"),
        "model.lmi_matrix.calls": calls["model.lmi_matrix"] / n,
        "model.w_delta.us": per_call("model.w_delta"),
        "linalg.eigen.calls": calls["linalg.jacobi_eigh"] / n,
        "linalg.eigen.s": per_proc("linalg.jacobi_eigh"),
        "analysis.min_iterations.s": per_proc("analysis.min_iterations"),
        "analysis.worst_case_contraction.s":
            per_proc("analysis.worst_case_contraction"),
        "analysis.weight_eigen_range.s": per_proc("analysis.weight_eigen_range"),
        "analysis.k_star": (statistics.median(notes["analysis.min_iterations"])
                            if notes["analysis.min_iterations"] else 0),
        "harness.run_closed_loop.self_s": self_s["harness.run_closed_loop"] / n,
        "harness.monitor_step.us": per_call("harness.monitor_step"),
        "harness.monitor.fail": sum(p.get("monitor_fail", 0) for p in traced) / n,
        "harness.write_outputs.s": write / n,
        "harness.lipschitz_probe.s": per_proc("harness.lipschitz_probe"),
        "harness.lipschitz_probe.used_frac": _mean(notes["harness.lipschitz_probe"]),
        "mhe.build_problem.calls": calls["mhe.build_problem"] / n,
        "mhe.build_problem.us": per_call("mhe.build_problem"),
        "mhe.extract_estimate.us": per_call("mhe.extract_estimate"),
        "mhe.residual_sigma.us": per_call("mhe.residual_sigma_parts"),
        "mhe.est_err_rms": _mean(p.get("est_err_rms") for p in traced),
        "solver.solve_fixed_iters.calls": calls["solver.solve_fixed_iters"] / n,
        "solver.solve_fixed_iters.us": per_call("solver.solve_fixed_iters"),
        "solver.kernel_iters": iters / n,
        "solver.us_per_iter": (total["solver.solve_fixed_iters"] / iters * 1e6
                               if iters else 0.0),
        "solver.solve_oracle.calls": calls["solver.solve_oracle"] / n,
        "solver.solve_oracle.us": per_call("solver.solve_oracle"),
        "solver.solve_oracle.failed": failed["solver.solve_oracle"] / n,
        "solver.subopt_rms": _mean(p.get("subopt_rms") for p in traced),
    })
    accounting = {"loop_wall_s": loop_wall / n,
                  "self_s": {k: s / n for k, s in sorted(loop_self.items())}}
    return v, accounting


def kernel_sweep(seed, workdir):
    proc = spawn(["sweep", "--config", str(CONFIG), "--seed", str(seed)],
                 workdir, "sweep")
    if proc["errors"]:
        raise RuntimeError(f"kernel sweep failed: {proc['errors']}")
    return {f"solver.us_per_iter.d{dim}": us
            for dim, us in proc["record"]["us_per_iter"].items()}


# -- environment and entry point ---------------------------------------------

def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(procs):
    child_env_rec = next(p["record"]["env"] for p in procs if p["record"])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **child_env_rec,
        "blas_threads_env": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return the full result record."""
    e2e_spec, layer_spec = metric_spec()
    workdir = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        procs = run_processes(workload, seed, seconds, bool(trace), workdir)
        g = gate(workload, procs)
        timing = end_to_end(workload, procs)
        result = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": trace, "environment": environment(procs),
                  "gate": g, "end_to_end": timing}
        if trace:
            values, accounting = layer_values(workload, procs)
            values.update(kernel_sweep(seed, workdir))
            values["traced.op_ms_p90"] = timing["op_ms_p90"]
            result["layers"] = values
            result["loop_accounting"] = accounting
            spec, source = layer_spec, values
        else:
            spec, source = e2e_spec, timing
        result["metrics"] = {m["name"]: {"value": source[m["name"]],
                                         "unit": m["unit"]} for m in spec}
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in (SRC / "submhe" / "cli.py", CONFIG,
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from "
              "the root of a submhe checkout", file=sys.stderr)
        return 1
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=2) + "\n")
    g = result["gate"]
    print(f"environment: {json.dumps(result['environment'])}")
    print(f"gate: correct={g['correct']} failed={g['failed']}/{g['attempted']} "
          f"reproducible={g['reproducible']} K={g['K']} "
          f"backend={g['solver_backend']} errors={g['errors']}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    extra = result["layers"] if args.trace else result["end_to_end"]
    for key in sorted(set(extra) - set(result["metrics"])):
        print(f"  ({key} = {extra[key]:.6g})")
    print(json.dumps({"correct": g["correct"], "attempted": g["attempted"],
                      "failed": g["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
