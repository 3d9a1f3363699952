"""One measured submhe process: a CLI call, or the kernel sweep.

run.py starts this script in a fresh interpreter with PYTHONPATH=src, so
interpreter start and package import are part of what it measures.

    child.py cli   --record R [--trace | --stamp NAME] -- <submhe CLI arguments>
    child.py sweep --record R --config C --seed S

`cli` calls submhe.cli.run_cli with the given arguments. Untraced, the only
hook stamps each call of harness.NAME: `evaluate` marks one closed-loop step
(its estimate-to-input instant), `residual_sigma_parts` one Lipschitz-probe
trial. Traced, every function in TARGETS is wrapped at every module that
binds it by name, and each call leaves a span (name, start, end, parent). `sweep` times solve_fixed_iters at a fixed K on
windows of three dimensions built from the certified plant. Either way the
record (stamps, spans, peak RSS, environment) is written to R as JSON when
the process ends; the exit code is the CLI's.

All times are CLOCK_MONOTONIC seconds, a clock shared by every process on
the machine, so run.py can subtract its own spawn time from them.
"""

import argparse
import importlib
import json
import os
import sys
import time

_clock = time.monotonic

# (module, function) pairs traced with --trace. Each is wrapped wherever a
# submhe module binds the function object by name, because harness and cli
# import most of them with `from ... import`, and patching only the
# defining module would miss those call sites.
TARGETS = (
    ("cli", "cmd_simulate"),
    ("cli", "cmd_analyze_k"),
    ("config", "load_config"),
    ("controller", "assert_stabilizing"),
    ("controller", "estimate_closed_loop_gain"),
    ("controller", "evaluate"),
    ("model", "find_certificate"),
    ("model", "lmi_matrix"),
    ("model", "w_delta"),
    ("linalg", "jacobi_eigh"),
    ("analysis", "build_params"),
    ("analysis", "min_iterations"),
    ("analysis", "ledger_at"),
    ("analysis", "worst_case_contraction"),
    ("analysis", "weight_eigen_range"),
    ("harness", "run_closed_loop"),
    ("harness", "monitor_step"),
    ("harness", "lipschitz_probe"),
    ("mhe", "build_problem"),
    ("mhe", "extract_estimate"),
    ("mhe", "residual_sigma_parts"),
    ("solver", "solve_fixed_iters"),
    ("solver", "solve_oracle"),
)


def _note_kernel_iters(args, kwargs, result):
    return int(kwargs["K"] if "K" in kwargs else args[2])


def _note_k_star(args, kwargs, result):
    return int(result[0])


def _note_probe_used_frac(args, kwargs, result):
    return result.n_used / (result.n_used + result.n_skipped)


# A number kept with the span: the value run.py needs from the call itself.
NOTES = {
    "solver.solve_fixed_iters": _note_kernel_iters,
    "analysis.min_iterations": _note_k_star,
    "harness.lipschitz_probe": _note_probe_used_frac,
}


class Tracer:
    """Keeps spans in memory as [name, start, end, parent, ok, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, True, None]
            spans.append(span)
            stack.append(idx)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = False
                raise
            finally:
                span[2] = _clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "submhe" or n.startswith("submhe.")]
        for mod_name, fn_name in TARGETS:
            orig = getattr(importlib.import_module(f"submhe.{mod_name}"), fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, traced)


def _stamp(harness, name, stamps):
    """The untraced run's only hook: stamp each call of harness.<name>."""
    orig = getattr(harness, name)

    def stamped(*args, **kwargs):
        stamps.append(_clock())
        return orig(*args, **kwargs)

    setattr(harness, name, stamped)


def _peak_rss_kb():
    """This process's peak resident set (VmHWM).

    Not getrusage's ru_maxrss: Linux carries that over from the parent
    across fork and exec, so it would report the size of run.py.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _environment():
    import numpy as np

    from submhe.solver import KERNEL_BACKEND

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(np),
        "kernel_backend": KERNEL_BACKEND,
    }


def _openblas_threads(np):
    """Thread count of the OpenBLAS numpy bundles, or None if not found."""
    import ctypes
    from pathlib import Path

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_cli_mode(args):
    import submhe.cli as cli
    import submhe.harness as harness

    stamps = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    elif args.stamp:
        _stamp(harness, args.stamp, stamps)
    t_call = _clock()
    rc = cli.run_cli(args.argv)
    t_return = _clock()
    return rc, {
        "t_call": t_call, "t_return": t_return,
        "stamps": stamps,
        "spans": tracer.spans if tracer is not None else None,
    }


SWEEP_HORIZONS = (5, 9, 23)   # window dims 29, 49 and 119 on the certified plant
SWEEP_K = 600
SWEEP_ROUNDS = 60


def run_sweep_mode(args):
    """Wall time per PGD iteration of solve_fixed_iters, per window dim.

    Each round times one call per dim, so the dims share the host's quiet
    and busy stretches. The result is the best round per dim: on a shared
    host the fastest call is the one least slowed by other tenants, so it
    tracks the kernel's own cost.
    """
    import numpy as np

    from submhe.config import load_config
    from submhe.mhe import build_problem
    from submhe.solver import solve_fixed_iters

    doc = load_config(args.config)
    sys_, cert = doc.system, doc.certificate
    rng = np.random.default_rng(args.seed)
    problems = [build_problem(sys_, cert, rng.uniform(-1, 1, sys_.n_x),
                              rng.uniform(-1, 1, (M, sys_.n_u)),
                              rng.uniform(-1, 1, (M, sys_.n_y)), M, M)
                for M in SWEEP_HORIZONS]
    best = [float("inf")] * len(problems)
    for _ in range(SWEEP_ROUNDS):
        for i, prob in enumerate(problems):
            t0 = _clock()
            rep = solve_fixed_iters(prob, np.zeros(prob.dim_z), SWEEP_K)
            best[i] = min(best[i], _clock() - t0)
            if not np.all(np.isfinite(rep.point.z)):
                return 1, {"error": f"nonfinite iterate at dim {prob.dim_v}"}
    return 0, {"K": SWEEP_K, "us_per_iter": {
        str(prob.dim_v): t / SWEEP_K * 1e6 for prob, t in zip(problems, best)}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["cli", "sweep"])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--stamp", help="harness function to stamp untraced")
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int, default=0)
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cli_argv = own[own.index("--") + 1:]
        own = own[:own.index("--")]
    args = parser.parse_args(own)
    args.argv = cli_argv
    # The highest-numbered CPU: on the reference 2-vCPU VM, CPU 0 also
    # services the VM's device interrupts and its step times spread more.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rc, record = (run_cli_mode if args.mode == "cli" else run_sweep_mode)(args)
    record["rc"] = rc
    record["peak_rss_kb"] = _peak_rss_kb()
    record["env"] = _environment()
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
