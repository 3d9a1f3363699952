"""Command-line surface: certify, analyze-k, simulate, verify.

Exit codes: 0 ok, 1 domain failure (LMI violation, no contracting horizon,
no feasible iteration count, strict-mode monitor failure), 2 usage error
(bad flags, unreadable or invalid config). Errors are emitted as one JSON
object on stderr. Every JSON document the CLI writes is strict JSON: a
non-finite number is written as the string "inf", "-inf" or "nan", as
configs spell interval bounds. The run policy is simulate's: the library
loop always runs and records, and simulate refuses rho >= 1 before it
probes anything (unless --uncertified) and, with --strict, raises on the
first monitor failure after the run, before it writes anything. analyze-k
refuses rho >= 1 before it probes anything too. Every path that builds the
analysis params derives gamma13 first, so a fixed-K simulate of a law that
is not provably stabilizing runs without a ledger and is uncertified.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .controller import assert_stabilizing, closed_loop_gain
from .errors import (ContractionViolated, NotFoundBelowCap, ParseError,
                     SubmheError, ValidationError)
from .harness import lipschitz_probe, run_closed_loop
from .model import find_certificate, verify_ioss_lmi, w_delta
from .config import load_config


def _finite(obj):
    """obj with each non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return obj


def _json_text(obj, **kwargs):
    """Strict JSON text of obj: no Infinity or NaN tokens."""
    return json.dumps(_finite(obj), allow_nan=False, **kwargs)


def _error_json(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ContractionViolated):
        payload["rho"] = exc.rho
        payload["suggested_M"] = exc.suggested_horizon
    if isinstance(exc, NotFoundBelowCap):
        payload["best_margin"] = exc.best_margin
    if isinstance(exc, (ParseError, ValidationError)):
        payload["field"] = exc.path
    print(_json_text(payload), file=sys.stderr)


def _resolve_certificate(doc):
    if doc.certificate is not None:
        return doc.certificate, False
    search = doc.certificate_search
    cert = find_certificate(doc.system, search["Q"], search["R"], search["eta"],
                            budget=search["budget"], tol=search["tol"])
    return cert, True


def _analysis_params(doc, shapes, *, probe=True):
    """The run's AnalysisParams on `shapes` (a WindowShapes): every input of
    the analysis is resolved here, once per run.

    L_Phi is taken from the config when it asserts it. Otherwise it is
    probed (lipschitz_probe) and named in the params' `sampled`, so a ledger
    built on it certifies nothing. Without `probe`, an L_Phi left to the
    probe stays unresolved and there are no params. gamma13_slope is always
    derived (closed_loop_gain), which raises unless the law provably makes
    the plant contract: every ledger assumes a stabilizing law.

    L_pi = ||G||_2 for the law pi(x) = clamp(-G x, u_box): the clamp is the
    Euclidean projection onto a convex set, which is nonexpansive (Bauschke
    & Combettes 2011, Prop. 4.16), so ||pi(x) - pi(x')|| <= ||G||_2 ||x - x'||.
    It is exact when 0 is interior to u_box: the law is linear near 0.
    """
    l_phi = doc.analysis["L_Phi"]
    if l_phi == "probe" and not probe:
        return None
    gamma13 = closed_loop_gain(doc.system, doc.controller)
    sampled = []
    if l_phi == "probe":
        l_phi = lipschitz_probe(shapes, n_trials=doc.analysis["probe_trials"],
                                seed=doc.analysis["probe_seed"]).value
        sampled.append("L_Phi")
    l_pi = float(np.linalg.norm(doc.controller.gain, 2))
    return analysis.build_params(shapes, L_phi=l_phi, L_pi=l_pi,
                                 gamma13_slope=gamma13, sampled=sampled)


def cmd_certify(args):
    doc = load_config(args.config)
    cert, searched = _resolve_certificate(doc)
    verdict = verify_ioss_lmi(doc.system, cert)
    out = {
        "searched": searched,
        "passed": verdict.passed,
        "max_eigenvalue": verdict.max_eigenvalue,
        "tol": verdict.tol,
        "eta": cert.eta,
    }
    if searched:
        out["P"] = cert.P.tolist()
    print(_json_text(out, indent=2))
    return 0 if verdict.passed else 1


def cmd_analyze_k(args):
    doc = load_config(args.config)
    cert, _ = _resolve_certificate(doc)
    analysis.compute_rho(cert.eta, doc.mhe["M"])  # refused before any probe
    params = _analysis_params(doc, doc.window_shapes(cert))
    k_star, ledger = analysis.min_iterations(params, doc.analysis["K_max"])
    meta = {"L_Phi_probed": "L_Phi" in params.sampled}
    out = {"K_star": k_star, "meta": meta, "ledger": ledger.to_dict()}
    text = _json_text(out, indent=2)
    print(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "analyze_k.json").write_text(text + "\n")
    return 0


def cmd_simulate(args):
    if args.seed is not None and args.seed < 0:
        raise ValidationError("--seed", "must be nonnegative")
    if args.steps is not None and args.steps < 1:
        raise ValidationError("--steps", "must be at least 1")
    if args.iters is not None and args.iters < 0:
        raise ValidationError("--iters", "must be nonnegative")
    doc = load_config(args.config)
    cert, _ = _resolve_certificate(doc)
    if not args.uncertified:  # refused before any input is probed
        analysis.compute_rho(cert.eta, doc.mhe["M"])
    oracle = (doc.scenario["oracle"] if args.oracle is None
              else args.oracle == "on")
    shapes = doc.window_shapes(cert)
    if args.iters is None and doc.mhe["K"] == "auto":
        params = _analysis_params(doc, shapes)
        k, _ = analysis.min_iterations(params, doc.analysis["K_max"])
    else:
        k = args.iters if args.iters is not None else doc.mhe["K"]
        try:  # the probe runs only when the monitors will use its ledger
            params = _analysis_params(doc, shapes, probe=oracle)
        except SubmheError:
            params = None  # no ledger; the monitors needing one skip
    cfg = doc.scenario_config(shapes, K=k, seed=args.seed, steps=args.steps,
                              oracle=oracle, params=params)
    log = run_closed_loop(cfg)
    if args.strict:
        log.raise_first_failure()
    outdir = Path(args.out if args.out else doc.output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / doc.output["csv"]
    csv_path.write_text(log.to_csv_text())
    summary = log.summary_dict()
    summary_path = outdir / doc.output["summary"]
    summary_path.write_text(_json_text(summary, indent=2) + "\n")
    counts = log.monitor_counts()
    fails = sum(c["fail"] for c in counts.values())
    print(f"simulated {log.steps} steps (K={k}, M={log.M}, "
          f"certified={log.certified}); monitor failures: {fails}; "
          f"wrote {csv_path} and {summary_path}")
    return 0


def cmd_verify(args):
    doc = load_config(args.config)
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
            print(f"PASS {name}")
        except Exception as exc:
            checks.append((name, False, str(exc)))
            print(f"FAIL {name}: {exc}")

    sys_ = doc.system
    cert_holder = {}

    def resolve_cert():
        cert, _ = _resolve_certificate(doc)
        verdict = verify_ioss_lmi(sys_, cert)
        if not verdict.passed:
            raise SubmheError(verdict.report)
        cert_holder["cert"] = cert

    check("certificate-lmi", resolve_cert)
    if "cert" not in cert_holder:
        print("verification aborted: no valid certificate")
        return 1
    cert = cert_holder["cert"]
    rng = np.random.default_rng(0)

    def dissipation():
        _check_dissipation(sys_, cert, rng, n_pairs=200, rel_tol=1e-9)

    check("dissipation-inequality", dissipation)

    from .mhe import build_problem
    from .solver import optimum_tolerance, solve_fixed_iters, solve_oracle

    M = doc.mhe["M"]

    def make_problem(t):
        m_eff = min(M, t)
        u_win = sys_.u_box.sample(rng, m_eff, scale=1.0)
        y_win = sys_.y_box.sample(rng, m_eff, scale=1.0)
        prior = sys_.x_box.sample(rng, scale=1.0)
        return build_problem(sys_, cert, prior, u_win, y_win, M, t)

    def condensing():
        prob = make_problem(M + 1)
        for _ in range(20):
            v = np.clip(rng.uniform(-1, 1, size=prob.dim_v), prob.lower, prob.upper)
            _check_lift_consistency(prob, v, atol=1e-12)

    check("condensing-soundness", condensing)

    def cost_equiv():
        prob = make_problem(M)
        for _ in range(20):
            v = np.clip(rng.uniform(-1, 1, size=prob.dim_v), prob.lower, prob.upper)
            direct = _direct_cost(prob, cert, v)
            condensed = prob.cost(prob.lift(v))
            if abs(direct - condensed) > 1e-10 * max(1.0, abs(direct)):
                raise SubmheError(
                    f"cost mismatch: {direct!r} vs {condensed!r}")

    check("cost-equivalence", cost_equiv)

    def convexity():
        for t in range(M + 1):
            make_problem(t).shape.curvature  # DegenerateHessian unless mu > 0

    check("strong-convexity", convexity)

    def oracle_agreement():
        prob = make_problem(M)
        z_star = solve_oracle(prob).point
        q = prob.shape.contraction_base
        # The step contracts by q in v, so ||v_k - v*|| is at most
        # ||v_{k+1} - v_k|| / (1 - q): stop once that bound is 1e-9.
        chunk = 100
        v_pg = np.zeros(prob.dim_v)
        for _ in range(200000 // chunk):
            last = solve_fixed_iters(prob, prob.lift(v_pg), chunk - 1).point
            v_pg = solve_fixed_iters(prob, last.z, 1).point.v
            if np.linalg.norm(v_pg - last.v) / (1.0 - q) <= 1e-9:
                break
        if np.linalg.norm(v_pg - z_star.v) > 1e-7:
            raise SubmheError(
                f"oracle and long-run PGD disagree by "
                f"{np.linalg.norm(v_pg - z_star.v):.2e}")
        rep = solve_fixed_iters(prob, z_star.z, 3)
        if np.linalg.norm(rep.point.z - z_star.z) > 1e-10:
            raise SubmheError("optimum is not a solver fixed point")

    check("oracle-agreement", oracle_agreement)

    def smoke():
        assert_stabilizing(sys_, doc.controller, n_samples=5)

    check("controller-stability-smoke", smoke)

    def short_config(oracle=None):
        # the loop checks read no ledger, so the loop runs without params
        return doc.scenario_config(doc.window_shapes(cert),
                                   K=max(doc.mhe["K"], 5)
                                   if doc.mhe["K"] != "auto" else 50,
                                   steps=min(doc.scenario["steps"], 2 * M + 2),
                                   oracle=oracle, params=None)

    def short_loop():
        dims = []
        log = run_closed_loop(short_config(),
                              observe=lambda prob, rep: dims.append(prob.dim_z))
        for t, (dim_z, (what_ok, _, _)) in enumerate(zip(dims, log.feasible)):
            if dim_z != sys_.n_x + min(M, t) * (sys_.n_w + sys_.n_y):
                raise SubmheError(f"decision dimension wrong at t={t}")
            if not what_ok:
                raise SubmheError(f"disturbance estimate left its box at t={t}")

    check("short-closed-loop", short_loop)

    def tail_optimum():
        # a settled solve's v* (the tail's fixed point) against the oracle,
        # on the loop's own windows
        solves = []
        run_closed_loop(short_config(oracle=True),
                        observe=lambda prob, rep: solves.append((prob, rep)))
        for prob, rep in solves:
            if rep.optimum is None:
                continue
            v_star = solve_oracle(prob).point.v
            gap = float(np.linalg.norm(rep.optimum - v_star))
            if gap > optimum_tolerance(prob.shape, v_star):
                raise SubmheError(f"tail optimum and oracle disagree by "
                                  f"{gap:.2e} at t={prob.t}")

    check("tail-optimum", tail_optimum)

    failed = [name for name, ok, _ in checks if not ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def _check_dissipation(sys_, cert, rng, n_pairs, rel_tol):
    for _ in range(n_pairs):
        x = sys_.x_box.sample(rng, scale=1.0)
        xp = sys_.x_box.sample(rng, scale=1.0)
        u = sys_.u_box.sample(rng, scale=1.0)
        w1 = sys_.w1_box.sample(rng, scale=1.0)
        w1p = sys_.w1_box.sample(rng, scale=1.0)
        w2 = sys_.w2_box.sample(rng, scale=1.0)
        w2p = sys_.w2_box.sample(rng, scale=1.0)
        lhs = w_delta(cert, sys_.step(x, u, w1), sys_.step(xp, u, w1p))
        dw = np.concatenate([w1 - w1p, w2 - w2p])
        dy = sys_.output(x, w2) - sys_.output(xp, w2p)
        rhs = (cert.eta * w_delta(cert, x, xp) + dw @ cert.Q @ dw
               + dy @ cert.R @ dy)
        if lhs > rhs + rel_tol * max(1.0, abs(rhs)):
            raise SubmheError(
                f"dissipation violated: {lhs!r} > {rhs!r}")


def _check_lift_consistency(prob, v, atol):
    """The lifted point and its window states obey the plant equations."""
    from .mhe import extract_estimate
    sys_ = prob.sys
    z = prob.lift(v)
    states = extract_estimate(prob, z)
    slots = prob.window_slots(z)
    w1, w2, yhat = (slots[:, :sys_.n_x], slots[:, sys_.n_x:sys_.n_w],
                    slots[:, sys_.n_w:])
    resid_dyn = states[1:] - (states[:-1] @ sys_.A.T
                              + prob.u_window @ sys_.B.T + w1)
    resid_out = yhat - (states[:-1] @ sys_.C.T + w2)
    if max(np.abs(resid_dyn).max(initial=0.0),
           np.abs(resid_out).max(initial=0.0)) > atol:
        raise SubmheError("lifted point violates the window dynamics")


def _direct_cost(prob, cert, v):
    """Window cost evaluated slot by slot from the lifted point."""
    z = prob.lift(v)
    slots = prob.window_slots(z)
    m_eff, n_w = prob.m_eff, prob.sys.n_w
    total = 2.0 * cert.eta ** m_eff * w_delta(cert, z[:prob.sys.n_x], prob.x_prior)
    for j in range(m_eff):  # slot j holds time t - (m_eff - j)
        w, dy = slots[j, :n_w], slots[j, n_w:] - prob.y_window[j]
        total += cert.eta ** (m_eff - 1 - j) * (2.0 * w @ cert.Q @ w
                                                + dy @ cert.R @ dy)
    return float(total)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="submhe",
        description="Sub-optimal moving horizon estimation in closed loop, "
                    "with small-gain iteration budgets and runtime monitors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to JSON config")

    p_cert = sub.add_parser("certify", help="verify or search the detectability "
                                            "certificate; print the LMI eigenvalue")
    common(p_cert)
    p_cert.set_defaults(fn=cmd_certify)

    p_an = sub.add_parser("analyze-k", help="compute the gain ledger and the "
                                            "minimum certified iteration count")
    common(p_an)
    p_an.add_argument("--out", default=None, help="output directory")
    p_an.set_defaults(fn=cmd_analyze_k)

    p_sim = sub.add_parser("simulate", help="run the closed loop; write CSV "
                                            "trajectory and JSON summary")
    common(p_sim)
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--iters", type=int, default=None)
    p_sim.add_argument("--strict", action="store_true",
                       help="promote monitor failures to errors")
    p_sim.add_argument("--uncertified", action="store_true",
                       help="simulate even when the M-step decay fails (rho >= 1)")
    p_sim.add_argument("--oracle", choices=["on", "off"], default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the invariant suite on the "
                                          "loaded config at small scale")
    common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def run_cli(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        _error_json(exc)
        return 2
    except SubmheError as exc:
        _error_json(exc)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
