"""Command-line surface: certify, analyze-k, simulate, verify.

Exit codes: 0 ok, 1 domain failure (LMI violation, no contracting horizon,
unstable law, strict-mode monitor failure), 2 usage error (bad flags,
unreadable or invalid config). Errors are emitted as one JSON object on
stderr. Every JSON document the CLI writes is strict JSON, encoded by
config.json_value, the encoder of the canonical config: a non-finite
number is written as the string "inf", "-inf" or "nan", as configs spell
interval bounds, and an array as nested lists. The run policy is
simulate's, and prepare_run is the one place that sets a run up by it, for
simulate, analyze-k and the bench scripts alike: the library loop always
runs and records, rho >= 1 is refused before anything is probed (unless
simulate's --uncertified), and simulate --strict raises on the first
monitor failure after the run, before it writes anything. Every run builds
its analysis params the same way, once (analysis.build_params), whatever
its K and its --oracle: gamma13 is derived and the certificate's LMI checked
before L_Phi is probed, so analyze-k and a K: "auto" simulate exit 1 when
either fails, and a fixed-K simulate of such a config runs without a
ledger, uncertified, its uncertified_reason naming the error. K* exists
whenever rho < 1 (analysis.min_iterations), so analyze-k always finds it.
The LMI's verdict is the one verify_ioss_lmi gives, on a rounding margin
derived from its inputs; certify and verify report it too.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .controller import assert_stabilizing
from .errors import (ContractionViolated, LmiViolated, ParseError,
                     SubmheError, ValidationError)
from .harness import lipschitz_probe, run_closed_loop
from .model import find_certificate, verify_ioss_lmi, w_delta
from .config import json_value, load_config


def _json_text(obj, **kwargs):
    """Strict JSON text of obj (config.json_value): no Infinity or NaN tokens."""
    return json.dumps(json_value(obj), allow_nan=False, **kwargs)


def _error_json(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ContractionViolated):
        payload["rho"] = exc.rho
        payload["suggested_M"] = exc.suggested_horizon
    if isinstance(exc, LmiViolated):
        payload.update(max_eigenvalue=exc.max_eigenvalue, margin=exc.margin)
    if isinstance(exc, (ParseError, ValidationError)):
        payload["field"] = exc.path
    print(_json_text(payload), file=sys.stderr)


def _resolve_certificate(doc):
    """(certificate, searched): the config's, or find_certificate's on the
    config's Q, R and eta when P is "search"."""
    if doc.certificate is not None:
        return doc.certificate, False
    c = doc.blocks["certificate"]
    return find_certificate(doc.system, c["Q"], c["R"], c["eta"]), True


def _analysis_params(doc, shapes):
    """The run's AnalysisParams on `shapes` (a WindowShapes), built once per
    run by analysis.build_params, which derives every input but L_Phi.

    This only chooses L_Phi's source: the number the config asserts, or a
    lipschitz_probe with the config's trials and seed, which build_params
    runs only after the law and the LMI pass, and names in `sampled`.
    """
    a = doc.analysis
    l_phi = a["L_Phi"]
    if l_phi == "probe":
        def l_phi():
            return lipschitz_probe(shapes, n_trials=a["probe_trials"],
                                   seed=a["probe_seed"]).value
    return analysis.build_params(shapes, doc.controller, L_phi=l_phi)


def prepare_run(doc, K=None, *, seed=None, steps=None, oracle=True,
                uncertified=False):
    """The ScenarioConfig of one run of `doc`, set up as simulate sets it up.

    K None takes the config's K, and "auto" is K* (analysis.min_iterations).
    Unless `uncertified`, rho >= 1 is refused before anything is probed.
    The params are built once, on the run's window shapes.
    """
    cert, _ = _resolve_certificate(doc)
    if not uncertified:
        analysis.compute_rho(cert.eta, doc.mhe["M"])
    shapes = doc.window_shapes(cert)
    K = doc.mhe["K"] if K is None else K
    try:
        params = _analysis_params(doc, shapes)
    except SubmheError as exc:
        if K == "auto":  # no K* without them
            raise
        params = exc  # no ledger, and the run's uncertified_reason names exc
    if K == "auto":
        K, _ = analysis.min_iterations(params)
    return doc.scenario_config(shapes, K=K, seed=seed, steps=steps,
                               oracle=oracle, params=params)


def cmd_certify(args):
    doc = load_config(args.config)
    cert, searched = _resolve_certificate(doc)
    verdict = verify_ioss_lmi(doc.system, cert)
    out = {
        "searched": searched,
        "passed": verdict.passed,
        "max_eigenvalue": verdict.max_eigenvalue,
        "margin": verdict.margin,
        "eta": cert.eta,
    }
    if searched:
        out["P"] = cert.P
    print(_json_text(out, indent=2))
    return 0 if verdict.passed else 1


def cmd_analyze_k(args):
    cfg = prepare_run(load_config(args.config), "auto")
    out = {"K_star": cfg.K, "meta": {"L_Phi_probed": "L_Phi" in cfg.params.sampled},
           "ledger": analysis.ledger_at(cfg.K, cfg.params).to_dict()}
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
    cfg = prepare_run(doc, args.iters, seed=args.seed, steps=args.steps,
                      oracle=args.oracle == "on", uncertified=args.uncertified)
    log = run_closed_loop(cfg)
    if args.strict:
        log.raise_first_failure()
    outdir = Path(args.out if args.out else doc.output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / doc.output["csv"]
    with csv_path.open("w") as fh:
        log.write_csv(fh)
    summary = log.summary_dict()
    summary_path = outdir / doc.output["summary"]
    summary_path.write_text(_json_text(summary, indent=2) + "\n")
    counts = log.monitor_counts()
    fails = sum(c["fail"] for c in counts.values())
    print(f"simulated {log.steps} steps (K={cfg.K}, M={log.M}, "
          f"certified={log.certified}); monitor failures: {fails}; "
          f"wrote {csv_path} and {summary_path}")
    return 0


def _verified_certificate(doc):
    """The config's certificate (found when P is "search"); LmiViolated
    unless it passes the LMI."""
    cert, _ = _resolve_certificate(doc)
    verify_ioss_lmi(doc.system, cert).require()
    return cert


def cmd_verify(args):
    doc = load_config(args.config)
    passed = []  # one bool per check, in order

    def check(name, fn, *args, **kwargs):
        """Print the row of fn(*args, **kwargs); its value, or None when it
        raised."""
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:
            passed.append(False)
            print(f"FAIL {name}: {exc}")
            return None
        passed.append(True)
        print(f"PASS {name}")
        return value

    cert = check("certificate-lmi", _verified_certificate, doc)
    if cert is None:
        print("verification aborted: no valid certificate")
        return 1
    sys_ = doc.system
    rng = np.random.default_rng(0)
    check("dissipation-inequality", _check_dissipation, sys_, cert, rng,
          n_pairs=200, rel_tol=1e-9)

    from .mhe import build_problem
    from .solver import optimum_tolerance, solve_fixed_iters, solve_oracle

    M = doc.mhe["M"]
    shapes = doc.window_shapes(cert)  # every check's windows, each built once

    def make_problem(t):
        m_eff = min(M, t)
        u_win = sys_.u_box.sample(rng, m_eff, scale=1.0)
        y_win = sys_.y_box.sample(rng, m_eff, scale=1.0)
        prior = sys_.x_box.sample(rng, scale=1.0)
        return build_problem(sys_, cert, prior, u_win, y_win, M, t, shapes=shapes)

    def condensing():
        prob = make_problem(M + 1)
        for _ in range(20):
            v = rng.uniform(-1, 1, prob.dim_v).clip(prob.shape.lower, prob.shape.upper)
            _check_lift_consistency(prob, v, atol=1e-12)

    check("condensing-soundness", condensing)

    def cost_equiv():
        prob = make_problem(M)
        for _ in range(20):
            v = rng.uniform(-1, 1, prob.dim_v).clip(prob.shape.lower, prob.shape.upper)
            direct = _direct_cost(prob, cert, v)
            condensed = prob.cost(prob.lift(v))
            if abs(direct - condensed) > 1e-10 * max(1.0, abs(direct)):
                raise SubmheError(
                    f"cost mismatch: {direct!r} vs {condensed!r}")

    check("cost-equivalence", cost_equiv)

    # DegenerateHessian unless mu > 0 on every window length
    check("strong-convexity", lambda: [shapes[m].curvature for m in range(M + 1)])

    def oracle_agreement():
        prob = make_problem(M)
        v_star = solve_oracle(prob).v
        q = prob.shape.contraction_base
        # The step contracts by q in v, so ||v_k - v*|| is at most
        # ||v_{k+1} - v_k|| / (1 - q): stop once that bound is 1e-9.
        chunk = 100
        v_pg = np.zeros(prob.dim_v)
        for _ in range(200000 // chunk):
            last = solve_fixed_iters(prob, v_pg, chunk - 1).v
            v_pg = solve_fixed_iters(prob, last, 1).v
            if np.linalg.norm(v_pg - last) / (1.0 - q) <= 1e-9:
                break
        if np.linalg.norm(v_pg - v_star) > 1e-7:
            raise SubmheError(
                f"oracle and long-run PGD disagree by "
                f"{np.linalg.norm(v_pg - v_star):.2e}")
        if np.linalg.norm(solve_fixed_iters(prob, v_star, 3).v - v_star) > 1e-10:
            raise SubmheError("optimum is not a solver fixed point")

    check("oracle-agreement", oracle_agreement)

    check("controller-stability-smoke", assert_stabilizing, sys_, doc.controller,
          n_samples=5)

    # one short loop, read by both loop checks; it runs without params, as
    # they read no ledger, and an error it raises fails both
    solves = []  # (problem, report) per step
    k_short = max(doc.mhe["K"], 5) if doc.mhe["K"] != "auto" else 50
    try:
        short = run_closed_loop(
            doc.scenario_config(shapes, K=k_short,
                                steps=min(doc.scenario["steps"], 2 * M + 2)),
            observe=lambda prob, rep: solves.append((prob, rep)))
    except Exception as exc:
        short = exc

    def short_loop():
        if isinstance(short, Exception):
            raise short
        for t, ((prob, _), (what_ok, _, _)) in enumerate(zip(solves, short.feasible)):
            if prob.shape.m_eff != min(M, t):
                raise SubmheError(f"window length wrong at t={t}")
            if not what_ok:
                raise SubmheError(f"disturbance estimate left its box at t={t}")

    check("short-closed-loop", short_loop)

    def tail_optimum():
        # a settled solve's v* (the tail's fixed point) against the oracle,
        # on the loop's own windows
        if isinstance(short, Exception):
            raise short
        for prob, rep in solves:
            if rep.optimum is None:
                continue
            v_star = solve_oracle(prob).v
            gap = float(np.linalg.norm(rep.optimum - v_star))
            if gap > optimum_tolerance(prob.shape, v_star):
                raise SubmheError(f"tail optimum and oracle disagree by "
                                  f"{gap:.2e} at t={prob.t}")

    check("tail-optimum", tail_optimum)

    print(f"{sum(passed)}/{len(passed)} checks passed")
    return 0 if all(passed) else 1


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
    sys_ = prob.shape.sys
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
    sys_ = prob.shape.sys
    m_eff, n_w = prob.shape.m_eff, sys_.n_w
    total = 2.0 * cert.eta ** m_eff * w_delta(cert, z[:sys_.n_x], prob.x_prior)
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
    p_sim.add_argument("--oracle", choices=["on", "off"], default="on")
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
