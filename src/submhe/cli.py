"""Command-line surface: certify, analyze-k, simulate, verify.

Exit codes: 0 ok, 1 domain failure (LMI violation, no contracting horizon,
no feasible iteration count, strict-mode monitor failure), 2 usage error
(bad flags, unreadable or invalid config). Errors are emitted as one JSON
object on stderr.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .controller import assert_stabilizing, estimate_closed_loop_gain, estimate_lipschitz
from .errors import (ContractionViolated, MonitorViolation, NotFoundBelowCap,
                     ParseError, SubmheError, ValidationError)
from .harness import lipschitz_probe, run_closed_loop
from .model import find_certificate, verify_ioss_lmi, w_delta
from .config import load_config


def _error_json(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ContractionViolated):
        payload["rho"] = exc.rho
        payload["suggested_M"] = exc.suggested_horizon
    if isinstance(exc, NotFoundBelowCap):
        payload["best_K"] = exc.best_k
        payload["best_margin"] = exc.best_margin
    if isinstance(exc, (ParseError, ValidationError)):
        payload["field"] = exc.path
    print(json.dumps(payload), file=sys.stderr)


def _resolve_certificate(doc):
    if doc.certificate is not None:
        return doc.certificate, False
    search = doc.certificate_search
    cert = find_certificate(doc.system, search["Q"], search["R"], search["eta"],
                            budget=search["budget"], tol=search["tol"])
    return cert, True


def _resolve_l_pi(doc):
    if doc.controller.declared_lipschitz is not None:
        return doc.controller.declared_lipschitz
    return float(np.linalg.norm(doc.controller.gain, 2))


def _resolve_l_phi(doc, cert):
    src = doc.analysis["L_Phi"]
    if src != "probe":
        return float(src), False
    probe = lipschitz_probe(doc.system, cert, doc.mhe["M"],
                            n_trials=doc.analysis["probe_trials"],
                            seed=doc.analysis["probe_seed"])
    return probe.value, True


def _resolve_gamma13(doc):
    if doc.gamma13_slope is not None:
        return doc.gamma13_slope, False
    est = estimate_closed_loop_gain(doc.system, doc.controller)
    return est.slope, True


def _resolve_phi_base(doc, cert):
    if doc.mhe["phi_base"] is not None:
        return doc.mhe["phi_base"]
    return analysis.worst_case_contraction(doc.system, cert, doc.mhe["M"])


def _analysis_pipeline(doc, cert):
    """Shared by analyze-k and K='auto' simulation: params + minimum K."""
    assert_stabilizing(doc.system, doc.controller,
                       radius=doc.analysis["smoke_radius"],
                       horizon=doc.analysis["smoke_horizon"],
                       n_samples=doc.analysis["smoke_samples"])
    l_phi, l_phi_probed = _resolve_l_phi(doc, cert)
    gamma13, gamma13_heuristic = _resolve_gamma13(doc)
    phi_base = _resolve_phi_base(doc, cert)
    params = analysis.build_params(
        doc.system, cert, doc.mhe["M"], L_phi=l_phi, L_pi=_resolve_l_pi(doc),
        gamma13_slope=gamma13, phi_base=phi_base)
    k_star, verdict = analysis.min_iterations(params, doc.analysis["K_max"])
    ledger = analysis.ledger_at(k_star, params)
    meta = {"L_Phi_probed": l_phi_probed, "gamma13_heuristic": gamma13_heuristic}
    return k_star, ledger, params, meta


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
    print(json.dumps(out, indent=2))
    return 0 if verdict.passed else 1


def cmd_analyze_k(args):
    doc = load_config(args.config)
    cert, _ = _resolve_certificate(doc)
    k_star, ledger, _, meta = _analysis_pipeline(doc, cert)
    out = {"K_star": k_star, "meta": meta, "ledger": ledger.to_dict()}
    text = json.dumps(out, indent=2)
    print(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "analyze_k.json").write_text(text + "\n")
    return 0


def cmd_simulate(args):
    if args.seed is not None and args.seed < 0:
        raise ValidationError("--seed", "must be nonnegative")
    doc = load_config(args.config)
    cert, _ = _resolve_certificate(doc)
    if args.iters is not None:
        k = args.iters
    elif doc.mhe["K"] == "auto":
        k, _, _, _ = _analysis_pipeline(doc, cert)
    else:
        k = doc.mhe["K"]
    oracle = None
    if args.oracle is not None:
        oracle = args.oracle == "on"
    l_phi = None
    monitors_on = doc.scenario["monitors"] and (oracle is None or oracle)
    if monitors_on:
        try:
            l_phi, _ = _resolve_l_phi(doc, cert)
        except SubmheError:
            l_phi = None  # monitors needing L_Phi will be skipped
    cfg = doc.scenario_config(cert, K=k, seed=args.seed, steps=args.steps,
                              oracle=oracle, strict=args.strict,
                              allow_uncertified=args.uncertified, L_phi=l_phi,
                              L_pi=_resolve_l_pi(doc))
    log = run_closed_loop(cfg)
    outdir = Path(args.out if args.out else doc.output["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / doc.output["csv"]
    csv_path.write_text(log.to_csv_text())
    summary = log.summary_dict()
    summary_path = outdir / doc.output["summary"]
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    counts = log.monitor_counts()
    fails = sum(c["fail"] for c in counts.values())
    print(f"simulated {len(log.rows)} steps (K={k}, M={log.M}, "
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
    from .solver import (contraction_rate, run_pgd, solve_fixed_iters,
                         solve_oracle)

    M = doc.mhe["M"]

    def make_problem(t):
        m_eff = min(M, t)
        u_win = _bounded_sample(rng, sys_.u_box, m_eff)
        y_win = _bounded_sample(rng, sys_.y_box, m_eff)
        prior = _bounded_sample(rng, sys_.x_box, 1)[0]
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
            contraction_rate(make_problem(t))

    check("strong-convexity", convexity)

    def oracle_agreement():
        prob = make_problem(M)
        z_star = solve_oracle(prob, tol=1e-11)
        s, c = prob.reduced_gradient_terms()
        alpha = contraction_rate(prob)[0]
        v_pg = run_pgd(s, c, prob.lower, prob.upper,
                       np.zeros(prob.dim_v), alpha, 200000)
        if np.linalg.norm(v_pg - z_star.v) > 1e-7:
            raise SubmheError(
                f"oracle and long-run PGD disagree by "
                f"{np.linalg.norm(v_pg - z_star.v):.2e}")
        rep = solve_fixed_iters(prob, z_star.z, 3)
        if np.linalg.norm(rep.point.z - z_star.z) > 1e-10:
            raise SubmheError("optimum is not a solver fixed point")

    check("oracle-agreement", oracle_agreement)

    def smoke():
        assert_stabilizing(sys_, doc.controller,
                           radius=doc.analysis["smoke_radius"],
                           horizon=doc.analysis["smoke_horizon"],
                           n_samples=min(doc.analysis["smoke_samples"], 5))

    check("controller-stability-smoke", smoke)

    def short_loop():
        cfg = doc.scenario_config(cert, K=max(doc.mhe["K"], 5)
                                  if doc.mhe["K"] != "auto" else 50,
                                  steps=min(doc.scenario["steps"], 2 * M + 2),
                                  allow_uncertified=True,
                                  L_phi=(doc.analysis["L_Phi"]
                                         if doc.analysis["L_Phi"] != "probe" else None))
        log = run_closed_loop(cfg)
        from .mhe import expected_dim_z
        for row in log.rows:
            if row.dim_z0 != row.dim_z:
                raise SubmheError(f"warm-start dimension law broken at t={row.t}")
            if row.dim_z != expected_dim_z(sys_.n_x, sys_.n_y, M, row.t):
                raise SubmheError(f"decision dimension wrong at t={row.t}")
            if not row.what_feasible:
                raise SubmheError(f"disturbance estimate left its box at t={row.t}")

    check("short-closed-loop", short_loop)

    failed = [name for name, ok, _ in checks if not ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def _bounded_sample(rng, box, count, scale=1.0):
    lo = np.where(np.isfinite(box.lower), box.lower, -scale)
    hi = np.where(np.isfinite(box.upper), box.upper, scale)
    return rng.uniform(lo, hi, size=(count, box.dim))


def _check_dissipation(sys_, cert, rng, n_pairs, rel_tol):
    for _ in range(n_pairs):
        x = _bounded_sample(rng, sys_.x_box, 1)[0]
        xp = _bounded_sample(rng, sys_.x_box, 1)[0]
        u = _bounded_sample(rng, sys_.u_box, 1)[0]
        w1 = _bounded_sample(rng, sys_.w1_box, 1)[0]
        w1p = _bounded_sample(rng, sys_.w1_box, 1)[0]
        w2 = _bounded_sample(rng, sys_.w2_box, 1)[0]
        w2p = _bounded_sample(rng, sys_.w2_box, 1)[0]
        lhs = w_delta(cert, sys_.step(x, u, w1), sys_.step(xp, u, w1p))
        dw = np.concatenate([w1 - w1p, w2 - w2p])
        dy = sys_.output(x, w2) - sys_.output(xp, w2p)
        rhs = (cert.eta * w_delta(cert, x, xp) + dw @ cert.Q @ dw
               + dy @ cert.R @ dy)
        if lhs > rhs + rel_tol * max(1.0, abs(rhs)):
            raise SubmheError(
                f"dissipation violated: {lhs!r} > {rhs!r}")


def _check_lift_consistency(prob, v, atol):
    sys_ = prob.sys
    z = prob.lift(v)
    n_x, n_w, n_y = sys_.n_x, sys_.n_w, sys_.n_y
    from .mhe import extract_estimate
    states = extract_estimate(prob, z)
    off = n_x
    for j in range(prob.m_eff):
        w_blk = z[off:off + n_w]
        y_blk = z[off + n_w:off + n_w + n_y]
        resid_dyn = states[j + 1] - (sys_.A @ states[j]
                                     + sys_.B @ prob.u_window[j] + w_blk[:n_x])
        resid_out = y_blk - (sys_.C @ states[j] + w_blk[n_x:])
        if np.max(np.abs(resid_dyn)) > atol or np.max(np.abs(resid_out)) > atol:
            raise SubmheError("lifted point violates the window dynamics")
        off += n_w + n_y


def _direct_cost(prob, cert, v):
    """Window cost evaluated from the reconstructed trajectory."""
    from .mhe import extract_estimate
    z = prob.lift(v)
    sys_ = prob.sys
    states = extract_estimate(prob, z)
    m_eff = prob.m_eff
    total = 2.0 * cert.eta ** m_eff * w_delta(cert, states[0], prob.x_prior)
    n_x, n_w, n_y = sys_.n_x, sys_.n_w, sys_.n_y
    for i in range(1, m_eff + 1):
        j = m_eff - i  # window slot holding time t - i
        off = n_x + j * (n_w + n_y)
        w_blk = z[off:off + n_w]
        y_blk = z[off + n_w:off + n_w + n_y]
        dy = y_blk - prob.y_window[j]
        total += cert.eta ** (i - 1) * (2.0 * w_blk @ cert.Q @ w_blk
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
        p.add_argument("--out", default=None, help="output directory")

    p_cert = sub.add_parser("certify", help="verify or search the detectability "
                                            "certificate; print the LMI eigenvalue")
    common(p_cert)
    p_cert.set_defaults(fn=cmd_certify)

    p_an = sub.add_parser("analyze-k", help="compute the gain ledger and the "
                                            "minimum certified iteration count")
    common(p_an)
    p_an.set_defaults(fn=cmd_analyze_k)

    p_sim = sub.add_parser("simulate", help="run the closed loop; write CSV "
                                            "trajectory and JSON summary")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--iters", type=int, default=None)
    p_sim.add_argument("--strict", action="store_true",
                       help="promote monitor failures to errors")
    p_sim.add_argument("--uncertified", action="store_true",
                       help="allow simulation when the analysis fails (rho >= 1)")
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
