"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them
live). Expected values come from independent oracles computed in-test.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import (CONFIG_DIR, certified_pgd, doc_params,
                      random_certified_setup, random_problem)

from submhe.analysis import (build_params, compute_rho, ledger_at,
                             min_iterations, minimal_contracting_horizon)
from submhe.analysis import AnalysisParams
from submhe.cli import run_cli
from submhe.errors import ContractionViolated
from submhe.harness import lipschitz_probe, run_closed_loop
from submhe.mhe import WindowShapes, sigma_lift
from submhe.model import verify_ioss_lmi, w_delta
from submhe.solver import solve_fixed_iters, solve_oracle


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_solver_contract():
    """Eq.-11 budget over >= 100 randomized problems, K in {1, 5, 20, 100}."""
    rng = np.random.default_rng(101)
    n_problems = 0
    checked = 0
    while n_problems < 100:
        sys, cert = random_certified_setup(rng, n_x_max=6)
        prob = random_problem(rng, sys, cert, M=int(rng.integers(1, 6)))
        n_problems += 1
        q = prob.shape.contraction_base
        v_star = solve_oracle(prob).v
        z_star = prob.lift(v_star)
        v0 = np.clip(rng.uniform(-2, 2, size=prob.dim_v), prob.shape.lower,
                     prob.shape.upper)
        z0 = prob.lift(v0)
        d0_z = np.linalg.norm(z0 - z_star)
        d0_v = np.linalg.norm(v0 - v_star)
        for K in (1, 5, 20, 100):
            rep = solve_fixed_iters(prob, z0, K)
            d_z = np.linalg.norm(rep.z - z_star)
            d_v = np.linalg.norm(rep.v - v_star)
            # q^K is the theorem in v; in z it carries the lift norm ||Psi||
            assert d_v <= q ** K * d0_v + 1e-9, \
                f"v-space budget violated: problem {n_problems}, K={K}"
            assert d_z <= prob.shape.lift_norm * q ** K * d0_z + 1e-9, \
                f"z-space budget violated: problem {n_problems}, K={K}"
            checked += 1
    # oracle cross-check against projected gradient at step 1/L, run for up
    # to 1e6 iterations and stopped once within 1e-11 of the optimum
    rng2 = np.random.default_rng(102)
    for _ in range(3):
        sys, cert = random_certified_setup(rng2, n_x_max=3)
        prob = random_problem(rng2, sys, cert, M=2, t=3)
        v_star = solve_oracle(prob).v
        s, c = prob.shape.hessian, prob.linear_term
        lam = np.linalg.eigvalsh(s)
        v_pg = certified_pgd(s, c, prob.shape.lower, prob.shape.upper, 1.0 / lam[-1],
                             1.0 - lam[0] / lam[-1], 1e-11, 1_000_000)
        assert np.linalg.norm(v_pg - v_star) <= 1e-8
    _report(1, f"{checked} (problem, K) pairs within q^K in v and "
               f"||Psi|| q^K in z; oracle "
               "agrees with certified projected gradient to 1e-8")


def test_criterion_2_lmi_implies_dissipation():
    """verify_ioss_lmi pass => one-step dissipation on 1e3 sampled pairs."""
    rng = np.random.default_rng(201)
    systems = 0
    while systems < 10:
        sys, cert = random_certified_setup(rng)
        assert verify_ioss_lmi(sys, cert).passed
        systems += 1
        for _ in range(1000):
            x = rng.uniform(-2, 2, size=sys.n_x)
            xp = rng.uniform(-2, 2, size=sys.n_x)
            u = rng.uniform(sys.u_box.lower, sys.u_box.upper)
            w1 = rng.uniform(sys.w1_box.lower, sys.w1_box.upper)
            w1p = rng.uniform(sys.w1_box.lower, sys.w1_box.upper)
            w2 = rng.uniform(sys.w2_box.lower, sys.w2_box.upper)
            w2p = rng.uniform(sys.w2_box.lower, sys.w2_box.upper)
            lhs = w_delta(cert, sys.step(x, u, w1), sys.step(xp, u, w1p))
            dw = np.concatenate([w1 - w1p, w2 - w2p])
            dy = sys.output(x, w2) - sys.output(xp, w2p)
            rhs = (cert.eta * w_delta(cert, x, xp) + dw @ cert.Q @ dw
                   + dy @ cert.R @ dy)
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
    _report(2, "10 certified systems x 1000 sampled pairs dissipate "
               "within 1e-9 relative")


def test_criterion_3_lyapunov_monitor_certified_run(certified_doc):
    doc = certified_doc
    cert = doc.certificate
    shapes = doc.window_shapes(cert)
    params = doc_params(doc, shapes)
    k_star, _ = min_iterations(params)
    cfg = doc.scenario_config(shapes, K=k_star, steps=40, params=params)
    log = run_closed_loop(cfg)
    assert log.certified
    counts = log.monitor_counts()
    assert counts["lyapunov"]["pass"] == 40
    assert counts["lyapunov"]["fail"] == 0
    assert counts["lyapunov"]["skip"] == 0
    assert counts["contraction"]["fail"] == 0
    _report(3, f"40/40 M-step Lyapunov verdicts pass at K={k_star} "
               "(rel tol 1e-7)")


def test_criterion_4_case_study_reproduction(case_study_doc):
    doc = case_study_doc
    assert np.array_equal(doc.scenario["x0"], [12.0, -10.0, 10.0, -10.0])
    assert np.array_equal(doc.scenario["prior"], [7.0, -7.0, 3.0, -5.0])
    shapes = doc.window_shapes(doc.certificate)
    cfg = doc.scenario_config(shapes, K=25, steps=40,
                              params=doc_params(doc, shapes))
    z_ks = []
    log = run_closed_loop(cfg, observe=lambda prob, rep: z_ks.append(rep.z))
    x_norms = np.linalg.norm(log.x, axis=1)
    eps = log.eps
    x_ratio = max(x_norms[-10:]) / max(x_norms[:10])
    eps_ratio = max(eps[-10:]) / max(eps[:10])
    assert x_ratio < 0.10, f"state sup-norm ratio {x_ratio:.2%}"
    assert eps_ratio < 0.10, f"sub-optimality ratio {eps_ratio:.2%}"
    n_x, n_w, n_y = 4, 5, 1
    for t, z_k in enumerate(z_ks):
        m_eff = min(5, t)
        for j in range(m_eff):
            off = n_x + j * (n_w + n_y)
            w2_hat = z_k[off + n_x:off + n_w]
            assert np.all(w2_hat >= -0.1 - 1e-12)
            assert np.all(w2_hat <= 0.1 + 1e-12)
    assert log.feasible[:, 0].all()
    _report(4, f"state ratio {x_ratio:.2%}, sub-optimality ratio "
               f"{eps_ratio:.2%} (both < 10%), every estimated measurement "
               "noise inside [-0.1, 0.1]")


def test_criterion_5_minimum_iteration_finder(certified_doc):
    rng = np.random.default_rng(501)
    for _ in range(20):
        eta = float(rng.uniform(0.05, 0.9))
        M = minimal_contracting_horizon(eta) + int(rng.integers(0, 4))
        p = AnalysisParams(
            L_phi=float(rng.uniform(1.1, 8)), L_pi=float(rng.uniform(0.1, 4)),
            gamma13_slope=float(rng.uniform(0.1, 50)), eta=eta, M=M,
            phi_base=float(rng.uniform(0.3, 0.99)), lift_gain=1.0,
            norm_C=float(rng.uniform(0.1, 2)), bar_H=float(rng.uniform(1, 5)),
            lam_HP=float(rng.uniform(1, 10)), lam_PP=float(rng.uniform(1, 5)),
            lam_QP=float(rng.uniform(0.5, 5)))
        k_star, verdict = min_iterations(p)
        assert verdict.passed
        if k_star > 1:
            assert not ledger_at(k_star - 1, p).passed
    # paper-scalar reproduction at an order-of-magnitude level
    doc = certified_doc
    params = replace(build_params(WindowShapes(doc.system, doc.certificate, 9),
                                  doc.controller, L_phi=5.32),
                     L_pi=2.65, gamma13_slope=28.8)
    k_paper, verdict = min_iterations(params)
    assert verdict.passed
    assert 652 / 10 <= k_paper <= 652 * 10
    _report(5, f"20 randomized parameter sets: K* minimal and finite; "
               f"paper-scalar K* = {k_paper} (vs 652, order of magnitude)")


def test_criterion_6_rho_validation():
    with pytest.raises(ContractionViolated) as err:
        compute_rho(0.8, 5)
    assert err.value.suggested_horizon == 9
    rho = compute_rho(0.5, 5)
    assert abs(rho - 6 ** 0.2 * 0.5) <= 1e-12
    _report(6, f"rho(0.8, 5) raises with minimal M = 9; rho(0.5, 5) = {rho:.6f}")


def test_criterion_7_lipschitz_probe(case_study):
    sys, cert, _ = case_study
    probes = [lipschitz_probe(WindowShapes(sys, cert, 5), n_trials=500, seed=seed,
                              prior_scale=5.0, y_scale=2.0)
              for seed in (11, 12)]
    for p in probes:
        assert np.isfinite(p.value)
        assert p.value >= 1.0
        assert p.n_used >= 500 - p.n_skipped
    spread = abs(probes[0].value - probes[1].value) / max(p.value for p in probes)
    assert spread < 0.5
    _report(7, f"empirical L_Phi = {probes[0].value:.3f} / "
               f"{probes[1].value:.3f} over 500-pair probes, spread "
               f"{spread:.1%} < 50%")


def test_criterion_8_simulate_determinism(tmp_path, capsys):
    for sub in ("first", "second"):
        code = run_cli(["simulate", "--config",
                        str(CONFIG_DIR / "case_study.json"),
                        "--out", str(tmp_path / sub), "--uncertified"])
        assert code == 0
    capsys.readouterr()
    a = (tmp_path / "first" / "trajectory.csv").read_bytes()
    b = (tmp_path / "second" / "trajectory.csv").read_bytes()
    assert a == b
    _report(8, f"two simulate runs byte-identical ({len(a)} bytes)")


def test_criterion_9_warm_start_growing_phase(case_study_doc):
    doc = case_study_doc
    M = doc.mhe["M"]
    shapes = doc.window_shapes(doc.certificate)
    cfg = doc.scenario_config(shapes, K=40, steps=2 * M,
                              params=doc_params(doc, shapes))
    dims = []
    run_closed_loop(cfg, observe=lambda prob, rep: dims.append(prob.dim_z))
    # a warm start of another length would raise DimensionMismatch in the solve
    assert dims == [4 + min(M, t) * (5 + 1) for t in range(2 * M)]
    rng = np.random.default_rng(901)
    for t in range(1, M + 1):
        z = rng.standard_normal(4 + (t - 1) * (5 + 1))
        lifted = sigma_lift(z, t, shapes)
        assert np.linalg.norm(lifted) == np.linalg.norm(z)
    _report(9, f"warm-start dimension law holds for all {2 * M} steps; "
               "zero-padding preserves norms exactly")
