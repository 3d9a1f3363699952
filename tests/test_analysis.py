import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, count_calls, random_certified_setup

import submhe.analysis as analysis
from submhe.analysis import (AnalysisParams, budget_constants, build_params,
                             compute_rho, ledger_at, min_iterations,
                             minimal_contracting_horizon, weight_eigen_range,
                             worst_case_contraction)
from submhe.config import loads_config
from submhe.controller import closed_loop_gain
from submhe.errors import ContractionViolated, NotFoundBelowCap
from submhe.mhe import WindowShapes, compute_weight


def params(L_phi=5.32, L_pi=2.65, gamma13=28.8, eta=0.5, M=5, q=0.98,
           lift_gain=1.0, norm_C=math.sqrt(0.99), bar_H=2.0, lam_HP=4.0,
           lam_PP=1.04, lam_QP=2.0):
    return AnalysisParams(L_phi=L_phi, L_pi=L_pi, gamma13_slope=gamma13,
                          eta=eta, M=M, phi_base=q, lift_gain=lift_gain,
                          norm_C=norm_C, bar_H=bar_H, lam_HP=lam_HP,
                          lam_PP=lam_PP, lam_QP=lam_QP)


def scan_min_iterations(params, K_max):
    """Reference search: evaluate the ledger at every K = 1..K_max in turn."""
    compute_rho(params.eta, params.M)
    best_margin = -math.inf
    for K in range(1, int(K_max) + 1):
        ledger = ledger_at(K, params)
        best_margin = max(best_margin, min(ledger.margins))
        if ledger.passed:
            return K, ledger
    raise NotFoundBelowCap(int(K_max), best_margin)


@st.composite
def contracting_params(draw):
    """AnalysisParams with rho < 1: gamma13 = 0 on some draws, a lift gain
    above 1 and q up to 0.9995."""
    eta = draw(st.floats(0.05, 0.95))
    m_min = minimal_contracting_horizon(eta)
    return params(eta=eta, M=draw(st.integers(m_min, m_min + 7)),
                  q=draw(st.floats(0.3, 0.99) | st.floats(0.99, 0.9995)),
                  lift_gain=draw(st.floats(1.0, 6.0)),
                  gamma13=draw(st.just(0.0) | st.floats(0.01, 50.0)),
                  L_phi=draw(st.floats(1.01, 8.0)),
                  L_pi=draw(st.floats(0.0, 4.0)),
                  norm_C=draw(st.floats(0.0, 2.0)),
                  lam_HP=draw(st.floats(1.0, 10.0)),
                  lam_PP=draw(st.floats(1.0, 5.0)),
                  lam_QP=draw(st.floats(0.5, 5.0)))


def certified_variant(M):
    """AnalysisParams of case_study_certified.json at horizon M, with the
    inputs the CLI resolves: L_Phi asserted, L_pi = ||G||_2 and gamma13 from
    closed_loop_gain."""
    with open(CONFIG_DIR / "case_study_certified.json") as fh:
        raw = json.load(fh)
    raw["mhe"]["M"] = M
    doc = loads_config(json.dumps(raw))
    return build_params(doc.window_shapes(doc.certificate),
                        L_phi=doc.analysis["L_Phi"],
                        L_pi=np.linalg.norm(doc.controller.gain, 2),
                        gamma13_slope=closed_loop_gain(doc.system,
                                                       doc.controller))


def ledger_budget(K_max):
    return math.ceil(math.log2(K_max)) + 1


class TestComputeRho:
    def test_contracting_value(self):
        assert compute_rho(0.5, 5) == pytest.approx(6 ** 0.2 * 0.5, abs=1e-12)

    def test_violation_and_suggestion(self):
        with pytest.raises(ContractionViolated) as err:
            compute_rho(0.8, 5)
        assert err.value.suggested_horizon == 9
        assert err.value.rho == pytest.approx(6 ** 0.2 * 0.8, abs=1e-12)
        # suggested horizon actually contracts, and one less does not
        assert compute_rho(0.8, 9) < 1.0
        assert 6 ** (1.0 / 8) * 0.8 >= 1.0

    def test_vanishing_eta(self):
        assert compute_rho(0.0, 5) == 0.0
        assert compute_rho(1e-6, 1) == pytest.approx(6e-6)

    def test_minimal_horizon_scan(self):
        for eta in (0.3, 0.5, 0.8, 0.95):
            m = minimal_contracting_horizon(eta)
            assert 6 ** (1.0 / m) * eta < 1.0
            if m > 1:
                assert 6 ** (1.0 / (m - 1)) * eta >= 1.0


class TestBudgetConstants:
    def test_vanishing_phi_limits(self):
        p = params(q=0.5)
        c = budget_constants(5000, p)  # 0.5^5000 underflows to exactly 0
        assert c.phi == 0.0
        assert c.C1 == 0.0 and c.C2 == 0.0 and c.C3 == 0.0
        rho = 6 ** 0.2 * 0.5
        assert c.C_e == pytest.approx(math.sqrt(6 * p.lam_PP), rel=1e-12)
        assert c.C_eps == pytest.approx(
            math.sqrt(2 * p.lam_HP) / (1 - math.sqrt(rho ** 5)), rel=1e-12)
        assert c.C_w == pytest.approx(
            math.sqrt(6 * p.lam_QP) / (1 - math.sqrt(rho)), rel=1e-12)

    def test_single_step_horizon_empty_sum(self):
        p = params(M=1, eta=0.1, q=0.5)
        c = budget_constants(2, p)
        rho = 6 * 0.1
        sq = math.sqrt
        phi = 0.25
        pref = sq(3 * p.lam_PP * p.lam_HP) * phi * p.L_phi
        expected = (2 * pref * (sq(rho) ** -1 + p.L_pi / sq(rho))
                    + sq(6 * p.lam_PP)
                    + 2 * pref * (p.L_pi + 1) * sq(rho) ** -2)
        assert c.C_e == pytest.approx(expected, rel=1e-12)

    def test_paper_scalar_hand_evaluation(self):
        p = params(eta=0.5)  # C1 does not involve eta; rho guard needs eta
        c = budget_constants(652, p)
        expected_c1 = (2 * 0.98 ** 652 * 5.32
                       * (1 + 5 * (math.sqrt(0.99) + 2.65)))
        assert c.C1 == pytest.approx(expected_c1, rel=1e-12)
        assert c.C2 == pytest.approx(2 * 0.98 ** 652 * 5.32 * (1 + 5 * 2.65),
                                     rel=1e-12)
        assert c.C3 == pytest.approx(2 * 0.98 ** 652 * 5.32 * 5, rel=1e-12)

    def test_norm_c_from_case_study_output_matrix(self):
        c_row = np.array([[0.1, 0.3, 0.8, 0.5]])
        assert np.linalg.norm(c_row, 2) == pytest.approx(math.sqrt(0.99),
                                                         rel=1e-12)


class TestGainSlopes:
    def test_slope_formula(self):
        p = params(q=0.5, eta=0.5)
        led = ledger_at(1, p)
        phi = 0.5
        assert led.g21 == pytest.approx(led.constants.C1 / (1 - phi), rel=1e-12)
        assert led.g2sigma == pytest.approx(phi * p.L_phi / (1 - phi), rel=1e-12)
        assert led.g31 == pytest.approx(
            math.sqrt(2 * p.lam_HP) * led.constants.C1, rel=1e-12)
        assert led.g32 == led.constants.C_eps
        # numeric identity from the slope formula: C1 = 1, q = 0.5, K = 1 -> 2
        assert 1.0 / (1 - 0.5) == 2.0

    def test_limits_as_budget_grows(self):
        p = params(q=0.5, eta=0.5)
        led = ledger_at(5000, p)
        assert led.g21 == 0.0 and led.g23 == 0.0 and led.g2w == 0.0
        assert led.g2sigma == 0.0 and led.g31 == 0.0 and led.g3sigma == 0.0
        rho = 6 ** 0.2 * 0.5
        assert led.g32 == pytest.approx(
            math.sqrt(2 * p.lam_HP) / (1 - math.sqrt(rho ** 5)), rel=1e-12)

    def test_monotone_sweep(self):
        p = params(eta=0.8, M=9)
        slopes = [ledger_at(k, p).g21 for k in range(1, 201)]
        assert all(a >= b for a, b in zip(slopes, slopes[1:]))


class TestSmallGain:
    def test_strict_boundary_fails(self):
        p = params(eta=0.5)
        led = ledger_at(20, p)
        crit = 1.0 / led.g31
        # push gamma13 up until the product reaches (or crosses) exactly 1
        gamma = crit
        while gamma * led.g31 < 1.0:
            gamma = np.nextafter(gamma, np.inf)
        boundary = params(eta=0.5, gamma13=gamma)
        verdict = ledger_at(20, boundary)
        assert not verdict.passed
        assert verdict.margins[0] <= 0.0
        below = params(eta=0.5, gamma13=crit * (1 - 1e-9))
        assert ledger_at(20, below).products[0] < 1.0

    def test_margins_are_one_minus_products(self):
        p = params(eta=0.5)
        v = ledger_at(10, p)
        for prod, margin in zip(v.products, v.margins):
            assert margin == pytest.approx(1.0 - prod, rel=1e-15)

    def test_large_budget_always_passes_when_contracting(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            eta = float(rng.uniform(0.05, 0.9))
            M = int(rng.integers(minimal_contracting_horizon(eta), 12))
            p = params(eta=eta, M=M,
                       L_phi=float(rng.uniform(1.1, 8)),
                       L_pi=float(rng.uniform(0.1, 4)),
                       gamma13=float(rng.uniform(0.1, 50)),
                       q=float(rng.uniform(0.3, 0.99)),
                       lam_HP=float(rng.uniform(1, 10)),
                       lam_PP=float(rng.uniform(1, 5)),
                       lam_QP=float(rng.uniform(0.5, 5)))
            assert ledger_at(10 ** 6, p).passed


class TestMinIterations:
    def test_immediate_pass(self):
        p = params(q=0.01, eta=0.1, gamma13=0.01, L_phi=1.01, L_pi=0.01,
                   lam_HP=1.0, lam_PP=1.0, lam_QP=1.0, M=1)
        k_star, verdict = min_iterations(p, 100)
        assert k_star == 1 and verdict.passed

    def test_cap_exhaustion(self):
        p = params(q=0.999999, eta=0.5, gamma13=50.0)
        with pytest.raises(NotFoundBelowCap) as err:
            min_iterations(p, 5)
        assert err.value.k_max == 5
        # the margins never fall as K grows: the best one is the cap's
        assert err.value.best_margin == min(ledger_at(5, p).margins)

    @settings(max_examples=300, deadline=None)
    @given(p=contracting_params(),
           K_max=st.integers(1, 100) | st.integers(100, 3000))
    def test_bisection_matches_the_scan(self, p, K_max):
        try:
            expected = scan_min_iterations(p, K_max)
        except NotFoundBelowCap as exc:
            expected = exc
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, analysis, "ledger_at")
            try:
                k_star, ledger = min_iterations(p, K_max)
            except NotFoundBelowCap as exc:
                assert isinstance(expected, NotFoundBelowCap)
                assert (exc.k_max, exc.best_margin) == (expected.k_max,
                                                        expected.best_margin)
            else:
                assert not isinstance(expected, NotFoundBelowCap)
                assert k_star == expected[0]
                assert ledger.to_dict() == expected[1].to_dict()
        assert len(calls) <= ledger_budget(K_max)

    @settings(max_examples=200, deadline=None)
    @given(p=contracting_params(), K=st.integers(0, 5000))
    def test_no_product_rises_with_k(self, p, K):
        now, nxt = ledger_at(K, p), ledger_at(K + 1, p)
        assert not any(b > a for a, b in zip(now.products, nxt.products))
        assert nxt.passed or not now.passed

    @pytest.mark.parametrize("M, k_star", [(9, 182), (15, 627), (25, 5911)])
    def test_certified_horizons(self, M, k_star, monkeypatch):
        p = certified_variant(M)
        calls = count_calls(monkeypatch, analysis, "ledger_at")
        found, ledger = min_iterations(p, 20_000)
        assert found == k_star and ledger.passed
        assert len(calls) <= ledger_budget(20_000)
        assert not ledger_at(k_star - 1, p).passed

    def test_certified_horizon_beyond_the_cap(self):
        p = certified_variant(25)
        with pytest.raises(NotFoundBelowCap) as err:
            min_iterations(p, 5000)
        assert err.value.k_max == 5000
        assert err.value.best_margin == min(ledger_at(5000, p).margins)

    def test_first_passing_k_is_minimal(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = params(eta=0.5, q=float(rng.uniform(0.9, 0.99)),
                       gamma13=float(rng.uniform(1, 30)))
            k_star, ledger = min_iterations(p, 50_000)
            assert ledger.passed
            assert ledger.to_dict() == ledger_at(k_star, p).to_dict()
            if k_star > 1:
                assert not ledger_at(k_star - 1, p).passed

    def test_rho_guard_runs_first(self):
        p = params(eta=0.8, M=5)
        with pytest.raises(ContractionViolated):
            min_iterations(p, 10)


class TestLedger:
    def test_no_decay_leaves_only_one_step_constants(self):
        # rho = 6^(1/5) 0.8 >= 1: C1..C3 bound one step and stay those of a
        # contracting horizon; the constants that sum the decay are infinite
        p, contracting = params(eta=0.8, M=5), params(eta=0.5, M=5)
        led = ledger_at(20, p)
        c, ref = led.constants, budget_constants(20, contracting)
        assert c.rho > 1.0
        assert (c.C1, c.C2, c.C3) == (ref.C1, ref.C2, ref.C3)
        assert c.C_e == c.C_w == c.C_eps == math.inf
        assert not led.passed

    def test_deterministic(self):
        p = params(eta=0.5)
        a = ledger_at(37, p).to_dict()
        b = ledger_at(37, p).to_dict()
        assert a == b

    def test_json_serializable(self):
        import json
        p = params(eta=0.5)
        text = json.dumps(ledger_at(3, p).to_dict())
        assert "small_gain" in text

    def test_verdict_folded(self):
        p = params(eta=0.5)
        led = ledger_at(100_000, p)
        assert led.passed
        assert len(led.products) == 3 and len(led.margins) == 3

    def test_lift_gain_scales_the_contract_the_constants_use(self):
        plain, lifted = params(q=0.9), params(q=0.9, lift_gain=2.0)
        c, c_plain = budget_constants(40, lifted), budget_constants(40, plain)
        assert c.phi == 0.9 ** 40 == c_plain.phi  # the solver contract in v
        assert c.phi_z == 2.0 * 0.9 ** 40
        assert (c.C1, c.C2, c.C3) == tuple(2.0 * x for x in
                                           (c_plain.C1, c_plain.C2, c_plain.C3))
        assert ledger_at(40, lifted).beta2_base == c.phi_z

    def test_no_ledger_passes_while_the_lifted_contract_expands(self):
        p = params(q=0.9, lift_gain=2.0, gamma13=0.0, eta=0.1)
        led = ledger_at(5, p)  # phi_z = 2 * 0.9^5 = 1.18
        assert led.constants.phi_z >= 1.0
        assert led.g21 == math.inf and not led.passed
        k_star, led = min_iterations(p, 1000)
        assert led.constants.phi_z < 1.0
        assert not ledger_at(k_star - 1, p).passed


class TestBuildParams:
    def test_weight_scan_matches_direct(self, case_study):
        sys, cert, _ = case_study
        bar_h, _ = weight_eigen_range(WindowShapes(sys, cert, 5))
        direct = max(np.linalg.eigvalsh(compute_weight(m, cert))[-1]
                     for m in range(6))
        assert bar_h == pytest.approx(direct, rel=1e-12)

    def test_ratios(self, case_study):
        sys, cert, _ = case_study
        p = build_params(WindowShapes(sys, cert, 5), L_phi=5.32, L_pi=2.65,
                         gamma13_slope=28.8)
        pw = np.linalg.eigvalsh(cert.P)
        assert p.lam_PP == pytest.approx(pw[-1] / pw[0], rel=1e-10)
        assert p.lam_QP == pytest.approx(1.0 / pw[0], rel=1e-10)
        assert p.norm_C == pytest.approx(math.sqrt(0.99), rel=1e-10)
        assert p.phi_base == worst_case_contraction(WindowShapes(sys, cert, 5))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            params(L_phi=1.0)
        with pytest.raises(ValueError):
            params(q=1.0)
        with pytest.raises(ValueError):
            params(M=0)
        with pytest.raises(ValueError):
            params(lam_HP=0.0)
        with pytest.raises(ValueError):
            params(eta=0.0)
        with pytest.raises(ValueError):
            params(L_pi=-0.1)
        with pytest.raises(ValueError):
            params(gamma13=math.nan)

    def test_base_and_lift_gain_scan_all_shapes(self, case_study):
        sys, cert, _ = case_study
        shapes = WindowShapes(sys, cert, 5)
        p = build_params(shapes, L_phi=5.32, L_pi=2.65, gamma13_slope=28.8)
        assert p.phi_base == max((L - mu) / (L + mu) for mu, L in
                                 (shapes[m].curvature for m in range(6)))
        assert p.lift_gain == max(np.linalg.norm(shapes[m].lift_matrix, 2)
                                  for m in range(6))
        assert p.lift_gain > 1.0
        with pytest.raises(ValueError):
            params(lift_gain=0.99)

    def test_worst_case_contraction_scans_all_shapes(self, case_study):
        sys, cert, _ = case_study
        q5 = worst_case_contraction(WindowShapes(sys, cert, 5))
        q9 = worst_case_contraction(WindowShapes(sys, cert, 9))
        assert 0 < q5 < 1 and 0 < q9 < 1
        assert q9 >= q5  # longer windows condition worse here


def test_random_certified_params_have_finite_budget():
    rng = np.random.default_rng(2)
    sys, cert = random_certified_setup(rng)
    M = minimal_contracting_horizon(cert.eta)
    p = build_params(WindowShapes(sys, cert, M), L_phi=3.0, L_pi=1.5,
                     gamma13_slope=10.0)
    k_star, verdict = min_iterations(p, 10 ** 6)
    assert verdict.passed
    assert k_star >= 1
