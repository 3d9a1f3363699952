import numpy as np
import pytest

from conftest import CONFIG_DIR, make_system, simple_certificate

from submhe.controller import FeedbackLaw
from submhe.errors import (ContractionViolated, DegenerateDenominator,
                           MonitorViolation, UnboundedSampleBox)
from submhe.harness import (MonitorBundle, ScenarioConfig, lipschitz_probe,
                            monitor_step, run_closed_loop, sample_disturbance,
                            sample_disturbance_arrays)
from submhe.mhe import expected_dim_z
from submhe.model import Box


def scenario(doc, cert, **kw):
    defaults = dict(sys=doc.system, cert=cert, law=doc.controller,
                    M=doc.mhe["M"], K=200, steps=12,
                    x0=np.array([1.0, -1.0, 1.0, -1.0]),
                    x_prior0=np.array([1.0, -1.0, 1.0, -1.0]),
                    seed=3, oracle=True, monitors=True,
                    L_phi=5.32, L_pi=2.65, gamma13_slope=28.8, phi_base=0.98,
                    allow_uncertified=True)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestSampleDisturbance:
    def test_degenerate_box_gives_zeros(self):
        seq = sample_disturbance(0, Box.from_pairs([[0.0, 0.0]] * 2),
                                 Box.from_pairs([[0.0, 0.0]]), 5)
        assert len(seq) == 5
        for w in seq:
            assert np.array_equal(w.w1, np.zeros(2))
            assert np.array_equal(w.w2, np.zeros(1))
            assert np.array_equal(w.stacked, np.zeros(3))

    def test_same_seed_identical(self):
        box1 = Box.from_pairs([[-0.1, 0.1]] * 3)
        box2 = Box.from_pairs([[-0.2, 0.2]])
        a = sample_disturbance_arrays(42, box1, box2, 100)
        b = sample_disturbance_arrays(42, box1, box2, 100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_disturbance_arrays(43, box1, box2, 100)
        assert not np.array_equal(a[0], c[0])
        seq = sample_disturbance(42, box1, box2, 100)
        assert np.array_equal(np.array([w.w1 for w in seq]), a[0])

    def test_bounds_respected_and_mean(self):
        box1 = Box.from_pairs([[-0.1, 0.1]] * 2)
        box2 = Box.from_pairs([[-0.1, 0.1]])
        w1, w2 = sample_disturbance_arrays(7, box1, box2, 10_000)
        assert np.all(w1 >= -0.1) and np.all(w1 <= 0.1)
        bound = 3 * 0.1 / np.sqrt(3 * 10_000)
        assert np.all(np.abs(w1.mean(axis=0)) <= bound)
        assert abs(w2.mean()) <= bound

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedSampleBox):
            sample_disturbance(0, Box.unbounded(2), Box.from_pairs([[0, 1]]), 3)


class TestClosedLoop:
    def test_nominal_exact_information_decays(self, case_study_doc):
        doc = case_study_doc
        cfg = scenario(doc, doc.certificate, steps=30, K=300,
                       w1_box=Box.from_pairs([[0.0, 0.0]] * 4),
                       w2_box=Box.from_pairs([[0.0, 0.0]]))
        log = run_closed_loop(cfg)
        e_norms = [r.e_norm for r in log.rows]
        x_norms = [float(np.linalg.norm(r.x)) for r in log.rows]
        assert e_norms[-1] <= 1e-8
        assert x_norms[-1] <= 1e-5
        assert x_norms[-1] < x_norms[0]

    def test_uncertified_gate(self, case_study_doc):
        doc = case_study_doc
        with pytest.raises(ContractionViolated):
            run_closed_loop(scenario(doc, doc.certificate, steps=3,
                                     allow_uncertified=False))

    def test_zero_budget_diagnostic_path(self, case_study_doc):
        doc = case_study_doc
        cfg = scenario(doc, doc.certificate, K=0, steps=8)
        log = run_closed_loop(cfg)
        assert len(log.rows) == 8
        eps = [r.eps for r in log.rows]
        assert max(eps) > 0.1  # warm start never improves

    def test_determinism_bytes(self, case_study_doc):
        doc = case_study_doc
        cfg = scenario(doc, doc.certificate, steps=10)
        a = run_closed_loop(cfg).to_csv_text()
        b = run_closed_loop(cfg).to_csv_text()
        assert a == b
        c = run_closed_loop(scenario(doc, doc.certificate, steps=10,
                                     seed=4)).to_csv_text()
        assert a != c

    def test_warm_start_dimension_law(self, case_study_doc):
        doc = case_study_doc
        M = doc.mhe["M"]
        cfg = scenario(doc, doc.certificate, steps=2 * M)
        log = run_closed_loop(cfg)
        for row in log.rows:
            assert row.dim_z0 == row.dim_z
            assert row.dim_z == expected_dim_z(4, 1, M, row.t)

    def test_disturbance_estimates_stay_feasible(self, case_study_doc):
        doc = case_study_doc
        log = run_closed_loop(scenario(doc, doc.certificate, steps=15))
        assert all(r.what_feasible for r in log.rows)

    def test_certified_run_monitors_all_pass(self, certified_doc):
        doc = certified_doc
        cfg = scenario(doc, doc.certificate, M=9, K=700, steps=25,
                       allow_uncertified=False,
                       x0=np.array([5.0, -4.0, 3.0, -2.0]),
                       x_prior0=np.array([2.0, -2.0, 1.0, -1.0]))
        log = run_closed_loop(cfg)
        assert log.certified
        counts = log.monitor_counts()
        assert counts["lyapunov"]["fail"] == 0
        assert counts["lyapunov"]["pass"] == 25
        assert counts["contraction"]["fail"] == 0
        assert counts["traj_eps"]["fail"] == 0
        assert counts["traj_err"]["fail"] == 0

    @pytest.mark.parametrize("source", ["rho_violated", "small_gain_fails"])
    def test_uncertified_skips_trajectory_monitors(self, source, case_study_doc,
                                                   certified_doc):
        if source == "rho_violated":
            doc = case_study_doc
            cfg = scenario(doc, doc.certificate, steps=6)
        else:
            # rho < 1, but K = 25 is far below K*: the ledger fails small gain
            doc = certified_doc
            cfg = doc.scenario_config(doc.certificate, K=25, steps=6,
                                      oracle=True, allow_uncertified=True,
                                      L_phi=doc.analysis["L_Phi"])
        log = run_closed_loop(cfg)
        assert not log.certified
        if source == "small_gain_fails":
            assert not log.ledger.passed
            worst = max(log.ledger.products)
            assert f"{worst:.6e}" in log.uncertified_reason
        counts = log.monitor_counts()
        assert counts["traj_eps"]["skip"] == 6
        assert counts["traj_err"]["skip"] == 6
        assert counts["lyapunov"]["pass"] == 6  # rho-free, still checked

    def test_strict_mode_raises_on_failure(self, case_study_doc):
        doc = case_study_doc
        # an absurdly optimistic claimed rate makes the contraction monitor fail
        cfg = scenario(doc, doc.certificate, K=1, steps=6, strict=True,
                       phi_base=1e-6)
        with pytest.raises(MonitorViolation):
            run_closed_loop(cfg)
        relaxed = scenario(doc, doc.certificate, K=1, steps=6, strict=False,
                           phi_base=1e-6)
        log = run_closed_loop(relaxed)
        assert log.monitor_counts()["contraction"]["fail"] > 0

    def test_oracle_off_skips_everything(self, case_study_doc):
        doc = case_study_doc
        log = run_closed_loop(scenario(doc, doc.certificate, steps=5,
                                       oracle=False))
        assert all(r.eps is None for r in log.rows)
        counts = log.monitor_counts()
        for name in counts:
            assert counts[name]["skip"] == 5

    def test_csv_layout(self, case_study_doc):
        doc = case_study_doc
        log = run_closed_loop(scenario(doc, doc.certificate, steps=3))
        lines = log.to_csv_text().strip().split("\n")
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[:5] == ["t", "x0", "x1", "x2", "x3"]
        assert header[5] == "y0"
        assert header[6:8] == ["u0", "u1"]
        assert header[8:12] == ["xhat0", "xhat1", "xhat2", "xhat3"]
        assert header[12:17] == ["e_norm", "eps", "w_delta", "sigma_raw",
                                 "sigma_clamped"]
        assert header[17:] == ["mon_eps_recursion", "mon_lyapunov",
                               "mon_traj_eps", "mon_traj_err",
                               "mon_contraction"]

    def test_certified_run_tails_settle(self, certified_doc):
        # bounded disturbance, certified budget: all sups finite and the last
        # quarter of the run is quieter than the first quarter
        doc = certified_doc
        cfg = scenario(doc, doc.certificate, M=9, K=700, steps=40,
                       allow_uncertified=False,
                       x0=np.array([12.0, -10.0, 10.0, -10.0]),
                       x_prior0=np.array([7.0, -7.0, 3.0, -5.0]))
        log = run_closed_loop(cfg)
        x_norms = [float(np.linalg.norm(r.x)) for r in log.rows]
        e_norms = [r.e_norm for r in log.rows]
        eps = [r.eps for r in log.rows]
        for series in (x_norms, e_norms, eps):
            assert np.all(np.isfinite(series))
            assert max(series[-10:]) < max(series[:10])

    def test_summary_contents(self, case_study_doc):
        doc = case_study_doc
        cfg = scenario(doc, doc.certificate, steps=4, config_hash="abc123")
        log = run_closed_loop(cfg)
        summary = log.summary_dict()
        assert summary["config_hash"] == "abc123"
        assert summary["prng"] == "pcg64"
        assert summary["steps"] == 4
        assert summary["certified"] is False
        assert summary["sup_norms"]["x"] > 0


LOOP_CSV_SCRIPT = """
import sys
from submhe.config import load_config
from submhe.harness import run_closed_loop
for arg in sys.argv[1:]:
    path, seed = arg.rsplit(":", 1)
    doc = load_config(path)
    cfg = doc.scenario_config(doc.certificate, K=40, seed=int(seed),
                              steps=2 * doc.mhe["M"] + 2, oracle=True,
                              allow_uncertified=True)
    sys.stdout.write(run_closed_loop(cfg).to_csv_text())
"""


def test_no_window_state_shared_between_runs():
    """Runs on both shipped configs in one process match separate processes.

    The seeds differ, so per-step data left over from the first run would
    change the second run's CSV.
    """
    import subprocess
    import sys

    runs = [f"{CONFIG_DIR / 'case_study.json'}:3",
            f"{CONFIG_DIR / 'case_study_certified.json'}:4"]

    def csv_text(args):
        res = subprocess.run([sys.executable, "-c", LOOP_CSV_SCRIPT, *args],
                             capture_output=True, text=True, check=True)
        return res.stdout

    together = csv_text(runs)
    apart = "".join(csv_text([run]) for run in runs)
    assert together == apart
    assert sum(line.startswith("t,") for line in together.splitlines()) == 2


class TestMonitorStep:
    def bundle(self, **kw):
        defaults = dict(phi=0.5, L_phi=2.0, C1=1.0, C2=1.0, C3=1.0, bar_H=2.0,
                        eta=0.8, ledger=None, rel_tol=1e-7)
        defaults.update(kw)
        return MonitorBundle(**defaults)

    def common(self, **kw):
        defaults = dict(t=3, m_eff=3, eps=0.1, eps_prev=0.2, eps0=0.3,
                        e_norm_now=0.5, e0_norm=1.0, w_delta_now=1.0,
                        w_delta_anchor=1.0, w_recent_q=[0.01, 0.01, 0.01],
                        sup_x=1.0, sup_e=1.0, sup_w=0.1, sup_sigma=0.0,
                        sup_eps=0.3, warm_distance=0.5)
        defaults.update(kw)
        return defaults

    def test_recursion_pass_and_fail(self):
        b = self.bundle()
        v = monitor_step(b, **self.common())
        assert v.eps_recursion == "pass"
        v = monitor_step(b, **self.common(eps=10.0))
        assert v.eps_recursion == "fail"

    def test_skip_at_origin_step(self):
        v = monitor_step(self.bundle(), **self.common(t=0, m_eff=0,
                                                      w_recent_q=[]))
        assert v.eps_recursion == "skip"

    def test_lyapunov_inequality(self):
        b = self.bundle()
        # rhs = 6 * 0.8^3 * 1 + 2*2*eps^2 + 6*sum(eta^{j-1} wq)
        rhs = 6 * 0.8 ** 3 + 4 * 0.01 + 6 * (0.01 + 0.8 * 0.01 + 0.64 * 0.01)
        v = monitor_step(b, **self.common(w_delta_now=rhs - 1e-3))
        assert v.lyapunov == "pass"
        v = monitor_step(b, **self.common(w_delta_now=rhs + 1e-3))
        assert v.lyapunov == "fail"

    def test_contraction_monitor(self):
        b = self.bundle()
        v = monitor_step(b, **self.common(eps=0.24, warm_distance=0.5))
        assert v.contraction == "pass"
        v = monitor_step(b, **self.common(eps=0.26, warm_distance=0.5))
        assert v.contraction == "fail"

    def test_missing_constants_skip(self):
        b = self.bundle(C1=None, C2=None, C3=None, L_phi=None)
        v = monitor_step(b, **self.common())
        assert v.eps_recursion == "skip"
        assert v.lyapunov == "pass"  # rho- and L_phi-free


class TestLipschitzProbe:
    def test_case_study_magnitude_and_stability(self, case_study):
        sys, cert, _ = case_study
        a = lipschitz_probe(sys, cert, 5, n_trials=200, seed=0,
                            prior_scale=5.0, y_scale=2.0)
        b = lipschitz_probe(sys, cert, 5, n_trials=200, seed=1,
                            prior_scale=5.0, y_scale=2.0)
        for probe in (a, b):
            assert np.isfinite(probe.value)
            assert probe.value >= 1.0
            assert 5.32 / 10 <= probe.value <= 5.32 * 10
        assert abs(a.value - b.value) / max(a.value, b.value) < 0.5

    def test_scale_robustness(self, case_study):
        sys, cert, _ = case_study
        a = lipschitz_probe(sys, cert, 5, n_trials=150, seed=2,
                            prior_scale=5.0, y_scale=2.0,
                            prior_step_scale=0.3)
        b = lipschitz_probe(sys, cert, 5, n_trials=150, seed=2,
                            prior_scale=5.0, y_scale=2.0,
                            prior_step_scale=0.03)
        assert abs(a.max_ratio_raw - b.max_ratio_raw) \
            <= 0.2 * max(a.max_ratio_raw, b.max_ratio_raw)

    def test_degenerate_samples_all_skipped(self):
        # everything pinned to zero and sigma clamped away: no usable ratio
        sys = make_system([[0.0]], [[0.0]], [[0.0]], u_bound=0.0, w_bound=0.0)
        sys = type(sys)(A=sys.A, B=sys.B, C=sys.C,
                        x_box=Box.from_pairs([[0.0, 0.0]]),
                        u_box=Box.from_pairs([[0.0, 0.0]]),
                        y_box=Box.from_pairs([[0.0, 0.0]]),
                        w1_box=Box.from_pairs([[0.0, 0.0]]),
                        w2_box=Box.from_pairs([[0.0, 0.0]]))
        cert = simple_certificate(1, 1, P=100 * np.eye(1), eta=0.8)
        with pytest.raises(DegenerateDenominator):
            lipschitz_probe(sys, cert, 2, n_trials=20, seed=0)
