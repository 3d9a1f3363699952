import numpy as np
import pytest

from conftest import make_system

from submhe.controller import (FeedbackLaw, assert_stabilizing,
                               estimate_closed_loop_gain, evaluate,
                               simulate_with_error)
from submhe.errors import (DimensionMismatch, DivergentTrajectory,
                           StabilityAssumptionViolated)
from submhe.model import Box


@pytest.fixture
def scalar_law():
    return FeedbackLaw(gain=np.array([[1.0]]),
                       u_box=Box.from_pairs([[-1.0, 1.0]]))


class TestEvaluate:
    def test_origin_maps_to_origin(self, case_study):
        _, _, law = case_study
        assert np.array_equal(evaluate(law, np.zeros(4)), np.zeros(2))

    def test_saturation(self, scalar_law):
        assert evaluate(scalar_law, np.array([5.0]))[0] == -1.0

    def test_linear_region_exact(self, case_study):
        _, _, law = case_study
        x = np.array([0.01, -0.02, 0.005, 0.0])
        assert np.array_equal(evaluate(law, x), -law.gain @ x)

    def test_always_in_box(self, case_study):
        _, _, law = case_study
        rng = np.random.default_rng(0)
        xs = rng.uniform(-50, 50, size=(100_000, 4))
        us = np.clip(-(xs @ law.gain.T), law.u_box.lower, law.u_box.upper)
        assert np.all(us >= law.u_box.lower) and np.all(us <= law.u_box.upper)
        for x in xs[:2000]:
            u = evaluate(law, x)
            assert law.u_box.contains(u)
            assert np.array_equal(u, np.clip(-law.gain @ x, law.u_box.lower,
                                             law.u_box.upper))

    def test_dim_check(self, scalar_law):
        with pytest.raises(DimensionMismatch):
            evaluate(scalar_law, np.zeros(2))


class TestClosedLoopGain:
    def test_zero_injection_zero_contribution(self, case_study):
        sys, _, law = case_study
        est = estimate_closed_loop_gain(sys, law, horizon=80,
                                        e_magnitudes=(0.0,), seed=0)
        assert est.slope == 0.0
        assert est.per_magnitude[0][1] == 0.0

    def test_heuristic_flag_and_linearity(self, case_study):
        sys, _, law = case_study
        est = estimate_closed_loop_gain(sys, law, horizon=100,
                                        e_magnitudes=(0.1, 0.2), seed=0)
        assert est.heuristic
        assert est.slope > 0
        for mag, tail in est.per_magnitude:
            assert tail <= est.slope * mag + 1e-12  # linear upper envelope

    def test_divergent_trajectory(self):
        # positive feedback (u = +xhat) on an unstable plant
        sys = make_system(1.2 * np.eye(2), np.eye(2), np.ones((1, 2)))
        law = FeedbackLaw(gain=-np.eye(2), u_box=sys.u_box)
        with pytest.raises(DivergentTrajectory):
            estimate_closed_loop_gain(sys, law, horizon=300,
                                      e_magnitudes=(1.0,), seed=0)


class TestStabilitySmoke:
    def test_case_study_passes(self, case_study):
        sys, _, law = case_study
        assert assert_stabilizing(sys, law, radius=1.0, horizon=300,
                                  n_samples=10, seed=0)

    def test_slow_decay_rejected(self):
        # marginally stable plant, no control authority: never reaches 1e-6
        sys = make_system(0.999 * np.eye(1), [[0.0]], [[1.0]])
        law = FeedbackLaw(gain=np.zeros((1, 1)), u_box=sys.u_box)
        with pytest.raises(StabilityAssumptionViolated):
            assert_stabilizing(sys, law, radius=1.0, horizon=50, n_samples=3,
                               seed=0)

    def test_divergence_becomes_stability_error(self):
        sys = make_system(1.5 * np.eye(1), [[0.0]], [[1.0]])
        law = FeedbackLaw(gain=np.zeros((1, 1)), u_box=sys.u_box)
        with pytest.raises(StabilityAssumptionViolated, match="sample 0:"):
            assert_stabilizing(sys, law, radius=1.0, horizon=400, n_samples=3,
                               seed=0)

    def test_names_the_first_sample_the_loop_reference_fails(self):
        # a rotating, saturated plant; each sample's final state is rolled
        # by simulate_with_error from the draws of the documented rng order
        c, s_ = np.cos(0.3), np.sin(0.3)
        sys = make_system(0.97 * np.array([[c, -s_], [s_, c]]),
                          [[1.0], [0.5]], [[1.0, 0.0]], u_bound=0.02)
        law = FeedbackLaw(gain=np.array([[0.3, -0.1]]), u_box=sys.u_box)
        rng = np.random.default_rng(6)
        finals = []
        for _ in range(10):
            d = rng.standard_normal(2)
            d *= 2.0 * rng.uniform(0, 1) ** 0.5 / max(np.linalg.norm(d), 1e-12)
            traj = simulate_with_error(sys, law, d, np.zeros((60, 2)))
            finals.append(float(np.linalg.norm(traj[-1])))
        threshold = float(np.median(finals))
        first = next(i for i, f in enumerate(finals) if f > threshold)
        assert first > 0 and min(abs(f - threshold) for f in finals) > 1e-9
        with pytest.raises(StabilityAssumptionViolated,
                           match=f"sample {first} only decayed"):
            assert_stabilizing(sys, law, radius=2.0, horizon=60, n_samples=10,
                               seed=6, threshold=threshold)
        assert assert_stabilizing(sys, law, radius=2.0, horizon=60,
                                  n_samples=10, seed=6,
                                  threshold=max(finals) * (1 + 1e-9))


def test_simulate_with_error_tracks_dynamics(case_study):
    sys, _, law = case_study
    errors = np.zeros((5, 4))
    traj = simulate_with_error(sys, law, np.array([1.0, 0.0, -1.0, 0.5]), errors)
    x = np.array([1.0, 0.0, -1.0, 0.5])
    for t in range(5):
        x = sys.step(x, evaluate(law, x), np.zeros(4))
        assert np.allclose(traj[t + 1], x)
