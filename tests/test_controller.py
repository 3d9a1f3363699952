import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_system

from submhe import controller
from submhe.controller import (MAX_VERTICES, FeedbackLaw, assert_stabilizing,
                               closed_loop_gain, evaluate)
from submhe.errors import (BoxExcludesOrigin, DimensionMismatch,
                           StabilityAssumptionViolated)
from submhe.model import Box


def rollout(sys, law, x0, steps):
    """States of the undisturbed closed loop x+ = A x + B pi(x), from x0."""
    traj = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        traj.append(sys.step(traj[-1], evaluate(law, traj[-1]), np.zeros(sys.n_x)))
    return np.array(traj)


def vertex_norms(A, B, G):
    """(a, b): the largest ||A - B D G||_2 and ||B D G||_2 over the diagonal
    D in {0, 1}^{n_u}, each vertex built as its own matrix."""
    a = b = 0.0
    for bits in itertools.product((0.0, 1.0), repeat=B.shape[1]):
        bdg = B @ np.diag(bits) @ G
        a = max(a, np.linalg.svd(A - bdg, compute_uv=False)[0])
        b = max(b, np.linalg.svd(bdg, compute_uv=False)[0])
    return a, b


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


_SIDES = st.sampled_from(["finite", "zero", "open"])


@st.composite
def saturated_loops(draw):
    """(sys, law, rng): random A, B and G, scaled so that the vertex norm a
    is a drawn target (near 1 on some draws, past 1 on others), G = 0 on some
    draws, and a u_box around 0 whose sides are finite, at 0 or open."""
    n_x = draw(st.integers(1, 4))
    n_u = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.standard_normal((n_x, n_x))
    B = rng.standard_normal((n_x, n_u))
    G = (np.zeros((n_u, n_x)) if draw(st.integers(0, 4)) == 0
         else rng.standard_normal((n_u, n_x)))
    target = draw(st.sampled_from([1.0 - 1e-9, 1.0 - 1e-6])
                  | st.floats(0.0, 1.2))
    scale = target / vertex_norms(A, B, G)[0]  # a is linear in (A, G)
    ends = {"finite": lambda: rng.uniform(0.05, 3.0), "zero": lambda: 0.0,
            "open": lambda: np.inf}
    sides = draw(st.lists(st.tuples(_SIDES, _SIDES), min_size=n_u, max_size=n_u))
    u_box = Box(np.array([-ends[lo]() for lo, _ in sides]),
                np.array([ends[hi]() for _, hi in sides]))
    sys = make_system(scale * A, B, np.ones((1, n_x)))
    return sys, FeedbackLaw(gain=scale * G, u_box=u_box), rng


class TestClosedLoopGain:
    @settings(max_examples=300, deadline=None)
    @given(case=saturated_loops())
    def test_one_step_bound_holds_for_the_clamped_law(self, case):
        sys, law, rng = case
        a, b = vertex_norms(sys.A, sys.B, law.gain)
        if not a < 1.0 - 1e-12:
            if a >= 1.0:
                with pytest.raises(StabilityAssumptionViolated,
                                   match="a = .* >= 1"):
                    closed_loop_gain(sys, law)
            return
        gamma = closed_loop_gain(sys, law)
        assert gamma == pytest.approx(b / (1.0 - a), rel=1e-12 / (1.0 - a))
        if not law.gain.any():
            assert gamma == 0.0
        norm = np.linalg.norm
        for scale in 10.0 ** rng.uniform(-3, 3, size=(30, 3)):
            x, e, w1 = (s * rng.standard_normal(sys.n_x) for s in scale)
            u = evaluate(law, x + e)
            lhs = norm(sys.step(x, u, w1))
            rhs = a * norm(x) + b * norm(e) + norm(w1)
            rounding = 1e-12 * (rhs + norm(sys.A, 2) * norm(x)
                                + norm(sys.B, 2) * norm(u) + norm(w1))
            assert lhs <= rhs + rounding

    def test_maximum_at_a_mixed_vertex(self):
        # A - B D G is 0.5, 0.8, 0.2, 0.5 at D = 0, (1, 0), (0, 1), I and
        # B D G is 0, -0.3, 0.3, 0: a = 0.8 and b = 0.3 lie off {0, I}
        sys = make_system([[0.5]], [[1.0, 1.0]], [[1.0]])
        law = FeedbackLaw(gain=np.array([[-0.3], [0.3]]),
                          u_box=Box.from_pairs([[-1.0, 1.0], [0.0, 1.0]]))
        assert closed_loop_gain(sys, law) == pytest.approx(0.3 / 0.2, rel=1e-12)
        # the clamp picks D = (1, 0) and attains both: x+ = a x, then b e
        assert sys.step(np.ones(1), evaluate(law, np.ones(1)),
                        np.zeros(1)) == pytest.approx(0.8, rel=1e-15)
        assert sys.step(np.zeros(1), evaluate(law, np.ones(1)),
                        np.zeros(1)) == pytest.approx(0.3, rel=1e-15)

    def test_vertex_count_is_capped(self):
        assert MAX_VERTICES == 2 ** 12
        at_cap = make_system(0.5 * np.eye(2), np.ones((2, 12)), [[1.0, 0.0]])
        law = FeedbackLaw(gain=np.zeros((12, 2)), u_box=at_cap.u_box)
        assert closed_loop_gain(at_cap, law) == 0.0
        past = make_system(0.5 * np.eye(2), np.ones((2, 13)), [[1.0, 0.0]])
        law = FeedbackLaw(gain=np.zeros((13, 2)), u_box=past.u_box)
        with pytest.raises(StabilityAssumptionViolated, match="not attempted"):
            closed_loop_gain(past, law)

    def test_box_must_hold_the_origin(self):
        sys = make_system([[0.5]], [[1.0]], [[1.0]])
        law = FeedbackLaw(gain=np.array([[0.1]]),
                          u_box=Box.from_pairs([[0.5, 1.0]]))
        with pytest.raises(BoxExcludesOrigin):
            closed_loop_gain(sys, law)

    def test_traced_name_is_the_same_function(self):
        assert controller.estimate_closed_loop_gain is closed_loop_gain


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
        # by `rollout` from the draws of the documented rng order
        c, s_ = np.cos(0.3), np.sin(0.3)
        sys = make_system(0.97 * np.array([[c, -s_], [s_, c]]),
                          [[1.0], [0.5]], [[1.0, 0.0]], u_bound=0.02)
        law = FeedbackLaw(gain=np.array([[0.3, -0.1]]), u_box=sys.u_box)
        rng = np.random.default_rng(6)
        finals = []
        for _ in range(10):
            d = rng.standard_normal(2)
            d *= 2.0 * rng.uniform(0, 1) ** 0.5 / max(np.linalg.norm(d), 1e-12)
            traj = rollout(sys, law, d, 60)
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
