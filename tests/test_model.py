from fractions import Fraction

import numpy as np
import pytest

from conftest import (CONFIG_DIR, make_system, random_certified_setup,
                      simple_certificate)

from submhe.config import load_config
from submhe.errors import (BoxExcludesOrigin, CertificateNotFound,
                           DimensionMismatch, LmiViolated)
from submhe.linalg import clamp
from submhe.model import (Box, IossCertificate, LtiSystem,
                          disturbance_input_matrix, find_certificate,
                          lmi_matrix, measurement_noise_matrix,
                          validate_system, verify_ioss_lmi, w_delta)


def reference_lmi(A, C, P, Q, R, eta):
    """Independent assembly of the block LMI for cross-checking, in the
    arithmetic of A's dtype (float, or exact rationals as objects)."""
    n_x = A.shape[0]
    n_y = C.shape[0]
    dt = A.dtype
    bbar = np.hstack([np.eye(n_x, dtype=dt), np.zeros((n_x, n_y), dtype=dt)])
    dbar = np.hstack([np.zeros((n_y, n_x), dtype=dt), np.eye(n_y, dtype=dt)])
    top = np.hstack([A.T @ P @ A - eta * P - C.T @ R @ C,
                     A.T @ P @ bbar - C.T @ R @ dbar])
    bot = np.hstack([(A.T @ P @ bbar - C.T @ R @ dbar).T,
                     bbar.T @ P @ bbar - Q - dbar.T @ R @ dbar])
    return np.vstack([top, bot])


def exact_lmi(A, C, P, Q, R, eta):
    """The LMI of the symmetric parts of P, Q and R, in exact rationals: the
    matrix whose eigenvalues the verdict is about."""
    exact = np.vectorize(Fraction, otypes=[object])
    A, C, P, Q, R = (exact(m) for m in (A, C, P, Q, R))
    P, Q, R = ((m + m.T) / 2 for m in (P, Q, R))
    F = reference_lmi(A, C, P, Q, R, Fraction(eta))
    assert all(type(entry) is Fraction for entry in F.flat)
    return (F + F.T) / 2


def is_negative_definite(F, t):
    """F - t I < 0, decided in exact rationals: every pivot of the
    elimination of t I - F without pivoting is positive (Sylvester)."""
    G = [[(t if i == j else 0) - F[i][j] for j in range(len(F))]
         for i in range(len(F))]
    for k in range(len(G)):
        if G[k][k] <= 0:
            return False
        for i in range(k + 1, len(G)):
            ratio = G[i][k] / G[k][k]
            for j in range(k, len(G)):
                G[i][j] -= ratio * G[k][j]
    return True


class TestValidateSystem:
    def test_case_study_accepted(self, case_study):
        sys, _, _ = case_study
        assert validate_system(sys) is sys
        assert np.array_equal(sys.u_box.lower, [-1.0, -1.0])
        assert np.array_equal(sys.u_box.upper, [1.0, 1.0])

    def test_dimension_mismatch(self):
        sys = LtiSystem(A=np.eye(3), B=np.zeros((4, 1)), C=np.ones((1, 3)),
                        x_box=Box.unbounded(3), u_box=Box.unbounded(1),
                        y_box=Box.unbounded(1), w1_box=Box.unbounded(3),
                        w2_box=Box.unbounded(1))
        with pytest.raises(DimensionMismatch):
            validate_system(sys)

    def test_box_excluding_origin(self):
        sys = make_system(np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 2)))
        bad = LtiSystem(A=sys.A, B=sys.B, C=sys.C, x_box=sys.x_box,
                        u_box=Box.from_pairs([[1.0, 2.0]]), y_box=sys.y_box,
                        w1_box=sys.w1_box, w2_box=sys.w2_box)
        with pytest.raises(BoxExcludesOrigin):
            validate_system(bad)

    def test_box_dim_mismatch(self):
        sys = make_system(np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 2)))
        bad = LtiSystem(A=sys.A, B=sys.B, C=sys.C,
                        x_box=Box.unbounded(3), u_box=sys.u_box,
                        y_box=sys.y_box, w1_box=sys.w1_box, w2_box=sys.w2_box)
        with pytest.raises(DimensionMismatch):
            validate_system(bad)


class TestBoxSides:
    @pytest.mark.parametrize("side", [-np.inf, np.inf])
    def test_side_of_one_infinity_raises(self, side):
        # [-inf, -inf] and [inf, inf] hold no real number
        with pytest.raises(DimensionMismatch):
            Box(np.array([side, 0.0]), np.array([side, 1.0]))

    @pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.5, 0.5)])
    def test_open_and_pinned_sides_construct(self, lo, hi):
        box = Box(np.array([lo, 0.0]), np.array([hi, 1.0]))
        assert np.array_equal(box.project([0.5, 2.0]), [0.5, 1.0])


class TestBoxProject:
    # np.clip is the reference; the signed zeros and NaN are where a clamp
    # written as np.minimum/np.maximum can differ from it in the bytes
    VALUES = [-np.inf, -1.5, -5e-324, -0.0, 0.0, 5e-324, 2.0, np.inf, np.nan]
    BOUNDS = [-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]

    # Box.project, and linalg.clamp as the solver's loop calls it (into a
    # buffer) and as its closed-form tail does (in place)
    CLAMPS = {
        "Box.project": lambda box, v: box.project(v),
        "linalg.clamp": lambda box, v: clamp(v, box.lower, box.upper,
                                             out=np.empty_like(v)),
        "linalg.clamp_in_place": lambda box, v: clamp(v, box.lower, box.upper,
                                                      out=v),
    }

    @pytest.mark.parametrize("clamp", CLAMPS.values(), ids=CLAMPS.keys())
    def test_project_is_np_clip_bitwise(self, clamp):
        v = np.array(self.VALUES)
        # every side a Box takes: lo <= hi, and not both ends one infinity
        pairs = [(lo, hi) for lo in self.BOUNDS for hi in self.BOUNDS
                 if lo <= hi and not (lo == hi and np.isinf(lo))]
        assert (-0.0, 0.0) in pairs and (0.0, -0.0) in pairs
        for lo, hi in pairs:
            box = Box(np.full(v.size, lo), np.full(v.size, hi))
            for arg in (v, np.tile(v, (3, 1))):  # one point, and a batch
                got = clamp(box, arg.copy())
                ref = np.clip(arg, box.lower, box.upper)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (lo, hi)

    def test_project_mixed_sides(self):
        box = Box(np.array([-np.inf, -0.0, 0.0, -1.0]),
                  np.array([0.0, np.inf, 0.0, -0.0]))
        for v in ([-0.0, 0.0, -0.0, 0.0], [np.nan, -3.0, 3.0, np.inf]):
            v = np.array(v)
            assert box.project(v).tobytes() == np.clip(v, box.lower, box.upper).tobytes()


class TestBoxSample:
    """Box.sample against rng.uniform on the bounds it cuts: the same bytes,
    the same generator state after the draw, and the same errors."""

    # Fresh boxes for each test, as a box keeps its last cut bounds. Sides
    # bounded, pinned, and open on one side or both; the open box's finite
    # sides lie within +-1, where an infinite side is cut at +-scale
    BOXES = {
        "open": lambda: Box(np.array([-0.5, 0.25, -np.inf, -0.75, -np.inf]),
                            np.array([0.8, 0.25, 0.3, np.inf, np.inf])),
        "bounded": lambda: Box(np.array([-0.5, 0.25, -3.0]), np.array([0.8, 0.25, 1e3])),
        "overflowing": lambda: Box(np.array([-1e308]), np.array([1e308])),
    }

    @staticmethod
    def uniform(box, rng, size, scale):
        """The draw as rng.uniform, each infinite side cut at +-scale."""
        lo, hi = box.lower, box.upper
        if scale is not None:
            lo, hi = np.where(np.isfinite(lo), lo, -scale), np.where(np.isfinite(hi), hi, scale)
        return rng.uniform(lo, hi, size=(box.dim,) if size is None else (size, box.dim))

    @pytest.mark.parametrize("size", [None, 1, 7])
    def test_draws_are_rng_uniform_bitwise(self, size):
        # a bounded box ignores the scale; an open one is drawn at several,
        # coming back to the first
        for box, scales in ((self.BOXES["bounded"](), [None, 2.0]),
                            (self.BOXES["open"](), [1.0, 2.5, 1.0])):
            got_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            for scale in scales:
                for _ in range(5):
                    got = box.sample(got_rng, size, scale=scale)
                    ref = self.uniform(box, ref_rng, size, scale)
                    assert got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes(), (scale, size)
                    assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind, scale, error", [
        ("open", -1.0, ValueError),  # width -2 on the open coordinate
        ("open", np.inf, OverflowError),
        ("open", np.nan, OverflowError),
        ("overflowing", None, OverflowError),
    ], ids=["negative_scale", "infinite_scale", "nan_scale", "overflowing_width"])
    def test_errors_are_rng_uniforms(self, kind, scale, error):
        box = self.BOXES[kind]()
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        fresh = got_rng.bit_generator.state
        with np.errstate(over="ignore"):  # 1e308 - (-1e308)
            with pytest.raises(error) as got:
                box.sample(got_rng, 4, scale=scale)
            with pytest.raises(error) as ref:
                self.uniform(box, ref_rng, 4, scale)
        assert str(got.value) == str(ref.value)
        assert got_rng.bit_generator.state == fresh
        if kind == "open":  # a failed scale keeps nothing on the box
            got = box.sample(got_rng, 4, scale=1.0)
            assert got.tobytes() == self.uniform(box, ref_rng, 4, 1.0).tobytes()

    def test_unbounded_box_needs_a_scale(self):
        with pytest.raises(ValueError, match="cannot sample an unbounded box"):
            self.BOXES["open"]().sample(np.random.default_rng(0), 3)

    def test_finite_side_beyond_the_scale(self):
        # coordinate 0 is [5, inf) and 1 is (-inf, -3], both beyond +-1: the
        # infinite side is cut 1 past the finite one, not at +-1
        box = Box(np.array([5.0, -np.inf]), np.array([np.inf, -3.0]))
        got = box.sample(np.random.default_rng(4), 50, scale=1.0)
        ref = np.random.default_rng(4).uniform([5.0, -4.0], [6.0, -3.0], size=(50, 2))
        assert got.tobytes() == ref.tobytes()
        assert np.all((got >= [5.0, -4.0]) & (got <= [6.0, -3.0]))


class TestVerifyLmi:
    def test_zero_system_passes(self):
        # A = 0, C = 0: the block matrix is blkdiag(-eta P, P - Q, -Q22 - R)
        sys = make_system(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)))
        cert = IossCertificate(P=np.eye(2), Q=2 * np.eye(3), R=np.eye(1), eta=0.5)
        verdict = verify_ioss_lmi(sys, cert)
        assert verdict.passed
        expected = np.linalg.eigvalsh(
            reference_lmi(sys.A, sys.C, cert.P, cert.Q, cert.R, 0.5))[-1]
        assert verdict.max_eigenvalue == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.5)

    def test_found_certificate_reverifies_independently(self, case_study):
        sys, _, _ = case_study
        cert = find_certificate(sys, np.eye(5), np.eye(1), 0.8, budget=3000)
        verdict = verify_ioss_lmi(sys, cert)
        assert verdict.passed
        lam = np.linalg.eigvalsh(
            reference_lmi(sys.A, sys.C, cert.P, cert.Q, cert.R, 0.8))[-1]
        assert lam + verdict.margin <= 0.0

    def test_small_positive_eigenvalue_fails(self):
        # A = 0, C = 0, P = 1 and Q = diag(1 - 5e-9, 1): the block matrix
        # is diag(-eta P, P - Q_11, -Q_22 - R), whose largest eigenvalue is
        # +5e-9. No rounding of a matrix of norm 2 reaches that
        sys = make_system(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        cert = IossCertificate(P=np.eye(1), Q=np.diag([1.0 - 5e-9, 1.0]),
                               R=np.eye(1), eta=0.5)
        verdict = verify_ioss_lmi(sys, cert)
        assert verdict.max_eigenvalue == pytest.approx(5e-9, rel=1e-6)
        assert 0.0 < verdict.margin < 1e-12
        assert not verdict.passed
        with pytest.raises(LmiViolated) as err:
            verdict.require()
        assert f"{verdict.max_eigenvalue:.6e}" in str(err.value)

    @pytest.mark.parametrize("name", ["case_study", "case_study_certified"])
    def test_shipped_configs_pass_on_a_small_margin(self, name):
        doc = load_config(CONFIG_DIR / f"{name}.json")
        sys, cert = doc.system, doc.certificate
        verdict = verify_ioss_lmi(sys, cert)
        assert verdict.passed
        assert 0.0 < verdict.margin < 1e-12
        lam = np.linalg.eigvalsh(
            reference_lmi(sys.A, sys.C, cert.P, cert.Q, cert.R, cert.eta))[-1]
        assert lam == pytest.approx(-1.0e-6, rel=1e-6)
        assert abs(lam - verdict.max_eigenvalue) <= 2.0 * verdict.margin
        assert lam + verdict.margin <= 0.0

    def test_margin_brackets_the_exact_eigenvalue(self, case_study):
        # the exact LMI's largest eigenvalue lies within the margin of the
        # computed one, decided in rational arithmetic, on the shipped
        # certificate, on random certified systems and on the hand case
        # above
        rng = np.random.default_rng(7)
        cases = [case_study[:2]] + [random_certified_setup(rng) for _ in range(5)]
        cases.append((make_system(np.zeros((1, 1)), np.zeros((1, 1)),
                                  np.zeros((1, 1))),
                      IossCertificate(P=np.eye(1), Q=np.diag([1.0 - 5e-9, 1.0]),
                                      R=np.eye(1), eta=0.5)))
        for sys, cert in cases:
            verdict = verify_ioss_lmi(sys, cert)
            F = exact_lmi(sys.A, sys.C, cert.P, cert.Q, cert.R, cert.eta)
            lam, delta = Fraction(verdict.max_eigenvalue), Fraction(verdict.margin)
            assert is_negative_definite(F, lam + delta)
            assert not is_negative_definite(F, lam - delta)

    def test_unstable_unobserved_violation(self):
        # the LMI's state block is diag(2.25 - eta, 0.25 - eta): violated
        A = np.array([[1.5, 0.0], [0.0, 0.5]])
        sys = make_system(A, np.zeros((2, 1)), np.zeros((1, 2)))
        cert = IossCertificate(P=np.eye(2), Q=np.eye(3), R=np.eye(1), eta=0.1)
        verdict = verify_ioss_lmi(sys, cert)
        assert not verdict.passed
        expected = np.linalg.eigvalsh(
            reference_lmi(A, sys.C, cert.P, cert.Q, cert.R, 0.1))[-1]
        assert expected > 0
        assert verdict.max_eigenvalue == pytest.approx(expected, abs=1e-10)
        with pytest.raises(LmiViolated) as err:
            verdict.require()
        assert f"{verdict.max_eigenvalue:.6e}" in str(err.value)

    def test_shape_check(self, case_study):
        sys, _, _ = case_study
        cert = simple_certificate(3, 1)
        with pytest.raises(DimensionMismatch):
            verify_ioss_lmi(sys, cert)


class TestFindCertificate:
    def test_scalar_system_in_feasible_interval(self):
        sys = make_system([[0.5]], [[0.0]], [[1.0]])
        Q, R, eta = np.eye(2), np.eye(1), 0.8
        cert = find_certificate(sys, Q, R, eta, budget=500)
        assert verify_ioss_lmi(sys, cert).passed
        p = cert.P[0, 0]
        # independent oracle: scan the scalar LMI for its feasible upper edge
        grid = np.linspace(1e-4, 2.0, 4000)
        feasible = [pp for pp in grid if np.linalg.eigvalsh(
            reference_lmi(sys.A, sys.C, np.array([[pp]]), Q, R, eta))[-1] <= 0]
        assert feasible, "scalar problem should be feasible"
        p_hi = max(feasible)
        assert 0.0 < p <= p_hi + 1e-3

    def test_unobservable_unstable_not_found(self):
        A = np.array([[2.0, 0.0], [0.0, 0.1]])
        C = np.array([[0.0, 1.0]])
        sys = make_system(A, np.zeros((2, 1)), C)
        with pytest.raises(CertificateNotFound) as err:
            find_certificate(sys, np.eye(3), np.eye(1), 0.05, budget=60)
        assert err.value.best_eigenvalue > 0

    def test_zero_dynamics_identity_passes_immediately(self):
        sys = make_system([[0.0]], [[0.0]], [[1.0]])
        cert = find_certificate(sys, 2 * np.eye(2), np.eye(1), 0.999, budget=5)
        assert np.array_equal(cert.P, np.eye(1))

    def test_case_study_search(self, case_study):
        sys, shipped_cert, _ = case_study
        cert = find_certificate(sys, np.eye(5), np.eye(1), 0.8, budget=3000)
        assert verify_ioss_lmi(sys, cert).passed
        w = np.linalg.eigvalsh(cert.P)
        assert w[0] > 0
        # the shipped config embeds a P from this search path
        assert verify_ioss_lmi(sys, shipped_cert).passed


class TestWDelta:
    def test_identical_arguments(self, case_study):
        _, cert, _ = case_study
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert w_delta(cert, x, x) == 0.0

    def test_euclidean_case(self):
        cert = simple_certificate(2, 1)
        assert w_delta(cert, np.array([3.0, 4.0]), np.zeros(2)) == 25.0

    def test_weighted_case(self):
        cert = simple_certificate(2, 1, P=np.diag([2.0, 1.0]))
        assert w_delta(cert, np.array([1.0, 1.0]), np.zeros(2)) == 3.0

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3))
        cert = simple_certificate(3, 1, P=m @ m.T + 0.5 * np.eye(3))
        for _ in range(50):
            x, xp = rng.standard_normal(3), rng.standard_normal(3)
            assert w_delta(cert, x, xp) == pytest.approx(
                w_delta(cert, xp, x), rel=1e-12)
            if not np.array_equal(x, xp):
                assert w_delta(cert, x, xp) > 0

    def test_dimension_check(self):
        cert = simple_certificate(2, 1)
        for x, x_other in ((np.zeros(3), np.zeros(3)),
                           (np.zeros(2), np.zeros((1, 2))),
                           (np.zeros((5, 2)), np.zeros((4, 2))),
                           (np.zeros((5, 3)), np.zeros((5, 3))),
                           (np.float64(0.0), np.float64(0.0))):
            with pytest.raises(DimensionMismatch):
                w_delta(cert, x, x_other)

    def test_stacked_rows_are_the_row_values_bitwise(self):
        # a stack of rows gives each row the bytes of its own 1-D value, and
        # the 1-D value is the plain product d @ P @ d
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 7):
            m = rng.standard_normal((n, n))
            cert = simple_certificate(n, 1, P=m @ m.T + 0.5 * np.eye(n))
            x, x_other = rng.standard_normal((2, 60, n)) * rng.uniform(0.01, 100)
            rows = [w_delta(cert, a, b) for a, b in zip(x, x_other)]
            assert all(type(r) is float for r in rows)
            assert rows == [float((a - b) @ cert.P @ (a - b))
                            for a, b in zip(x, x_other)]
            stacked = w_delta(cert, x, x_other)
            assert stacked.shape == (60,)
            assert stacked.tobytes() == np.array(rows).tobytes()
            batched = w_delta(cert, x.reshape(3, 20, n), x_other.reshape(3, 20, n))
            assert batched.tobytes() == stacked.tobytes()


class TestDissipation:
    """LMI pass implies the one-step dissipation inequality on sampled pairs."""

    @staticmethod
    def dissipation_gap(sys, cert, rng):
        sample = lambda box, s: rng.uniform(
            np.where(np.isfinite(box.lower), box.lower, -s),
            np.where(np.isfinite(box.upper), box.upper, s))
        x, xp = sample(sys.x_box, 2.0), sample(sys.x_box, 2.0)
        u = sample(sys.u_box, 1.0)
        w1, w1p = sample(sys.w1_box, 0.1), sample(sys.w1_box, 0.1)
        w2, w2p = sample(sys.w2_box, 0.1), sample(sys.w2_box, 0.1)
        lhs = w_delta(cert, sys.step(x, u, w1), sys.step(xp, u, w1p))
        dw = np.concatenate([w1 - w1p, w2 - w2p])
        dy = sys.output(x, w2) - sys.output(xp, w2p)
        rhs = cert.eta * w_delta(cert, x, xp) + dw @ cert.Q @ dw + dy @ cert.R @ dy
        return lhs, rhs

    def test_random_certified_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            sys, cert = random_certified_setup(rng)
            assert verify_ioss_lmi(sys, cert).passed
            for _ in range(300):
                lhs, rhs = self.dissipation_gap(sys, cert, rng)
                assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_bbar_dbar_shapes():
    assert np.array_equal(disturbance_input_matrix(2, 1),
                          np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert np.array_equal(measurement_noise_matrix(2, 1),
                          np.array([[0.0, 0.0, 1.0]]))


def test_lmi_matrix_is_symmetric(case_study):
    sys, cert, _ = case_study
    F = lmi_matrix(sys, cert.P, cert.Q, cert.R, cert.eta)
    assert np.array_equal(F, F.T)


def test_certificate_validation():
    # eta = 0 weights only the newest slot, so the window Hessian is singular
    for eta in (0.0, 1.0):
        with pytest.raises(ValueError):
            IossCertificate(P=np.eye(2), Q=np.eye(3), R=np.eye(1), eta=eta)
    cert = IossCertificate(P=np.diag([1.0, -1.0]), Q=np.eye(3), R=np.eye(1),
                           eta=0.5)
    with pytest.raises(DimensionMismatch):
        cert.check_definiteness()
