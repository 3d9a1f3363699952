import numpy as np
import pytest

from conftest import make_system, random_certified_setup, simple_certificate

from submhe.errors import (BoxExcludesOrigin, CertificateNotFound,
                           DimensionMismatch)
from submhe.model import (Box, IossCertificate, LtiSystem,
                          disturbance_input_matrix, find_certificate,
                          lmi_matrix, measurement_noise_matrix,
                          validate_system, verify_ioss_lmi, w_delta)


def reference_lmi(A, C, P, Q, R, eta):
    """Independent assembly of the block LMI for cross-checking."""
    n_x = A.shape[0]
    n_y = C.shape[0]
    bbar = np.hstack([np.eye(n_x), np.zeros((n_x, n_y))])
    dbar = np.hstack([np.zeros((n_y, n_x)), np.eye(n_y)])
    top = np.hstack([A.T @ P @ A - eta * P - C.T @ R @ C,
                     A.T @ P @ bbar - C.T @ R @ dbar])
    bot = np.hstack([(A.T @ P @ bbar - C.T @ R @ dbar).T,
                     bbar.T @ P @ bbar - Q - dbar.T @ R @ dbar])
    return np.vstack([top, bot])


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
        assert verify_ioss_lmi(sys, cert).passed
        lam = np.linalg.eigvalsh(
            reference_lmi(sys.A, sys.C, cert.P, cert.Q, cert.R, 0.8))[-1]
        assert lam <= cert.tol

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
        assert "violation" in verdict.report

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
        with pytest.raises(DimensionMismatch):
            w_delta(cert, np.zeros(3), np.zeros(3))


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
