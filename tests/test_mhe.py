import ast
import dataclasses

import numpy as np
import pytest

from conftest import (SRC_DIR, make_system, random_certified_setup, random_problem,
                      simple_certificate)

from submhe.errors import DimensionMismatch, WindowLengthMismatch
from submhe.mhe import (MheProblem, WindowShapes, build_problem,
                        compute_weight, extract_estimate, residual_sigma_parts,
                        sigma_lift, sigma_truncate)
from submhe.model import Box, IossCertificate, LtiSystem, w_delta
from submhe.solver import SolveReport, solve_fixed_iters, solve_oracle


def reference_window_cost(sys, cert, prob, z):
    """Window cost from the reconstructed trajectory, written independently:
    prior term 2 eta^Mt ||x0 - prior||_P^2 plus per-lag terms
    eta^{i-1} (2 ||w_{t-i}||_Q^2 + ||yhat_{t-i} - y_{t-i}||_R^2)."""
    m = prob.m_eff
    eta = cert.eta
    n_x, n_w, n_y = sys.n_x, sys.n_w, sys.n_y
    x = z[:n_x].copy()
    total = 2.0 * eta ** m * float((x - prob.x_prior) @ cert.P @ (x - prob.x_prior))
    for j in range(m):
        off = n_x + j * (n_w + n_y)
        w = z[off:off + n_w]
        yhat = z[off + n_w:off + n_w + n_y]
        lag = m - j  # slot j holds time t - lag
        dy = yhat - prob.y_window[j]
        total += eta ** (lag - 1) * (2.0 * float(w @ cert.Q @ w)
                                     + float(dy @ cert.R @ dy))
    return total


class TestComputeWeight:
    def test_empty_window_prior_only(self):
        cert = simple_certificate(2, 1)
        assert np.array_equal(compute_weight(0, cert), 2.0 * np.eye(2))

    def test_single_slot_hand_value(self):
        cert = IossCertificate(P=np.eye(1), Q=np.eye(2), R=np.eye(1), eta=0.8)
        h = compute_weight(1, cert)
        assert np.allclose(h, np.diag([1.6, 2.0, 2.0, 1.0]), atol=1e-15)

    def test_top_eigenvalue_matches_dense_solver(self, case_study):
        _, cert, _ = case_study
        h = compute_weight(5, cert)
        eta = cert.eta
        blocks = [2 * eta ** 5 * np.linalg.eigvalsh(cert.P)[-1]]
        for j in range(5):
            e = 5 - 1 - j
            blocks.append(2 * eta ** e * np.linalg.eigvalsh(cert.Q)[-1])
            blocks.append(eta ** e * np.linalg.eigvalsh(cert.R)[-1])
        assert np.linalg.eigvalsh(h)[-1] == pytest.approx(max(blocks), rel=1e-12)

    def test_block_layout(self):
        cert = IossCertificate(P=2 * np.eye(2), Q=3 * np.eye(3), R=4 * np.eye(1),
                               eta=0.5)
        h = compute_weight(2, cert)
        assert h.shape == (2 + 2 * 4, 2 + 2 * 4)
        assert np.allclose(np.diag(h), [2 * 0.25 * 2] * 2
                           + [2 * 0.5 * 3] * 3 + [0.5 * 4]
                           + [2 * 3] * 3 + [4])


class TestBuildProblem:
    def test_prior_only_step(self, case_study):
        # at t = 0 a list and a (0, n) array are the same empty window
        sys, cert, _ = case_study
        prior = np.array([1.0, -2.0, 3.0, 0.5])
        for u_window, y_window in (([], []), (np.zeros((0, sys.n_u)),
                                               np.zeros((0, sys.n_y)))):
            prob = build_problem(sys, cert, prior, u_window, y_window, 5, 0)
            assert prob.u_window.shape == (0, sys.n_u)
            assert prob.y_window.shape == (0, sys.n_y)
            assert prob.dim_z == sys.n_x and prob.dim_v == sys.n_x
            assert np.allclose(solve_oracle(prob).v, prior, atol=1e-10)

    def test_output_block_forced_by_measurement_equation(self):
        sys = make_system([[1.0]], [[0.0]], [[1.0]], w_bound=0.0)
        cert = simple_certificate(1, 1, eta=0.5)
        prob = build_problem(sys, cert, [0.7], np.zeros((1, 1)),
                             np.zeros((1, 1)), 5, 1)
        v = np.array([0.7, 0.0, 0.0])  # x0, then w pinned to {0}
        z = prob.lift(v)
        assert z[3] == pytest.approx(0.7)  # yhat = c * x0 + w2 = x0

    def test_window_length_mismatch(self, case_study):
        sys, cert, _ = case_study
        with pytest.raises(WindowLengthMismatch):
            build_problem(sys, cert, np.zeros(4), np.zeros((2, 2)),
                          np.zeros((3, 1)), 5, 3)

    def test_prior_of_wrong_shape(self, case_study):
        sys, cert, _ = case_study
        with pytest.raises(DimensionMismatch):
            build_problem(sys, cert, np.zeros(3), np.zeros((3, 2)),
                          np.zeros((3, 1)), 5, 3)

    def test_shapes_of_another_run(self, case_study):
        sys, cert, _ = case_study
        other_sys = LtiSystem(A=sys.A, B=sys.B, C=sys.C, x_box=sys.x_box,
                              u_box=sys.u_box, y_box=sys.y_box,
                              w1_box=sys.w1_box, w2_box=sys.w2_box)
        other_cert = IossCertificate(P=cert.P, Q=cert.Q, R=cert.R, eta=cert.eta)
        windows = (np.zeros(4), np.zeros((3, 2)), np.zeros((3, 1)), 5, 3)
        build_problem(sys, cert, *windows, shapes=WindowShapes(sys, cert, 5))
        for shapes in (WindowShapes(other_sys, cert, 5),
                       WindowShapes(sys, other_cert, 5),
                       WindowShapes(sys, cert, 4)):
            with pytest.raises(ValueError, match="another"):
                build_problem(sys, cert, *windows, shapes=shapes)

    def test_record_arrays_are_read_only(self, case_study):
        sys, cert, _ = case_study
        prob = build_problem(sys, cert, np.zeros(4), np.zeros((3, 2)),
                             np.zeros((3, 1)), 5, 3)
        for arr in (prob.reference, prob.lift_offset, prob.linear_term):
            assert not arr.flags.writeable

    def test_condensing_soundness(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            sys, cert = random_certified_setup(rng)
            prob = random_problem(rng, sys, cert)
            n_x, n_w, n_y = sys.n_x, sys.n_w, sys.n_y
            for _ in range(20):
                v = np.clip(rng.uniform(-1, 1, size=prob.dim_v),
                            prob.lower, prob.upper)
                z = prob.lift(v)
                states = extract_estimate(prob, z)
                for j in range(prob.m_eff):
                    off = n_x + j * (n_w + n_y)
                    w_blk = z[off:off + n_w]
                    y_blk = z[off + n_w:off + n_w + n_y]
                    dyn = states[j + 1] - (sys.A @ states[j]
                                           + sys.B @ prob.u_window[j]
                                           + w_blk[:n_x])
                    out = y_blk - (sys.C @ states[j] + w_blk[n_x:])
                    assert np.max(np.abs(dyn)) <= 1e-12
                    assert np.max(np.abs(out)) <= 1e-12

    def test_cost_equivalence(self):
        rng = np.random.default_rng(22)
        sys, cert = random_certified_setup(rng)
        prob = random_problem(rng, sys, cert, M=4, t=6)
        for _ in range(100):
            v = np.clip(rng.uniform(-2, 2, size=prob.dim_v),
                        prob.lower, prob.upper)
            z = prob.lift(v)
            direct = reference_window_cost(sys, cert, prob, z)
            condensed = prob.cost(z)
            assert condensed == pytest.approx(direct, rel=1e-10)

    def test_strong_convexity_all_shapes(self, case_study):
        sys, cert, _ = case_study
        for t in range(6):
            m_eff = min(5, t)
            prob = build_problem(sys, cert, np.zeros(4),
                                 np.zeros((m_eff, 2)), np.zeros((m_eff, 1)), 5, t)
            assert np.linalg.eigvalsh(prob.shape.hessian)[0] > 0

    def test_ground_truth_feasible_and_upper_bounds_optimum(self):
        rng = np.random.default_rng(23)
        sys, cert = random_certified_setup(rng)
        M, T = 3, 5
        x = rng.uniform(-1, 1, size=sys.n_x)
        xs, ys, us, w1s, w2s = [x.copy()], [], [], [], []
        for t in range(T):
            u = rng.uniform(sys.u_box.lower, sys.u_box.upper)
            w1 = rng.uniform(sys.w1_box.lower, sys.w1_box.upper)
            w2 = rng.uniform(sys.w2_box.lower, sys.w2_box.upper)
            ys.append(sys.output(x, w2))
            us.append(u)
            w1s.append(w1)
            w2s.append(w2)
            x = sys.step(x, u, w1)
            xs.append(x.copy())
        t = T
        m_eff = min(M, t)
        prob = build_problem(sys, cert, xs[t - m_eff], us[t - m_eff:],
                             ys[t - m_eff:], M, t)
        v_truth = np.concatenate(
            [xs[t - m_eff]] + [np.concatenate([w1s[s], w2s[s]])
                               for s in range(t - m_eff, t)])
        assert np.all(v_truth >= prob.lower - 1e-12)
        assert np.all(v_truth <= prob.upper + 1e-12)
        v_star = solve_oracle(prob).v
        assert prob.cost(prob.lift(v_truth)) >= prob.cost(prob.lift(v_star)) - 1e-10


class TestWindowShapes:
    def test_reused_shape_matches_fresh_build(self, case_study):
        sys, cert, _ = case_study
        M = 5
        shapes = WindowShapes(sys, cert, M)
        rng = np.random.default_rng(24)

        def windows(t):
            m_eff = min(M, t)
            return (rng.uniform(-1, 1, sys.n_x), rng.uniform(-1, 1, (m_eff, sys.n_u)),
                    rng.uniform(-1, 1, (m_eff, sys.n_y)), M, t)

        steps = list(range(M + 1)) + [M + 3]
        for t in steps:  # first use builds each shape from other window contents
            build_problem(sys, cert, *windows(t), shapes=shapes)
        for t in steps:
            args = windows(t)
            reused = build_problem(sys, cert, *args, shapes=shapes)
            fresh = build_problem(sys, cert, *args)
            assert reused.shape is shapes[min(M, t)]
            for name in ("lift_matrix", "weight", "lower", "upper", "lift_offset",
                         "reference", "linear_term"):
                assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
            for name in ("hessian", "state_map"):
                assert np.array_equal(getattr(reused.shape, name),
                                      getattr(fresh.shape, name)), name

    def test_foreign_shapes_rejected(self, case_study):
        sys, cert, _ = case_study
        shapes = WindowShapes(sys, cert, 5)
        with pytest.raises(ValueError):
            build_problem(sys, cert, np.zeros(4), np.zeros((3, 2)),
                          np.zeros((3, 1)), 4, 3, shapes=shapes)
        with pytest.raises(IndexError):
            shapes[6]


def shapes_2_1(M=3):
    """WindowShapes of a plant with n_x = 2, n_y = 1: slots of width 4."""
    sys = make_system(np.eye(2), np.zeros((2, 1)), np.ones((1, 2)))
    return WindowShapes(sys, simple_certificate(2, 1), M)


class TestSigmaLift:
    def test_identity_after_growing_phase(self):
        # M = 3 and t - 1 = 3 >= M: dim = 2 + 3 * 4 on both steps
        z = np.arange(2 + 3 * 4, dtype=float)
        out = sigma_lift(z, 4, shapes_2_1())
        assert np.array_equal(out, z)

    def test_growing_phase_pads_one_slot(self):
        z = np.array([1.0, 2.0])
        out = sigma_lift(z, 1, shapes_2_1())
        assert np.array_equal(out, [1.0, 2.0, 0.0, 0.0, 0.0, 0.0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        shapes = shapes_2_1()
        for t in range(1, 4):
            z = rng.standard_normal(2 + (t - 1) * 4)
            out = sigma_lift(z, t, shapes)
            assert np.linalg.norm(out) == np.linalg.norm(z)
            assert out.shape[0] == 2 + t * 4

    def test_dim_check(self):
        shapes = shapes_2_1()
        with pytest.raises(DimensionMismatch):
            sigma_lift(np.zeros(3), 1, shapes)
        with pytest.raises(DimensionMismatch):
            sigma_truncate(np.zeros(3), 1, shapes)

    def test_truncate_is_adjoint(self):
        rng = np.random.default_rng(10)
        shapes = shapes_2_1()
        for t in [1, 2, 3, 4, 5]:
            a = rng.standard_normal(2 + min(3, t - 1) * 4)
            b = rng.standard_normal(2 + min(3, t) * 4)
            lifted = sigma_lift(a, t, shapes)
            truncated = sigma_truncate(b, t, shapes)
            assert np.dot(lifted, b) == pytest.approx(np.dot(a, truncated))


def forward_states(prob, z):
    """The window states by forward simulation from z's initial state and
    disturbances, x_{j+1} = A x_j + B u_j + w1_j: the reference for the
    window-state map."""
    sys = prob.sys
    slots = prob.window_slots(z)
    states = np.zeros((prob.m_eff + 1, sys.n_x))
    states[0] = z[:sys.n_x]
    for j in range(prob.m_eff):
        states[j + 1] = (sys.A @ states[j] + sys.B @ prob.u_window[j]
                         + slots[j, :sys.n_x])
    return states


def assert_matches_forward_states(prob, z):
    ref = forward_states(prob, z)
    got = extract_estimate(prob, z)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


class TestExtractEstimate:
    def test_matches_forward_simulation(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            sys, cert = random_certified_setup(rng)
            M = int(rng.integers(1, 6))
            for t in range(M + 1):  # every window length 0..M
                prob = random_problem(rng, sys, cert, M=M, t=t)
                v = rng.uniform(-2, 2, size=prob.dim_v)
                assert_matches_forward_states(prob, prob.lift(v))

    @pytest.mark.parametrize("plant", [
        (np.eye(2), np.zeros((2, 1)), np.ones((1, 2))),
        ([[2.0]], [[0.0]], [[1.0]]),
        ([[2.0]], [[1.0]], [[1.0]]),
    ], ids=["identity", "doubling", "doubling_with_input"])
    def test_hand_plants_match_forward_simulation(self, plant):
        sys = make_system(*plant)
        cert = simple_certificate(sys.n_x, sys.n_y, eta=0.9)
        rng = np.random.default_rng(26)
        for t in range(6):  # every window length 0..M, M = 5
            prob = build_problem(sys, cert, np.zeros(sys.n_x),
                                 rng.uniform(-1, 1, (t, sys.n_u)),
                                 rng.uniform(-1, 1, (t, sys.n_y)), 5, t)
            v = rng.uniform(-2, 2, size=prob.dim_v)
            assert_matches_forward_states(prob, prob.lift(v))

    def test_input_enters_through_state_map(self):
        sys = make_system([[2.0]], [[1.0]], [[1.0]])
        cert = simple_certificate(1, 1, eta=0.9)
        prob = build_problem(sys, cert, [1.0], np.ones((2, 1)),
                             np.zeros((2, 1)), 5, 2)
        v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        states = extract_estimate(prob, prob.lift(v))
        assert np.array_equal(states.ravel(), [1.0, 3.0, 7.0])

    def test_constant_under_identity_dynamics(self):
        sys = make_system(np.eye(2), np.zeros((2, 1)), np.ones((1, 2)))
        cert = simple_certificate(2, 1, eta=0.9)
        prob = build_problem(sys, cert, np.zeros(2), np.zeros((2, 1)),
                             np.zeros((2, 1)), 5, 2)
        v = np.concatenate([[1.5, -0.5], np.zeros(6)])
        states = extract_estimate(prob, prob.lift(v))
        assert np.allclose(states, [[1.5, -0.5]] * 3)

    def test_scalar_doubling(self):
        sys = make_system([[2.0]], [[0.0]], [[1.0]])
        cert = simple_certificate(1, 1, eta=0.9)
        prob = build_problem(sys, cert, [1.0], np.zeros((2, 1)),
                             np.zeros((2, 1)), 5, 2)
        v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        states = extract_estimate(prob, prob.lift(v))
        assert np.allclose(states.ravel(), [1.0, 2.0, 4.0])

    def test_solver_point_reads_its_free_coordinates(self):
        # a solve's v gives the states directly; they equal those read off
        # its z, bit for bit
        rng = np.random.default_rng(27)
        for _ in range(5):
            sys, cert = random_certified_setup(rng)
            M = int(rng.integers(1, 6))
            for t in range(M + 2):
                prob = random_problem(rng, sys, cert, M=M, t=t)
                rep = solve_fixed_iters(prob, np.zeros(prob.dim_z), 20)
                assert np.array_equal(extract_estimate(prob, rep.v),
                                      extract_estimate(prob, rep.z))

    def test_dim_check(self, case_study):
        sys, cert, _ = case_study
        prob = build_problem(sys, cert, np.zeros(4), [], [], 5, 0)
        with pytest.raises(DimensionMismatch):
            extract_estimate(prob, np.zeros(prob.dim_z + 1))

    @pytest.mark.parametrize("source", ["case_study_doc", "certified_doc"])
    def test_estimate_map_gives_the_last_window_state(self, request, source):
        # the loop forms only the current estimate, through the last n_x
        # rows of the state map; they give the bytes of the last of all
        # m_eff + 1 window states, at every window length
        doc = request.getfixturevalue(source)
        M = doc.mhe["M"]
        rng = np.random.default_rng(31)
        for m in range(M + 1):
            for _ in range(100):
                prob = random_problem(rng, doc.system, doc.certificate, M=M, t=m)
                shape = prob.shape
                assert np.shares_memory(shape.estimate_map, shape.state_map)
                assert shape.estimate_map.flags.c_contiguous
                v = rng.uniform(-5.0, 5.0, size=prob.dim_v)
                xhat = shape.estimate_map @ np.concatenate([v, prob.u_window.ravel()])
                assert xhat.tobytes() == extract_estimate(prob, v)[-1].tobytes()


class TestResidualSigma:
    def test_zero_after_growing_phase(self, case_study):
        sys, cert, _ = case_study
        assert residual_sigma_parts(6, WindowShapes(sys, cert, 5),
                                    cert.eta) == (0.0, 0.0)

    def test_eta_one_limit(self, case_study):
        sys, cert, _ = case_study
        expected = (np.linalg.norm(sys.A, 2) + np.linalg.norm(sys.B, 2)
                    + np.linalg.norm(sys.C, 2) + 2.0)
        _, clamped = residual_sigma_parts(3, WindowShapes(sys, cert, 5), 1.0)
        assert clamped == pytest.approx(expected, rel=1e-12)

    def test_case_study_value_finite_and_clamp_flagged(self, case_study):
        sys, cert, _ = case_study
        h = compute_weight(3, cert)
        raw, clamped = residual_sigma_parts(3, WindowShapes(sys, cert, 5),
                                            cert.eta)
        assert np.isfinite(raw)
        assert clamped == max(raw, 0.0)
        # negative-coefficient structure: raw = clamped only when raw >= 0
        norm_h = np.linalg.norm(h, 2)
        expected_raw = ((1.0 - 1.0 / cert.eta) * norm_h
                        + np.linalg.norm(sys.A, 2) + np.linalg.norm(sys.B, 2)
                        + np.linalg.norm(sys.C, 2) + 2.0)
        assert raw == pytest.approx(expected_raw, rel=1e-10)

    def test_clamp_when_weight_dominates(self):
        sys = make_system([[0.1]], [[0.1]], [[0.1]])
        cert = simple_certificate(1, 1, P=100 * np.eye(1), eta=0.8)
        raw, clamped = residual_sigma_parts(1, WindowShapes(sys, cert, 5), 0.8)
        assert raw < 0.0
        assert clamped == 0.0


def test_free_coordinates_by_length(case_study):
    # a start of length dim_v is v itself, one of length dim_z is read
    # through select_v (the same vector at m_eff = 0), and any other length
    # raises, naming both
    sys, cert, _ = case_study
    rng = np.random.default_rng(3)
    for t in (0, 2, 7):
        prob = random_problem(rng, sys, cert, M=5, t=t)
        v = rng.uniform(-1.0, 1.0, prob.dim_v)
        assert prob.free_coordinates(v) is v
        assert prob.free_coordinates(prob.lift(v)).tobytes() == v.tobytes()
        for n in (prob.dim_v - 1, prob.dim_z + 1):
            with pytest.raises(DimensionMismatch, match=rf"\({prob.dim_v},\) \(v\) "
                                                        rf"or \({prob.dim_z},\) \(z\)"):
                prob.free_coordinates(np.zeros(n))


def test_no_code_reassigns_a_record_field():
    # The per-step records are plain slotted dataclasses, not frozen ones;
    # outside their own __post_init__ (an assignment to self) nothing in the
    # package assigns to one of their fields.
    records = (MheProblem, SolveReport)
    names = {f.name for rec in records for f in dataclasses.fields(rec)}
    found = []
    for path in sorted(SRC_DIR.glob("submhe/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and not isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found
