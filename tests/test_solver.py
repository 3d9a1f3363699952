import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (certified_pgd, count_calls, make_system,
                      random_certified_setup, random_problem, simple_certificate)

from submhe.errors import (DegenerateHessian, DimensionMismatch, NonfiniteIterate,
                           OracleStalled)
from submhe.harness import run_closed_loop
from submhe.mhe import (MheProblem, WindowShape, build_problem,
                        step_spectrum)
from submhe.model import Box, IossCertificate, LtiSystem
import submhe.solver as solver
from submhe.solver import (_iterate, optimum_tolerance, solve_fixed_iters,
                           solve_oracle)


def plain_problem(weight, reference, lower=None, upper=None):
    """Problem with an identity lift, for exercising the solver in isolation."""
    weight = np.asarray(weight, dtype=float)
    n = weight.shape[0]
    sys = make_system(np.zeros((n, n)), np.zeros((n, 1)), np.zeros((1, n)))
    shape = WindowShape(
        m_eff=0, lift_matrix=np.eye(n), weight=weight,
        lower=np.full(n, -np.inf) if lower is None else np.asarray(lower, float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, float),
        input_map=np.zeros((n, 0)), state_map=np.eye(n))
    return MheProblem(
        sys=sys, t=0, shape=shape,
        reference=np.asarray(reference, dtype=float), lift_offset=np.zeros(n),
        x_prior=np.asarray(reference, dtype=float),
        u_window=np.zeros((0, 1)), y_window=np.zeros((0, 1)))


def with_box(prob, lower, upper):
    """prob with its free-variable box replaced."""
    shape = WindowShape(m_eff=prob.m_eff, lift_matrix=prob.lift_matrix,
                        weight=prob.weight, lower=lower, upper=upper,
                        input_map=prob.shape.input_map,
                        state_map=prob.shape.state_map)
    return MheProblem(sys=prob.sys, t=prob.t, shape=shape,
                      reference=prob.reference,
                      lift_offset=prob.lift_offset, x_prior=prob.x_prior,
                      u_window=prob.u_window, y_window=prob.y_window)


class TestProjectBox:
    """Box.project: the interval clamp of the controller and Lipschitz probe."""

    def test_identity_inside(self):
        v = np.array([0.05, -0.02])
        out = Box(np.array([-0.1, -0.1]), np.array([0.1, 0.1])).project(v)
        assert np.array_equal(out, v)

    def test_clamps(self):
        assert Box(np.array([-0.1]), np.array([0.1])).project(
            np.array([0.3]))[0] == 0.1

    def test_unbounded_sides(self):
        v = np.array([1e12, -1e12])
        out = Box.unbounded(2).project(v)
        assert np.array_equal(out, v)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        box = Box(-rng.random(5), rng.random(5))
        v = rng.standard_normal(5) * 3
        once = box.project(v)
        assert np.array_equal(box.project(once), once)


class TestContractionRate:
    def test_identity_weight_one_step(self):
        prob = plain_problem(np.eye(3), np.zeros(3))
        alpha, q = prob.shape.step, prob.shape.contraction_base
        assert alpha == pytest.approx(0.5)
        assert q == pytest.approx(0.0, abs=1e-15)

    def test_hand_conditioned(self):
        prob = plain_problem(np.diag([0.5, 2.0]), np.zeros(2))
        alpha, q = prob.shape.step, prob.shape.contraction_base
        assert alpha == pytest.approx(0.4)
        assert q == pytest.approx(0.6)

    def test_case_study_base_below_paper_rate(self, case_study):
        sys, cert, _ = case_study
        worst = 0.0
        for t in range(6):
            m_eff = min(5, t)
            prob = build_problem(sys, cert, np.zeros(4), np.zeros((m_eff, 2)),
                                 np.zeros((m_eff, 1)), 5, t)
            worst = max(worst, prob.shape.contraction_base)
        assert worst <= 0.98

    def test_degenerate_weight_raises(self):
        prob = plain_problem(np.diag([1.0, 0.0]), np.zeros(2))
        with pytest.raises(DegenerateHessian):
            prob.shape.contraction_base


class TestSolveFixedIters:
    def test_optimum_is_fixed_point(self):
        rng = np.random.default_rng(1)
        sys, cert = random_certified_setup(rng)
        prob = random_problem(rng, sys, cert)
        v_star = solve_oracle(prob).v
        rep = solve_fixed_iters(prob, v_star, 25)
        assert np.linalg.norm(rep.z - prob.lift(v_star)) <= 1e-12

    def test_zero_iterations_projects(self):
        prob = plain_problem(np.eye(2), np.zeros(2),
                             lower=np.array([-1.0, -1.0]),
                             upper=np.array([1.0, 1.0]))
        rep = solve_fixed_iters(prob, np.array([3.0, -5.0]), 0)
        assert np.array_equal(rep.v, [1.0, -1.0])
        assert rep.optimum is None  # no loop, no tail to take v* from

    def test_linear_contraction_vs_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            sys, cert = random_certified_setup(rng)
            prob = random_problem(rng, sys, cert)
            q = prob.shape.contraction_base
            v_star = solve_oracle(prob).v
            z_star = prob.lift(v_star)
            v0 = np.clip(rng.uniform(-2, 2, size=prob.dim_v),
                         prob.lower, prob.upper)
            z0 = prob.lift(v0)
            d0_v = np.linalg.norm(v0 - v_star)
            d0_z = np.linalg.norm(z0 - z_star)
            rep = solve_fixed_iters(prob, z0, 50)
            phi_z = prob.shape.lift_norm * q ** 50  # q^K holds in v, not in z
            assert np.linalg.norm(rep.v - v_star) <= q ** 50 * d0_v + 1e-9
            assert np.linalg.norm(rep.z - z_star) <= phi_z * d0_z + 1e-9

    def test_per_iteration_feasibility_and_monotone_cost(self):
        rng = np.random.default_rng(3)
        sys, cert = random_certified_setup(rng)
        prob = random_problem(rng, sys, cert)
        v0 = rng.uniform(-3, 3, size=prob.dim_v)  # possibly infeasible start
        z = prob.lift(np.clip(v0, prob.lower, prob.upper))
        costs = [prob.cost(z)]
        for _ in range(30):  # one iteration per solve, every iterate seen
            rep = solve_fixed_iters(prob, z, 1)
            assert np.all(rep.v >= prob.lower - 0.0)
            assert np.all(rep.v <= prob.upper + 0.0)
            z = rep.z
            costs.append(prob.cost(z))
        costs = np.array(costs)
        assert np.all(np.diff(costs) <= 1e-12 * np.maximum(1.0, costs[:-1]))

    def test_per_iteration_ratio_never_exceeds_base(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            sys, cert = random_certified_setup(rng)
            prob = random_problem(rng, sys, cert)
            q = prob.shape.contraction_base
            v_star = solve_oracle(prob).v
            v = np.clip(rng.uniform(-2, 2, size=prob.dim_v),
                        prob.lower, prob.upper)
            dv = [np.linalg.norm(v - v_star)]
            for _ in range(40):
                v = solve_fixed_iters(prob, v, 1).v
                dv.append(np.linalg.norm(v - v_star))
            dv = np.array(dv)
            live = dv[:-1] > 1e-10 * max(1.0, dv[0])
            ratios = dv[1:][live] / dv[:-1][live]
            assert ratios.size == 0 or np.max(ratios) <= q + 1e-10

    def test_nonfinite_iterate(self):
        prob = plain_problem(np.eye(2), np.array([np.nan, 0.0]))
        with pytest.raises(NonfiniteIterate):
            solve_fixed_iters(prob, np.zeros(2), 3)


class TestSolveOracle:
    def test_unconstrained_normal_equations(self):
        rng = np.random.default_rng(6)
        sys, cert = random_certified_setup(rng)
        prob = random_problem(rng, sys, cert)
        wide = with_box(prob, np.full(prob.dim_v, -np.inf),
                        np.full(prob.dim_v, np.inf))
        s, c = wide.reduced_gradient_terms()
        expected = np.linalg.solve(s, -c)
        got = solve_oracle(wide)
        assert np.allclose(got.v, expected, atol=1e-10)

    def test_scalar_active_bound(self):
        # min (v - 3)^2 over [-1, 1] -> v* = 1
        prob = plain_problem(np.eye(1), np.array([3.0]),
                             lower=np.array([-1.0]), upper=np.array([1.0]))
        assert solve_oracle(prob).v[0] == 1.0

    def test_agrees_with_long_projected_gradient(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 10))
        weight = m @ m.T / 10 + 0.3 * np.eye(10)
        prob = plain_problem(weight, rng.standard_normal(10) * 2,
                             lower=-rng.random(10), upper=rng.random(10))
        v_star = solve_oracle(prob).v
        s, c = prob.reduced_gradient_terms()
        lam = np.linalg.eigvalsh(s)
        v_pg = certified_pgd(s, c, prob.lower, prob.upper, 1.0 / lam[-1],
                             1.0 - lam[0] / lam[-1], 1e-11, 1_000_000)
        assert np.linalg.norm(v_pg - v_star) <= 1e-8

    def test_kkt_residual_below_tol(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sys, cert = random_certified_setup(rng)
            prob = random_problem(rng, sys, cert)
            v = solve_oracle(prob).v
            s, c = prob.reduced_gradient_terms()
            grad_step = np.clip(v - (s @ v + c), prob.lower, prob.upper)
            assert np.max(np.abs(v - grad_step)) <= 1e-10

    def test_cost_lower_bounds_every_iterate(self):
        rng = np.random.default_rng(9)
        sys, cert = random_certified_setup(rng)
        prob = random_problem(rng, sys, cert)
        best = prob.cost(prob.lift(solve_oracle(prob).v))
        v0 = np.clip(rng.uniform(-2, 2, size=prob.dim_v), prob.lower, prob.upper)
        for K in (0, 1, 5, 20):
            rep = solve_fixed_iters(prob, v0, K)
            assert best <= prob.cost(rep.z) + 1e-10

    def test_pinned_interval(self):
        prob = plain_problem(np.eye(2), np.array([1.0, -4.0]),
                             lower=np.array([0.0, -1.0]),
                             upper=np.array([0.0, 1.0]))
        got = solve_oracle(prob)
        assert got.v[0] == 0.0
        assert got.v[1] == -1.0

    def test_final_active_set_within_rounding_floor(self):
        # A lifted_problems draw (hypothesis seed 1, dim_v 14, cond(S) 6.7e4,
        # max(1, |c|, |S|) 1.6e5). The bind/release method this oracle
        # replaced ended here with a KKT residual of 1.09e-11, within the
        # rounding of its restricted solve but above a flat 1e-11.
        inf = np.inf
        sys = LtiSystem(
            A=np.array([[0.3940512773751339, -2.473892445096244],
                        [-1.6156207992673053, -1.541989622712623]]),
            B=np.array([[-0.20748663558235425, -1.846295775115807],
                        [0.9231793133646565, 0.20391540402250088]]),
            C=np.array([[-0.4821479570086963, 2.3775546373058702]]),
            x_box=Box(np.array([-1.4199649733067403, -0.8808178328047278]),
                      np.array([inf, -0.8808178328047278])),
            u_box=Box.unbounded(2), y_box=Box.unbounded(1),
            w1_box=Box(np.array([-1.7007582751375288, -inf]),
                       np.array([inf, 1.9895538595121303])),
            w2_box=Box(np.array([-inf]), np.array([-1.0609788923011871])))
        cert = IossCertificate(
            P=np.diag([19.6025390388723, 0.5]),
            Q=np.diag([62.419073954108036, 2.257137167663587, 96.54795175488445]),
            R=np.diag([94.16329971638191]), eta=0.6291886074613529)
        prob = build_problem(
            sys, cert, [-3.2231715785791337, -0.24210010187126763],
            [[0.17979644254890736, -0.14165715536039758],
             [0.9808945829103299, -0.8358015263935816],
             [-0.3998691936998884, -0.9631501140783538],
             [-0.46957345730724853, 0.2805702792321605]],
            [[-1.1518153183566384], [-0.6302935796434976],
             [1.7141243063027325], [1.0707235296094826]], 4, 4)
        got = solve_oracle(prob)
        s, c = prob.reduced_gradient_terms()
        v_pg = certified_pgd(s, c, prob.lower, prob.upper, prob.shape.step,
                             prob.shape.contraction_base, 1e-11, 1_000_000)
        assert np.linalg.norm(v_pg - got.v) <= 1e-8

    def test_nonfinite_linear_term_raises_at_once(self, monkeypatch):
        prob = plain_problem(np.eye(2), np.array([np.nan, 0.0]))
        monkeypatch.setattr(solver, "_iterate", None)  # no iteration runs
        with pytest.raises(NonfiniteIterate):
            solve_oracle(prob)

    def test_optimum_on_a_side_with_zero_multiplier(self):
        # v* = (1, -2) is the unconstrained minimiser, and coordinate 0's
        # upper side passes through it: active, with multiplier 0
        prob = plain_problem(np.array([[2.0, 0.5], [0.5, 1.0]]),
                             np.array([1.0, -2.0]),
                             upper=np.array([1.0, np.inf]))
        for start in (None, np.array([1.0, 5.0]), np.array([-3.0, -2.0])):
            got = solve_oracle(prob, start=start)
            assert got.bound <= optimum_tolerance(prob.shape, got.v)
            assert np.linalg.norm(got.v - [1.0, -2.0]) <= 1e-12
            assert got.v[0] <= 1.0

    def test_zero_multiplier_sides_stay_in_the_box(self):
        # Random windows whose minimiser v_u lies on coordinate 0's upper
        # side. A polish that frees that coordinate lands on the side only to
        # rounding (the full solve lands outside on 19 of these 40 draws),
        # and outside it must not be accepted: v* is feasible.
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n))
            ref = rng.uniform(-3.0, 3.0, size=n)
            upper = np.full(n, np.inf)
            upper[0] = ref[0]
            prob = plain_problem(m @ m.T / n + 0.5 * np.eye(n), ref, upper=upper)
            got = solve_oracle(prob)
            assert np.all(got.v <= upper)
            tol = optimum_tolerance(prob.shape, got.v)
            assert got.bound <= tol
            assert np.linalg.norm(got.v - ref) <= got.bound + tol

    def test_kernel_without_progress_stalls(self, monkeypatch):
        # min (v - r)^T W (v - r) over [-1, 1]^2 with r outside the box: a
        # kernel that returns its start never brings the plain iterate
        # closer, and every polish, from the first chunk on, frees both
        # coordinates of the cold start and lands at r. The count is the
        # theorem's, from numpy alone: S = 2 W has d = (8, 2)^(-1/2),
        # kappa(D) = 2 and D S D = [[1, 3/4], [3/4, 1]], so q~ = 3/4. The
        # oracle gives up one full chunk past it.
        weight = np.array([[4.0, 1.5], [1.5, 1.0]])
        prob = plain_problem(weight, np.array([3.0, -3.0]),
                             lower=np.full(2, -1.0), upper=np.full(2, 1.0))
        s, c = prob.reduced_gradient_terms()
        lo, hi = prob.lower, prob.upper
        lam = np.linalg.eigvalsh(s)
        alpha, q = 2.0 / (lam[-1] + lam[0]), (lam[-1] - lam[0]) / (lam[-1] + lam[0])
        gain = (1.0 + alpha * lam[-1]) / (alpha * lam[0])
        b0 = gain * np.linalg.norm(np.clip(-alpha * c, lo, hi))  # B(0)
        d = 1.0 / np.sqrt(np.diag(s))
        lam_s = np.linalg.eigvalsh(d[:, None] * s * d)
        q_s = (lam_s[-1] - lam_s[0]) / (lam_s[-1] + lam_s[0])
        ratio = optimum_tolerance(prob.shape, 0.0) / (gain * (1.0 + q) * b0)
        count = int(np.ceil(np.log(ratio / (d.max() / d.min())) / np.log(q_s)))
        iters, chunk = 0, 8
        while iters <= count + solver.ORACLE_CHUNK:
            iters, chunk = iters + chunk, min(2 * chunk, solver.ORACLE_CHUNK)
        monkeypatch.setattr(solver, "_iterate",
                            lambda t, step, c, lo, hi, v0, iters, spectrum:
                            (v0.copy(), iters, None))
        with pytest.raises(OracleStalled,
                           match=f"after {iters} iterations; .* below by {count}$"):
            solve_oracle(prob)

    def test_bound_clamped_in_scaled_coordinates_is_exact(self, monkeypatch):
        # S = 10: d = 10^(-1/2), and d * (-0.71 / d) rounds to
        # -0.71 + 1.1e-16, inside the box. v* = -0.71 is on the lower side; a
        # cold start tests 0 unpolished, the scaled kernel clamps there, the
        # oracle maps it to -0.71 exactly and the active set holds it, so
        # the polish has nothing to solve and is exact. (Mapped off the side,
        # the coordinate would be freed, and the bind would put it back only
        # after a solve.)
        prob = plain_problem(np.array([[5.0]]), np.array([-1.0]),
                             lower=np.array([-0.71]), upper=np.array([2.0]))
        d, _ = prob.shape.jacobi
        assert d * (-0.71 / d) > -0.71
        solves = count_calls(monkeypatch, np.linalg, "solve")
        got = solve_oracle(prob)
        assert got.iters > 0
        assert got.v[0] == -0.71
        assert got.bound == 0.0
        assert not solves

    def test_bind_holds_a_crossed_coordinate_at_its_side(self):
        # S = [[4, 1], [1, 2]] and c = (-12, -3): the unconstrained optimum
        # (3, 0) lies beyond coordinate 0's upper side 1. From an interior
        # warm start the first polish frees both coordinates and lands there;
        # the bind holds coordinate 0 at 1 and the re-polish solves
        # 2 v_1 = 3 - 1, so v* = (1, 1) is accepted at iteration 0. Held at
        # the lower side -5 instead, the re-polish would be (-5, 4), whose
        # error bound fails.
        prob = plain_problem(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([3.0, 0.0]),
                             lower=np.array([-5.0, -np.inf]),
                             upper=np.array([1.0, np.inf]))
        got = solve_oracle(prob, start=np.zeros(2))
        assert got.iters == 0
        assert got.v.tobytes() == np.array([1.0, 1.0]).tobytes()
        s, c = prob.reduced_gradient_terms()
        v = got.v
        assert v.tobytes() == polish_on(s, c, v, own_active_set(prob, v)).tobytes()

    def test_bind_outside_the_box_is_not_accepted(self):
        # The same window with coordinate 1's upper side one ulp below 1:
        # the bind's re-polish is (1, 1) again, one ulp outside the box,
        # with an error bound of a rounding. v* = (1, 1 - ulp) has both
        # coordinates on their upper sides, and only it may be accepted.
        upper = np.array([1.0, np.nextafter(1.0, 0.0)])
        prob = plain_problem(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([3.0, 0.0]),
                             lower=np.array([-5.0, -np.inf]), upper=upper)
        got = solve_oracle(prob, start=np.zeros(2))
        assert got.iters > 0
        assert got.v.tobytes() == upper.tobytes()
        assert got.bound <= optimum_tolerance(prob.shape, got.v)

    def test_shape_constants_are_the_direct_formulas(self):
        # the oracle's constants, kept per window shape, are the bytes of the
        # formulas it once evaluated per solve
        rng = np.random.default_rng(23)
        for _ in range(10):
            sys, cert = random_certified_setup(rng)
            shape = random_problem(rng, sys, cert).shape
            mu, lip = shape.curvature
            alpha = 2.0 / (lip + mu)
            assert shape.error_gain == (1.0 + alpha * lip) / (alpha * mu)
            assert shape.rounding_floor == max(
                1e-12, 4.0 * shape.dim_v * (lip / mu) * np.finfo(float).eps)
            d, scaled = shape.jacobi
            q = scaled.contraction_base  # 0 where D S D = I, as on one coordinate
            log_q = None if q == 0.0 else np.log(q)
            assert shape.search_rate == (d.max() / d.min(), log_q)
            for ratio in (0.5, 1e-3, 1e-12):
                want = 1 if q == 0.0 else max(
                    0, int(np.ceil(np.log(ratio / (d.max() / d.min())) / log_q)))
                assert solver.oracle_iterations(shape, ratio) == want
            assert shape.search_rate is shape.search_rate

    @pytest.mark.parametrize("start", [np.zeros(1), np.zeros(7), np.zeros((3, 1))],
                             ids=["length_1", "length_7", "column"])
    def test_start_of_another_shape_raises(self, start):
        prob = plain_problem(np.eye(3), np.array([3.0, -1.0, 0.5]),
                             lower=np.full(3, -1.0), upper=np.full(3, 1.0))
        with pytest.raises(DimensionMismatch, match=r"expected \(3,\)"):
            solve_oracle(prob, start=start)

    def test_take_blocks_are_the_ix_blocks(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 7, 49):
            s = rng.standard_normal((n, n))
            masks = [np.zeros(n, bool), np.ones(n, bool)]
            masks += [rng.random(n) < p for p in (0.2, 0.5, 0.8)]
            for active in masks:  # free empty, fixed empty, and mixed
                free, fixed = np.flatnonzero(~active), np.flatnonzero(active)
                got = solver._free_blocks(s, free, fixed)
                want = s[np.ix_(free, free)], s[np.ix_(free, fixed)]
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.flags.c_contiguous
                    assert a.tobytes() == b.tobytes()

    def test_cold_solves_polish_only_after_a_chunk(self, monkeypatch):
        # A cold start is tested unpolished at iteration 0 and polished from
        # the first chunk on; a warm start is polished at iteration 0.
        solves = count_calls(monkeypatch, np.linalg, "solve")
        solves_before_chunk = []
        iterate = solver._iterate

        def recorded(*args):
            solves_before_chunk.append(len(solves))
            return iterate(*args)

        monkeypatch.setattr(solver, "_iterate", recorded)
        rng = np.random.default_rng(21)
        for i in range(30):
            sys, cert = random_certified_setup(rng)
            prob = random_problem(rng, sys, cert)
            if i % 3 == 0:  # every coordinate free: polish-first accepts at 0
                prob = with_box(prob, np.full(prob.dim_v, -np.inf),
                                np.full(prob.dim_v, np.inf))
            for start in (None, rng.uniform(-3.0, 3.0, prob.dim_v)):
                solves.clear()
                solves_before_chunk.clear()
                got = solve_oracle(prob, start=start)
                if start is None:
                    assert got.iters > 0 or not solves
                    assert solves_before_chunk[:1] == [0] * min(1, got.iters)
                    assert len(solves) <= len(solves_before_chunk)
                else:  # the state coordinates are free: the polish solves
                    assert len(solves) >= 1
                    assert all(k >= 1 for k in solves_before_chunk)

    def test_interior_cold_solve_is_the_normal_equations_bitwise(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            sys, cert = random_certified_setup(rng)
            prob = random_problem(rng, sys, cert)
            s, c = prob.reduced_gradient_terms()
            expected = np.linalg.solve(s, -(c + 0.0))
            width = 10.0 * (1.0 + np.abs(expected))
            for lower, upper in ((np.full(prob.dim_v, -np.inf), np.full(prob.dim_v, np.inf)),
                                 (expected - width, expected + width)):
                got = solve_oracle(with_box(prob, lower, upper))
                assert got.iters == 8
                assert got.v.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hessian, direction", [
        # D S D = [[1, 1/2], [1/2, 1]], kappa(D) = 10: T~ swaps the two
        # coordinates, so an error on the small-d side returns on the large
        # one and ||v_k - v*|| = kappa(D) q~^k ||v_0 - v*|| at odd k
        (np.array([[100.0, 5.0], [5.0, 1.0]]), "first"),
        # Jacobi scaling slows this one, q = 0.761 < q~ = 7/9, and an error
        # along the slowest direction of T~ shrinks by q~ per iteration
        (np.array([[4.0, 3.0, 1.0], [3.0, 4.0, 1.0], [1.0, 1.0, 2.0]]), "slowest"),
    ])
    def test_count_bounds_the_scaled_search(self, hessian, direction):
        prob = plain_problem(hessian / 2.0, np.ones(hessian.shape[0]))
        d, scaled = prob.shape.jacobi
        s, c = prob.reduced_gradient_terms()
        v_star = np.linalg.solve(s, -c)
        if direction == "first":
            error = np.eye(len(d))[0] * d
        else:
            error = d * np.linalg.eigh(d[:, None] * s * d)[1][:, 0]
        for ratio in (0.2, 0.05, 1e-3, 1e-6):
            k = solver.oracle_iterations(prob.shape, ratio)
            v_k = d * _iterate(scaled.transition, scaled.step, d * c,
                               scaled.lower, scaled.upper,
                               (v_star + error) / d, k, None)[0]
            assert np.linalg.norm(v_k - v_star) <= ratio * np.linalg.norm(error), (ratio, k)


class TestIterate:
    """The projected-gradient kernel, solver._iterate."""

    def test_kernel_does_not_mutate_input(self):
        rng = np.random.default_rng(11)
        prob = plain_problem(np.eye(3) / 2.0, -rng.standard_normal(3),
                             lower=np.full(3, -1.0), upper=np.full(3, 1.0))
        shape = prob.shape
        v0 = rng.standard_normal(3)
        v0_copy = v0.copy()
        for spectrum in (shape.spectrum, None):
            _iterate(shape.transition, shape.step, prob.linear_term,
                     prob.lower, prob.upper, v0, 100, spectrum)
            assert np.array_equal(v0, v0_copy)


def own_active_set(prob, v):
    """v's active set as the oracle reads it: the pinned coordinates and
    those on a side whose gradient points out of the box."""
    s, c = prob.reduced_gradient_terms()
    g, lo, hi = s @ v + c, prob.lower, prob.upper
    return (lo == hi) | ((v == lo) & (g > 0.0)) | ((v == hi) & (g < 0.0))


def polish_on(s, c, v, active):
    """The polish on an active set, by np.ix_ blocks: w_A = v_A and
    S_FF w_F = -(c_F + S_FA v_A)."""
    free, fixed = np.flatnonzero(~active), np.flatnonzero(active)
    w = v.copy()
    if free.size:
        w[free] = np.linalg.solve(s[np.ix_(free, free)],
                                  -(c[free] + s[np.ix_(free, fixed)] @ v[fixed]))
    return w


def reference_pgd(s, g, lo, hi, v0, alpha, iters):
    """The literal clip loop the kernel must reproduce; every iterate, v0 first."""
    v = np.array(v0, dtype=float)
    out = [v]
    for _ in range(iters):
        v = np.clip(v - alpha * (s @ v + g), lo, hi)
        out.append(v)
    return np.array(out)


# Kernel vs reference, set from float64 before the kernel was written: each
# iteration rounds (I - aS) v - a g instead of v - a (S v + g), at most
# (n + 2) unit roundoffs (1.1e-16) of the step's magnitudes; the map is
# nonexpansive, so over 200 iterations at n <= 28 the gap stays below
# 200 * 30 * 1.1e-16 < 1e-12 of the largest magnitude in play.
KERNEL_RTOL = 1e-12

# (lower, upper) of one box component: finite, pinned, or open on a side.
_SIDES = st.sampled_from(["finite", "pinned", "no_lower", "no_upper", "free"])


def _box(kinds, rng):
    lo, hi = [], []
    for kind in kinds:
        a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
        lo.append({"pinned": a, "no_lower": -np.inf, "free": -np.inf}.get(kind, a))
        hi.append({"pinned": a, "no_upper": np.inf, "free": np.inf}.get(kind, b))
    return Box(np.array(lo), np.array(hi))


@st.composite
def lifted_problems(draw):
    """Window QPs from random lifts, well- to ill-conditioned: ||A|| up to 3,
    diagonal weights in [0.01, 100], boxes with pinned and infinite sides."""
    n_x = draw(st.integers(1, 4))
    n_u = draw(st.integers(1, 2))
    n_y = draw(st.integers(1, 2))
    M = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = st.floats(0.01, 100.0)
    A = rng.standard_normal((n_x, n_x))
    A *= draw(st.floats(0.1, 3.0)) / np.linalg.norm(A, 2)
    sys = LtiSystem(
        A=A, B=rng.standard_normal((n_x, n_u)), C=rng.standard_normal((n_y, n_x)),
        x_box=_box(draw(st.lists(_SIDES, min_size=n_x, max_size=n_x)), rng),
        u_box=Box.unbounded(n_u), y_box=Box.unbounded(n_y),
        w1_box=_box(draw(st.lists(_SIDES, min_size=n_x, max_size=n_x)), rng),
        w2_box=_box(draw(st.lists(_SIDES, min_size=n_y, max_size=n_y)), rng))
    diag = lambda n: np.diag(draw(st.lists(weights, min_size=n, max_size=n)))
    cert = IossCertificate(P=diag(n_x), Q=diag(n_x + n_y), R=diag(n_y),
                           eta=draw(st.floats(0.5, 0.99)))
    prob = random_problem(rng, sys, cert, M=M, t=M)
    v0 = rng.uniform(-3.0, 3.0, size=prob.dim_v)  # possibly outside the box
    return prob, v0


class TestKernelReference:
    # The tail probes run at k = 0, 1, 3, 7: K = 1, 2, 4 and 8 compare a
    # jump from each of them, K = 3 and 7 end where a probe would run, and
    # K = 0 is the box projection.
    @settings(max_examples=60, deadline=None)
    @given(case=lifted_problems(),
           K=st.sampled_from([0, 1, 2, 3, 4, 7, 8, 200]))
    def test_kernel_matches_clip_loop(self, case, K):
        prob, v0 = case
        v0_copy = v0.copy()
        s, c = prob.reduced_gradient_terms()
        alpha = prob.shape.step
        ref = reference_pgd(s, c, prob.lower, prob.upper, v0, alpha, K)
        scale = max(1.0, float(np.max(np.abs(ref))), alpha * float(np.max(np.abs(c))))

        rep = solve_fixed_iters(prob, prob.lift(v0), K)
        assert np.array_equal(v0, v0_copy)
        expect = ref[-1] if K else np.clip(v0, prob.lower, prob.upper)
        assert np.max(np.abs(rep.v - expect)) <= KERNEL_RTOL * scale


# Two ways of forming one product, tolerance set from float64 before the test
# was run: an entry that sums n products rounds by at most n unit roundoffs
# (1.1e-16) of the sum of their magnitudes (|A| |B|). Here n <= 36, and
# S~ = G~ Psi~ chains two such sums, so both sides together stay below
# 4 * 36 * 1.1e-16 < 1e-13 of that magnitude.
PRODUCT_RTOL = 1e-13


class TestJacobiShape:
    """shape.jacobi is the same window in v~ = v / d, and the kernel runs on
    it as on any window shape."""

    @settings(max_examples=60, deadline=None)
    @given(case=lifted_problems())
    def test_scaled_shape_is_the_same_window(self, case):
        prob, v0 = case
        shape = prob.shape
        d, scaled = shape.jacobi
        assert np.array_equal(d, 1.0 / np.sqrt(np.diag(shape.hessian)))
        assert scaled.weight is shape.weight and scaled.input_map is shape.input_map
        assert np.array_equal(scaled.lower, shape.lower / d)
        assert np.array_equal(scaled.upper, shape.upper / d)

        def close(got, want, magnitude):
            assert np.all(np.abs(got - want) <= PRODUCT_RTOL * magnitude)

        # the lift and the state map agree at v = d * v~
        v_tilde = v0 / d
        v = d * v_tilde
        close(scaled.lift_matrix @ v_tilde, shape.lift_matrix @ v,
              np.abs(shape.lift_matrix) @ np.abs(v))
        u = prob.u_window.ravel()
        close(scaled.state_map @ np.concatenate([v_tilde, u]),
              shape.state_map @ np.concatenate([v, u]),
              np.abs(shape.state_map) @ np.abs(np.concatenate([v, u])))
        # G~ = D G, S~ = D S D, and the linear term in v~ is d * c
        g_mag = 2.0 * np.abs(shape.lift_matrix.T) @ np.abs(shape.weight)
        close(scaled.gradient_map, d[:, None] * shape.gradient_map,
              d[:, None] * g_mag)
        close(scaled.hessian, d[:, None] * shape.hessian * d,
              d[:, None] * (g_mag @ np.abs(shape.lift_matrix)) * d)
        offset = prob.lift_offset - prob.reference
        close(scaled.gradient_map @ offset, d * prob.linear_term,
              d * (g_mag @ np.abs(offset)))

    @settings(max_examples=60, deadline=None)
    @given(case=lifted_problems(), K=st.sampled_from([1, 2, 3, 4, 7, 8, 200]))
    def test_kernel_matches_clip_loop_in_scaled_coordinates(self, case, K):
        # The probes of the closed-form tail run at k = 0, 1, 3, 7, as in
        # TestKernelReference; the kernel runs with the scaled shape's tail
        # and without one
        prob, v0 = case
        d, scaled = prob.shape.jacobi
        c = d * prob.linear_term
        alpha = scaled.step
        v0 = v0 / d
        ref = reference_pgd(scaled.hessian, c, scaled.lower, scaled.upper, v0,
                            alpha, K)
        scale = max(1.0, float(np.max(np.abs(ref))), alpha * float(np.max(np.abs(c))))
        for spectrum in (scaled.spectrum, None):
            got, looped, _ = _iterate(scaled.transition, alpha, c, scaled.lower,
                                      scaled.upper, v0, K, spectrum)
            assert np.max(np.abs(got - ref[-1])) <= KERNEL_RTOL * scale
            if spectrum is None:
                assert looped == K


# Two trajectories of the same problem, tolerance set from float64 before the
# test was run: in exact arithmetic ||u_K - v_K|| <= r^K ||u_0 - v_0||. Each iteration
# of each trajectory rounds at most (n + 2) unit roundoffs of the magnitudes
# in play; over K <= 200 iterations at n <= 28 that stays below 1e-12 of the
# largest of them (the starts, the ends and step * |c|), and the relative
# 1e-9 covers rounding in ||u_0 - v_0|| and r^K.
PAIR_RTOL = 1e-9
PAIR_ATOL = 1e-12


class TestContractionProperty:
    """The certified base is the rate of the step the kernel takes."""

    @settings(max_examples=300, deadline=None)
    @given(case=lifted_problems(), seed=st.integers(0, 2 ** 32 - 1))
    def test_two_starts_contract_at_certified_rate(self, case, seed):
        prob, v0 = case
        alpha, r = prob.shape.step, prob.shape.contraction_base
        rng = np.random.default_rng(seed)
        u0 = np.clip(rng.uniform(-3.0, 3.0, size=prob.dim_v),
                     prob.lower, prob.upper)
        v0 = np.clip(v0, prob.lower, prob.upper)
        d0 = np.linalg.norm(u0 - v0)
        for K in (1, 5, 20, 200):
            u_k = solve_fixed_iters(prob, u0, K).v
            v_k = solve_fixed_iters(prob, v0, K).v
            scale = max(1.0, *(float(np.max(np.abs(a)))
                               for a in (u0, v0, u_k, v_k)),
                        alpha * float(np.max(np.abs(prob.linear_term))))
            bound = r ** K * d0 * (1.0 + PAIR_RTOL) + PAIR_ATOL * scale
            assert np.linalg.norm(u_k - v_k) <= bound, (K, r)


class TestOracleProperty:
    """solve_oracle ends on every window QP, cold or warm, within its bound."""

    @settings(max_examples=100, deadline=None)
    @given(case=lifted_problems(), warm=st.booleans())
    def test_agrees_with_certified_pgd(self, case, warm):
        prob, v0 = case
        got = solve_oracle(prob, start=v0 if warm else None)
        v = got.v
        lo, hi = prob.lower, prob.upper
        assert np.all((lo <= v) & (v <= hi))
        tol = optimum_tolerance(prob.shape, v)
        assert got.bound <= tol
        # the literal loop's own certified distance to v*, at its last
        # iterate: ||u - v*|| <= ||G(u) - u|| / (1 - q) for the step G
        s, c = prob.reduced_gradient_terms()
        alpha, q = prob.shape.step, prob.shape.contraction_base
        u = certified_pgd(s, c, lo, hi, alpha, q, 1e-9, 2_000)
        dist = np.linalg.norm(np.clip(u - alpha * (s @ u + c), lo, hi) - u) / (1.0 - q)
        assert np.linalg.norm(v - u) <= got.bound + dist + tol
        # the termination theorem: the plain iterate passes at the first test
        # (iterations 0, 8, 24, 56, ...) at or after the scaled search's count
        v0 = np.clip(v0 if warm else np.zeros(prob.dim_v), lo, hi)
        mu, lip = prob.shape.curvature
        gain = (1.0 + alpha * lip) / (alpha * mu)
        b0 = gain * np.linalg.norm(v0 - np.clip(v0 - alpha * (s @ v0 + c), lo, hi))
        tol0, scale = optimum_tolerance(prob.shape, 0.0), gain * (1.0 + q) * b0
        count = solver.oracle_iterations(prob.shape, tol0 / scale) if scale > tol0 else 0
        test_at, chunk = 0, 8
        while test_at < count:
            test_at, chunk = test_at + chunk, min(2 * chunk, solver.ORACLE_CHUNK)
        assert got.iters <= test_at, (got.iters, count)

    @settings(max_examples=150, deadline=None)
    @given(case=lifted_problems(), warm=st.booleans())
    def test_bind_stops_at_its_own_test(self, case, warm):
        # At the first test whose polish leaves the box, the bind holds the
        # crossed coordinates at their sides. Where that face (the active
        # set and its sides) is the accepted v*'s own, the re-polish is the
        # polish on it, and the solve must stop at that test with that
        # point, byte for byte.
        prob, v0 = case
        s, c = prob.reduced_gradient_terms()
        lo, hi = prob.lower, prob.upper
        tests = {}  # kernel iterations at a test -> (active set, first polish)
        run = [0]
        iterate, polish = solver._iterate, solver._polish

        def counted(*args):
            run[0] += args[6]
            return iterate(*args)

        def first_polish(s_, c_, v, active):
            w = polish(s_, c_, v, active)
            tests.setdefault(run[0], (active, w.copy()))
            return w

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_iterate", counted)
            mp.setattr(solver, "_polish", first_polish)
            got = solve_oracle(prob, start=v0 if warm else None)
        crossed = [(k, active, w) for k, (active, w) in sorted(tests.items())
                   if not ((w >= lo) & (w <= hi)).all()]
        if not crossed:
            return
        k, active, w = crossed[0]
        held, held_set = np.clip(w, lo, hi), active | (w < lo) | (w > hi)
        v = got.v
        face = own_active_set(prob, v)
        if not (np.array_equal(face, held_set) and np.array_equal(held[face], v[face])):
            return
        p = polish_on(s, c, v, face)
        bound = prob.shape.error_gain * np.linalg.norm(
            p - np.clip(p - prob.shape.step * (s @ p + c), lo, hi))
        if ((p >= lo) & (p <= hi)).all() and bound <= optimum_tolerance(prob.shape, p):
            assert got.iters == k
            assert v.tobytes() == p.tobytes()


@st.composite
def open_box_problems(draw):
    """lifted_problems re-boxed around the unconstrained optimum v_u: each side
    wide (1/2 to 10 times 1 + |v_u| away) or open, with v0 up to twice the
    width from v_u, so the loop clamps for a while or not at all."""
    prob, _ = draw(lifted_problems())
    s, c = prob.reduced_gradient_terms()
    v_u = np.linalg.solve(s, -c)
    n = prob.dim_v
    kinds = draw(st.lists(st.sampled_from(["wide", "no_lower", "no_upper", "free"]),
                          min_size=n, max_size=n))
    width = draw(st.floats(0.5, 10.0)) * (1.0 + np.abs(v_u))
    lower = np.where([k in ("wide", "no_upper") for k in kinds], v_u - width, -np.inf)
    upper = np.where([k in ("wide", "no_lower") for k in kinds], v_u + width, np.inf)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v0 = v_u + draw(st.floats(0.0, 2.0)) * width * rng.uniform(-1.0, 1.0, n)
    return with_box(prob, lower, upper), v0


@st.composite
def tight_box_problems(draw):
    """open_box_problems with each finite side moved to a distance from v_u
    between the two bounds on the unclamped iterates from v0: above the
    first iterate's deviation and the envelope from the second iterate on,
    below the envelope from the first on (mhe.StepSpectrum). A coordinate
    without a gap between them (a 1 x 1 block of S, say) gets its side
    beyond both."""
    prob, v0 = draw(open_box_problems())
    s, c = prob.reduced_gradient_terms()
    v_u = np.linalg.solve(s, -c)
    u, tau = prob.shape.spectrum.basis, prob.shape.spectrum.tau
    first = tau * (u.T @ (v0 - v_u))
    loose = np.abs(u) @ np.abs(first)
    tight = np.maximum(np.abs(u @ first), np.abs(u) @ (np.abs(tau) * np.abs(first)))
    width = np.where(loose > (1.0 + 1e-6) * tight,
                     tight + draw(st.floats(0.05, 0.95)) * (loose - tight),
                     2.0 * loose + 1.0)
    lower = np.where(np.isfinite(prob.lower), v_u - width, -np.inf)
    upper = np.where(np.isfinite(prob.upper), v_u + width, np.inf)
    return with_box(prob, lower, upper), v0


class TestClosedFormTail:
    """The loop's closed-form tail gives the K-th iterate of the clip loop."""

    def test_open_boxes_match_clip_loop(self):
        jumped = []

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(case=open_box_problems(), K=st.sampled_from([1, 5, 200, 228]))
        def check(case, K):
            prob, v0 = case
            s, c = prob.reduced_gradient_terms()
            alpha = prob.shape.step
            ref = reference_pgd(s, c, prob.lower, prob.upper, v0, alpha, K)
            scale = max(1.0, float(np.max(np.abs(ref))),
                        alpha * float(np.max(np.abs(c))))
            rep = solve_fixed_iters(prob, prob.lift(v0), K)
            assert np.max(np.abs(rep.v - ref[-1])) <= KERNEL_RTOL * scale
            jumped.append(rep.looped < K)

        check()
        # 110 of these 120 draws jump, and 90 % of 1,500 random ones
        assert sum(jumped) >= 0.75 * len(jumped)

    def test_later_crossing_blocks_the_jump(self):
        # S = U diag(1, 5, 9) U^T, so tau = (0.8, 0, -0.8). Coordinate 0 of the
        # unclamped iterates is 0.5 * 0.8^i + 0.5 * (-0.8)^i - 0^i: 0 at
        # i = 0 and 1, then 0.64 at i = 2, above its upper side 0.5.
        basis = np.eye(3) - 2.0 / 3.0 * np.ones((3, 3))  # symmetric, orthogonal
        s = basis @ np.diag([1.0, 5.0, 9.0]) @ basis.T
        prob = plain_problem(s / 2.0, np.zeros(3),
                             lower=np.full(3, -np.inf),
                             upper=np.array([0.5, np.inf, np.inf]))
        assert np.allclose(prob.shape.spectrum.tau, [0.8, 0.0, -0.8])
        v0 = basis @ (np.array([0.5, -1.0, 0.5]) / basis[0])
        free = reference_pgd(s, np.zeros(3), -np.inf, np.inf, v0, 0.2, 2)
        assert np.allclose(free[:, 0], [0.0, 0.0, 0.64])
        ref = reference_pgd(s, np.zeros(3), prob.lower, prob.upper, v0, 0.2, 2)
        rep = solve_fixed_iters(prob, v0, 2)
        assert rep.looped == 2
        assert rep.optimum is None  # clamped at the last iteration
        assert np.max(np.abs(rep.v - ref[-1])) <= KERNEL_RTOL
        assert rep.v[0] == 0.5

    @pytest.mark.parametrize("lower0, start, probe",
                             [(-2.0, 0.5, 0), (-2.0, 10.0, 1),
                              (-0.6, 10.0, 3), (-0.5, 10.0, 7)])
    def test_jump_from_each_probe(self, lower0, start, probe):
        # S = diag(1, 9), step 0.2, tau = (0.8, -0.8), v_u = 0. Coordinate 0
        # from 10 clamps to 1 and then decays by 0.8 per iteration; the
        # envelope 0.8 |v_k| first fits inside the room min(-lower0, 1) at
        # the probe given, and a start inside the box settles at once.
        prob = plain_problem(np.diag([0.5, 4.5]), np.zeros(2),
                             lower=np.array([lower0, -np.inf]),
                             upper=np.array([1.0, np.inf]))
        s, c = prob.reduced_gradient_terms()
        v0 = np.array([start, 0.0])
        for K in (probe + 1, 50):
            rep = solve_fixed_iters(prob, v0, K)
            ref = reference_pgd(s, c, prob.lower, prob.upper, v0, 0.2, K)
            assert rep.looped == probe
            assert np.max(np.abs(rep.v - ref[-1])) <= KERNEL_RTOL

    def test_first_iterate_inside_settles_at_once(self):
        # The basis and tau of test_later_crossing_blocks_the_jump, with
        # beta = U^T v0 = (1, 0.5, -0.5) and v_u = 0. Coordinate 0 of the
        # first iterate U (tau * beta) is 0.8 (1/3 - 2/3 * 0.5) = 0, but the
        # envelope |U| (|tau| * |beta|) there is 0.8 (1/3 + 1/3) = 0.53, above
        # the upper side 0.5, so the envelope test alone settles only at
        # k = 1. The envelope from the second iterate on,
        # |U| (|tau| * |tau * beta|), is 0.64 (1/3 + 1/3) = 0.43 there.
        basis = np.eye(3) - 2.0 / 3.0 * np.ones((3, 3))
        s = basis @ np.diag([1.0, 5.0, 9.0]) @ basis.T
        prob = plain_problem(s / 2.0, np.zeros(3),
                             lower=np.full(3, -np.inf),
                             upper=np.array([0.5, np.inf, np.inf]))
        spectrum = prob.shape.spectrum
        v0 = basis @ np.array([1.0, 0.5, -0.5])
        beta = spectrum.basis.T @ v0
        envelope = spectrum.abs_basis @ (spectrum.abs_tau * np.abs(beta))
        assert envelope[0] == pytest.approx(1.6 / 3.0)
        for K in (1, 2, 50):
            rep = solve_fixed_iters(prob, v0, K)
            ref = reference_pgd(s, np.zeros(3), prob.lower, prob.upper, v0, 0.2, K)
            assert rep.looped == 0
            assert np.array_equal(rep.optimum, np.zeros(3))
            assert np.max(np.abs(rep.v - ref[-1])) <= KERNEL_RTOL

    def test_two_part_test_holds_only_without_later_clamps(self):
        # Wherever the first iterate's exact deviation and the envelope from
        # the second iterate on lie inside room at a probe, the clip loop
        # from that probe's v clamps nothing again, the tail settles there
        # and its jump is the clip loop's K-th iterate.
        probes = {"envelope": 0, "two_part_only": 0}  # probes where the test held

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(case=st.one_of(open_box_problems(), lifted_problems(),
                              tight_box_problems()))
        def check(case):
            prob, v0 = case
            spectrum, K = prob.shape.spectrum, 200
            s, c = prob.reduced_gradient_terms()
            lo, hi, alpha = prob.lower, prob.upper, prob.shape.step
            # the clip loop, and the last iteration at which a clamp fired
            v, iterates, last_clamp = np.array(v0, dtype=float), [], -1
            for k in range(K):
                iterates.append(v)
                free = v - alpha * (s @ v + c)
                v = np.clip(free, lo, hi)
                if not np.array_equal(v, free):
                    last_clamp = k
            scale = max(1.0, float(np.max(np.abs(iterates))),
                        alpha * float(np.max(np.abs(c))))
            tail = solver._Tail(spectrum, c, lo, hi)
            u, tau = spectrum.basis, spectrum.tau
            k = 0
            while k < K:
                first = tau * (u.T @ (iterates[k] - tail.v_u))
                envelope = np.abs(u) @ np.abs(first)
                if ((np.abs(u @ first) < tail.room).all()
                        and (np.abs(u) @ (np.abs(tau) * np.abs(first)) < tail.room).all()):
                    probes["two_part_only" if (envelope >= tail.room).any()
                           else "envelope"] += 1
                    assert last_clamp < k
                    assert tail.settled(iterates[k])
                    assert np.max(np.abs(tail.finish(K - k) - v)) <= KERNEL_RTOL * scale
                k = 2 * k + 1

        check()
        # the two-part test settles probes the envelope alone does not
        assert probes["two_part_only"] >= 10 and probes["envelope"] >= 50, probes

    @pytest.mark.parametrize("lower0", [1.0, -np.inf],
                             ids=["pinned", "optimum_on_side"])
    def test_no_jump_without_room(self, lower0):
        # v_u = (1, -2): coordinate 0 pinned at 1, or a side through v_u
        weight = np.array([[2.0, 0.5], [0.5, 1.0]])
        prob = plain_problem(weight, np.array([1.0, -2.0]),
                             lower=np.array([lower0, -np.inf]),
                             upper=np.array([1.0, np.inf]))
        s, c = prob.reduced_gradient_terms()
        v0 = np.array([0.5, -1.0])
        for K in (1, 5, 50):
            rep = solve_fixed_iters(prob, v0, K)
            ref = reference_pgd(s, c, prob.lower, prob.upper, v0, prob.shape.step, K)
            assert rep.looped == K
            assert rep.optimum is None
            assert np.max(np.abs(rep.v - ref[-1])) <= KERNEL_RTOL * 2.0

    def test_no_tail_for_a_step_that_does_not_contract(self):
        lam, basis = np.array([1.0, 9.0]), np.eye(2)
        assert step_spectrum(lam, basis, 0.2) is not None
        for alpha in (2.0 / 9.0, 0.3, np.nan):  # max |1 - alpha lambda| >= 1
            assert step_spectrum(lam, basis, alpha) is None
        # the loop then runs every iteration: on a box the iterates stay bounded
        s, g = np.diag(lam), np.array([1.0, -1.0])
        lo, hi = np.full(2, -1.0), np.full(2, 1.0)
        v0 = np.array([0.3, 0.2])
        got, looped, tail = _iterate(np.eye(2) - 0.3 * s, 0.3, g, lo, hi,
                                     v0, 40, None)
        assert looped == 40 and tail is None
        ref = reference_pgd(s, g, lo, hi, v0, 0.3, 40)
        assert np.max(np.abs(got - ref[-1])) <= KERNEL_RTOL


class TestPointStart:
    """A v start gives the solve of its lift z, byte for byte."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=st.one_of(lifted_problems(), open_box_problems()),
           K=st.sampled_from([0, 1, 3, 8, 200]))
    def test_point_and_its_z_solve_alike(self, case, K):
        prob, v0 = case
        z0 = prob.lift(v0)
        from_z = solve_fixed_iters(prob, z0, K)
        from_point = solve_fixed_iters(prob, v0, K)
        assert from_point.looped == from_z.looped
        for a, b in ((from_point.v, from_z.v), (from_point.z, from_z.z)):
            assert a.tobytes() == b.tobytes()
        if from_z.optimum is None:
            assert from_point.optimum is None
        else:
            assert from_point.optimum.tobytes() == from_z.optimum.tobytes()


class TestStepSpectrumPowers:
    @staticmethod
    def direct(s, j):
        power = s.tau ** j
        one_minus = 1.0 - power
        one_minus[s.slow] = -np.expm1(j * s.log_tau)
        return power, one_minus

    @pytest.mark.parametrize("K", [8, 228])
    def test_cached_pairs_are_the_direct_formula(self, certified_doc, K):
        shape = certified_doc.window_shapes(certified_doc.certificate)[9]
        s = shape.spectrum
        assert s.slow.any() and not s.slow.all()
        for j in (1, 2, K - 7, K - 3, K - 1, K):
            for _ in range(2):  # computed, then kept
                got = s.powers(j)
                for cached, ref in zip(got, self.direct(s, j)):
                    assert cached.tobytes() == ref.tobytes()
                    assert not cached.flags.writeable
            assert s.powers(j)[0] is got[0]

    def test_a_run_keeps_few_pairs(self, certified_doc):
        doc, K = certified_doc, 228
        shapes = doc.window_shapes(doc.certificate)
        run_closed_loop(doc.scenario_config(shapes, K=K, steps=400, oracle=False))
        kept = [len(shapes[m].spectrum._powers) for m in range(shapes.M + 1)]
        assert max(kept) <= int(np.ceil(np.log2(K))) + 2
        assert kept[shapes.M] >= 1  # the full window's solves do jump


class TestTailOptimum:
    """A solve that settles reports the window optimum; no other does."""

    def test_settled_solves_report_the_oracle_optimum(self):
        settled = {True: 0, False: 0}

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(case=st.one_of(open_box_problems(), lifted_problems()),
               K=st.sampled_from([1, 5, 200]))
        def check(case, K):
            prob, v0 = case
            rep = solve_fixed_iters(prob, prob.lift(v0), K)
            settled[rep.looped < K] += 1
            if rep.looped == K:
                assert rep.optimum is None
                return
            v_star = solve_oracle(prob).v
            gap = np.linalg.norm(rep.optimum - v_star)
            assert gap <= optimum_tolerance(prob.shape, v_star)

        check()
        # the property is exercised on both sides
        assert min(settled.values()) >= 50, settled

    @pytest.mark.parametrize("kappa, rtol", [(1.0, 1e-12),
                                             (1e6, 8e6 * np.finfo(float).eps)])
    def test_tolerance_scales_with_conditioning(self, kappa, rtol):
        # S = 2 diag(1, kappa): n = 2, L/mu = kappa; 4 n kappa eps is below
        # the 1e-12 floor at kappa = 1 and 1.8e-9 at kappa = 1e6
        shape = plain_problem(np.diag([1.0, kappa]), np.zeros(2)).shape
        assert optimum_tolerance(shape, np.zeros(2)) == pytest.approx(rtol)
        v_star = np.array([3.0, 4.0])  # scaled by ||v*|| above 1
        assert optimum_tolerance(shape, v_star) == pytest.approx(5.0 * rtol)
