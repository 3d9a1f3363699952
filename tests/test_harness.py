import io
from dataclasses import replace

import numpy as np
import pytest

from conftest import (CONFIG_DIR, child_env, count_calls, doc_params,
                      make_system, simple_certificate)

import submhe.harness as harness
import submhe.mhe as mhe
from submhe.analysis import AnalysisParams, compute_rho
from submhe.controller import FeedbackLaw
from submhe.errors import (ContractionViolated, DegenerateDenominator,
                           DimensionMismatch, LmiViolated, MonitorViolation,
                           UnboundedSampleBox)
from submhe.harness import (PASS, SKIP, MonitorBundle, ScenarioConfig,
                            lipschitz_probe, monitor_step, run_closed_loop,
                            sample_disturbance_arrays)
from submhe.mhe import (MheProblem, WindowShapes, build_problem,
                        extract_estimate, residual_sigma_parts, sigma_lift,
                        slot_view)
from submhe.model import Box, LtiSystem, w_delta
from submhe.solver import optimum_tolerance, solve_fixed_iters, solve_oracle


def scenario(doc, cert, M=None, **kw):
    M = doc.mhe["M"] if M is None else M
    shapes = WindowShapes(doc.system, cert, M)
    defaults = dict(shapes=shapes, law=doc.controller, K=200, steps=12,
                    x0=np.array([1.0, -1.0, 1.0, -1.0]),
                    x_prior0=np.array([1.0, -1.0, 1.0, -1.0]),
                    seed=3, oracle=True,
                    params=doc_params(doc, shapes))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def record_calls(monkeypatch, name, copy_args=False):
    """Wrap harness.<name> where the loop looks it up; returns the list of
    (args, result) of its calls, with array arguments copied at the call
    when copy_args is set."""
    calls = []
    orig = getattr(harness, name)

    def recorded(*args, **kwargs):
        result = orig(*args, **kwargs)
        if copy_args:
            args = tuple(np.array(a) if isinstance(a, np.ndarray) else a
                         for a in args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(harness, name, recorded)
    return calls


def append_and_drop(window, item, t, M):
    """Reference window recurrence: append the step-t item and drop the
    oldest whenever the window would exceed min(M, t + 1) items."""
    out = np.vstack([window, np.asarray(item, dtype=float)[None, :]])
    return out[1:] if out.shape[0] > min(M, t + 1) else out


def reference_csv_text(log):
    """The whole record formatted at once, as simulate wrote it before its
    CSV was streamed: the reference for TrajectoryLog.write_csv."""
    n_x, n_y, n_u = log.x.shape[1], log.y.shape[1], log.u.shape[1]
    header = (["t"]
              + [f"x{i}" for i in range(n_x)]
              + [f"y{i}" for i in range(n_y)]
              + [f"u{i}" for i in range(n_u)]
              + [f"xhat{i}" for i in range(n_x)]
              + ["e_norm", "eps", "w_delta", "sigma_raw", "sigma_clamped"]
              + [f"mon_{name}" for name in harness.MONITOR_NAMES])
    head = np.column_stack([log.x, log.y, log.u, log.xhat, log.e_norm])
    tail = np.column_stack([log.w_delta, log.sigma_raw, log.sigma_clamped])
    eps = [""] * log.steps if log.eps is None else map(repr, log.eps.tolist())
    lines = [",".join(header)]
    for t, (h, eps_t, tl, verdicts) in enumerate(zip(
            head.tolist(), eps, tail.tolist(), log.verdicts.tolist())):
        lines.append(",".join([str(t), *map(repr, h), eps_t, *map(repr, tl),
                               *verdicts]))
    return "\n".join(lines) + "\n"


def written_csv(log):
    """The record as TrajectoryLog.write_csv writes it."""
    fh = io.StringIO()
    log.write_csv(fh)
    return fh.getvalue()


def box_contains_flags(sys, problem, z_k, states):
    """(what, xhat, yhat) feasible as four Box.contains calls on the
    step's z_k slots and window states: the reference for the loop's flags."""
    n_x, n_w = sys.n_x, sys.n_w
    slots = problem.window_slots(z_k)
    what = (sys.w1_box.contains(slots[:, :n_x], atol=1e-12)
            and sys.w2_box.contains(slots[:, n_x:n_w], atol=1e-12))
    return (what, sys.x_box.contains(states, atol=1e-9),
            sys.y_box.contains(slots[:, n_w:], atol=1e-9))


class TestSampleDisturbance:
    def test_degenerate_box_gives_zeros(self):
        w1, w2 = sample_disturbance_arrays(0, Box.from_pairs([[0.0, 0.0]] * 2),
                                           Box.from_pairs([[0.0, 0.0]]), 5)
        assert np.array_equal(w1, np.zeros((5, 2)))
        assert np.array_equal(w2, np.zeros((5, 1)))

    def test_same_seed_identical(self):
        box1 = Box.from_pairs([[-0.1, 0.1]] * 3)
        box2 = Box.from_pairs([[-0.2, 0.2]])
        a = sample_disturbance_arrays(42, box1, box2, 100)
        b = sample_disturbance_arrays(42, box1, box2, 100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_disturbance_arrays(43, box1, box2, 100)
        assert not np.array_equal(a[0], c[0])

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
            sample_disturbance_arrays(0, Box.unbounded(2),
                                      Box.from_pairs([[0, 1]]), 3)

    @pytest.mark.parametrize("seed", [1, 2, 3, 12345])
    def test_draws_are_rng_uniform_bitwise(self, case_study_doc, certified_doc,
                                           seed):
        # Box.sample draws the stream; perfbench/run.py's replay gate draws
        # it with rng.uniform, w1 then w2, so both must give the same bytes
        pinned = (Box.from_pairs([[-0.1, 0.1], [0.0, 0.0]]),
                  Box.from_pairs([[0.0, 0.0], [-0.2, 0.3]]))
        for w1_box, w2_box in [(d.system.w1_box, d.system.w2_box)
                               for d in (case_study_doc, certified_doc)] + [pinned]:
            rng = np.random.default_rng(seed)
            want = [rng.uniform(box.lower, box.upper, size=(50, box.dim))
                    for box in (w1_box, w2_box)]
            got = sample_disturbance_arrays(seed, w1_box, w2_box, 50)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert not got[0][:, 1].any() and not got[1][:, 0].any()


class TestClosedLoop:
    def test_nominal_exact_information_decays(self, case_study_doc,
                                              monkeypatch):
        doc = case_study_doc
        monkeypatch.setattr(
            harness, "sample_disturbance_arrays",
            lambda seed, w1_box, w2_box, T: (np.zeros((T, w1_box.dim)),
                                             np.zeros((T, w2_box.dim))))
        cfg = scenario(doc, doc.certificate, steps=30, K=300)
        log = run_closed_loop(cfg)
        e_norms = log.e_norm
        x_norms = np.linalg.norm(log.x, axis=1)
        assert e_norms[-1] <= 1e-8
        assert x_norms[-1] <= 1e-5
        assert x_norms[-1] < x_norms[0]

    def test_uncertified_gate(self, case_study_doc):
        # rho >= 1: the library run still runs and records, uncertified and
        # with no ledger; refusing it is simulate's decision
        doc = case_study_doc
        log = run_closed_loop(scenario(doc, doc.certificate, steps=3))
        assert log.steps == 3
        assert not log.certified and log.ledger is None
        with pytest.raises(ContractionViolated) as exc:
            compute_rho(doc.certificate.eta, doc.mhe["M"])
        assert log.uncertified_reason == str(exc.value)
        assert f"rho = 6^(1/{doc.mhe['M']})" in log.uncertified_reason

    def test_zero_budget_diagnostic_path(self, case_study_doc):
        doc = case_study_doc
        cfg = scenario(doc, doc.certificate, K=0, steps=8)
        log = run_closed_loop(cfg)
        assert not log.certified
        assert log.steps == 8
        assert log.eps.max() > 0.1  # warm start never improves

    @pytest.mark.parametrize("K, params, cause", [
        (50, None, "no analysis params"),
        (50, LmiViolated(0.89, 1e-13), "LmiViolated: detectability LMI "
         "fails: largest eigenvalue 8.900000e-01 + rounding margin 1.0e-13 > 0"),
        (0, "built", "K=0, the small-gain test needs K >= 1")],
        ids=["no_L_phi", "build_error", "zero_budget"])
    def test_no_ledger_is_uncertified(self, certified_doc, K, params, cause):
        doc = certified_doc
        shapes = doc.window_shapes(doc.certificate)
        cfg = doc.scenario_config(shapes, K=K, steps=2, oracle=False,
                                  params=(doc_params(doc, shapes)
                                          if params == "built" else params))
        log = run_closed_loop(cfg)  # rho < 1 but no ledger: no raise
        assert not log.certified and log.ledger is None
        assert log.uncertified_reason == f"no gain ledger: {cause}"

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    @pytest.mark.parametrize("params", ["built", "none"])
    def test_lyapunov_checked_only_under_a_passing_lmi(self, certified_doc,
                                                       monkeypatch, params,
                                                       oracle):
        # AnalysisParams already required the LMI; otherwise (no params, or
        # the LmiViolated that stopped their build, as simulate hands it on)
        # the loop evaluates it once, and only when the monitors run. P x 2
        # fails it, and the Lyapunov monitor then skips every step
        doc = certified_doc
        checks = count_calls(monkeypatch, harness, "verify_ioss_lmi")
        for cert, verdict in ((doc.certificate, PASS),
                              (replace(doc.certificate, P=2.0 * doc.certificate.P),
                               SKIP)):
            checks.clear()
            shapes = WindowShapes(doc.system, cert, doc.mhe["M"])
            built = None
            if params == "built":
                try:
                    built = doc_params(doc, shapes)
                except LmiViolated as exc:
                    built = exc
            log = run_closed_loop(doc.scenario_config(
                shapes, K=50, steps=12, oracle=oracle, params=built))
            evaluated = oracle and not isinstance(built, AnalysisParams)
            assert len(checks) == int(evaluated)
            assert log.monitor_counts()["lyapunov"][verdict if oracle else SKIP] == 12

    def test_determinism_bytes(self, case_study_doc):
        doc = case_study_doc
        cfg = scenario(doc, doc.certificate, steps=10)
        a = written_csv(run_closed_loop(cfg))
        b = written_csv(run_closed_loop(cfg))
        assert a == b
        c = written_csv(run_closed_loop(scenario(doc, doc.certificate, steps=10,
                                                 seed=4)))
        assert a != c

    def test_warm_start_dimension_law(self, case_study_doc):
        # a warm start of the wrong length would raise in the solve
        doc = case_study_doc
        M = doc.mhe["M"]
        cfg = scenario(doc, doc.certificate, steps=2 * M)
        dims = []
        run_closed_loop(cfg, observe=lambda prob, rep: dims.append(prob.dim_z))
        assert dims == [4 + min(M, t) * (5 + 1) for t in range(2 * M)]

    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_warm_start_of_wrong_length_raises(self, case_study_doc, extra):
        doc = case_study_doc
        sys, M = doc.system, doc.mhe["M"]
        rng = np.random.default_rng(5)
        prob = build_problem(sys, doc.certificate, np.zeros(sys.n_x),
                             rng.uniform(-1, 1, (M, sys.n_u)),
                             rng.uniform(-1, 1, (M, sys.n_y)), M, M)
        # a start is a v or a z; any other length names both
        for start in (np.zeros(prob.dim_z + extra), np.zeros(prob.dim_v + extra)):
            for K in (0, 3):
                with pytest.raises(DimensionMismatch,
                                   match=rf"\({prob.dim_v},\) \(v\) or "
                                         rf"\({prob.dim_z},\) \(z\)"):
                    solve_fixed_iters(prob, start, K)

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    @pytest.mark.parametrize("K", [0, 3, 25, 228])
    @pytest.mark.parametrize("source", ["certified_doc", "case_study_doc"])
    def test_warm_start_is_the_padded_previous_point(self, request, source, K,
                                                     oracle, monkeypatch):
        # the loop carries the previous v, padded; the reference is the
        # lifted previous z read back through select_v, and the prior at t = 0
        doc = request.getfixturevalue(source)
        solves = record_calls(monkeypatch, "solve_fixed_iters")
        cfg = scenario(doc, doc.certificate, K=K, steps=3 * doc.mhe["M"],
                       oracle=oracle)
        log = run_closed_loop(cfg)
        assert len(solves) == log.steps
        for t, ((problem, start, k_arg), report) in enumerate(solves):
            assert k_arg == K
            assert start.shape == (problem.dim_v,), t
            if t == 0:
                expect = cfg.x_prior0
            else:
                z_prev = solves[t - 1][1].z
                expect = problem.select_v(sigma_lift(z_prev, t, cfg.shapes))
            assert np.array_equal(start, expect), t

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    def test_loop_never_rereads_the_warm_start(self, certified_doc, oracle):
        # the warm start is the previous v itself: no step reads v back off
        # a z or lifts the previous z to the next window
        doc = certified_doc
        counts = []
        for _ in range(2):
            with pytest.MonkeyPatch.context() as mp:
                select = count_calls(mp, MheProblem, "select_v")
                lift = count_calls(mp, harness, "sigma_lift")
                shapes = doc.window_shapes(doc.certificate)
                run_closed_loop(doc.scenario_config(
                    shapes, K=228, steps=400, oracle=oracle,
                    params=doc_params(doc, shapes)))
            counts.append((len(select), len(lift)))
        assert counts[0] == counts[1] == (0, 0)

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    def test_lifts_only_where_eps_is_measured(self, certified_doc, oracle,
                                              monkeypatch):
        # no step lifts: z_K, and z* with the oracle on, are formed only in
        # the block pass, as stacked products, once per growing step and
        # once per block of full-window steps
        doc = certified_doc
        T = 60
        lifts = count_calls(monkeypatch, MheProblem, "lift")
        stacked = count_calls(monkeypatch, harness, "_stacked_window")
        shapes = doc.window_shapes(doc.certificate)
        log = run_closed_loop(doc.scenario_config(
            shapes, K=25, steps=T, oracle=oracle, params=doc_params(doc, shapes)))
        assert len(lifts) == 0
        M = shapes.M
        assert len(stacked) == M + -(-(T - M) // harness.FLAG_CHUNK)
        if oracle:
            assert 0 < log.oracle_solves < T  # both sources of v* are measured

    @pytest.mark.parametrize("K", [0, 25])
    def test_block_norms_are_each_steps_bytes(self, certified_doc, K):
        # eps, eps_v and warm_v are filled a block at a time from the kept
        # v_K, v* and warm starts; each row must have the bytes of the norm
        # the step itself would take of z_K - z*, v_K - v* and v0 - v*. K = 0
        # takes every v* from the oracle, K = 25 mostly from the tail. The
        # runs end in the growing phase, at its end, one step past it, and at
        # and one step past a full block
        doc = certified_doc
        M, chunk = doc.mhe["M"], harness.FLAG_CHUNK
        for steps in (1, M, M + 1, M + chunk, M + chunk + 1):
            cfg = scenario(doc, doc.certificate, K=K, steps=steps)
            observed = []
            log = run_closed_loop(cfg, observe=lambda prob, rep: observed.append(
                (prob, rep)))
            start, expect = cfg.x_prior0, []
            for prob, rep in observed:
                v_star = rep.optimum
                if v_star is None:
                    v_star = solve_oracle(prob, start=rep.v).v
                expect.append((np.linalg.norm(rep.z - prob.lift(v_star)),
                               np.linalg.norm(rep.v - v_star),
                               np.linalg.norm(start - v_star)))
                start = rep.v if prob.t >= M else np.concatenate(
                    [rep.v, np.zeros(doc.system.n_w)])
            for name, ref in zip(("eps", "eps_v", "warm_v"), zip(*expect)):
                got = getattr(log, name)
                assert got.tobytes() == np.array(ref).tobytes(), (name, steps)
            if K == 0:
                assert log.oracle_solves == steps

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    def test_record_columns(self, certified_doc, oracle):
        doc = certified_doc
        sys, T = doc.system, 7
        log = run_closed_loop(scenario(doc, doc.certificate, K=25, steps=T,
                                       oracle=oracle))
        assert log.steps == T
        for name, cols in (("x", sys.n_x), ("y", sys.n_y), ("u", sys.n_u),
                           ("xhat", sys.n_x)):
            arr = getattr(log, name)
            assert arr.shape == (T, cols) and arr.dtype == np.float64
        for name in ("e_norm", "w_delta", "sigma_raw", "sigma_clamped"):
            arr = getattr(log, name)
            assert arr.shape == (T,) and arr.dtype == np.float64
        assert log.looped.shape == (T,)
        assert np.issubdtype(log.looped.dtype, np.integer)
        assert log.feasible.shape == (T, 3) and log.feasible.dtype == bool
        assert log.verdicts.shape == (T, len(harness.MONITOR_NAMES))
        for name in ("eps", "eps_v", "warm_v"):
            arr = getattr(log, name)
            if oracle:
                assert arr.shape == (T,) and arr.dtype == np.float64
            else:
                assert arr is None
        if not oracle:
            assert np.all(log.verdicts == "skip")

    def test_observe_sees_every_step_in_order(self, certified_doc):
        doc = certified_doc
        seen = []
        log = run_closed_loop(scenario(doc, doc.certificate, K=25, steps=9),
                              observe=lambda prob, rep: seen.append((prob, rep)))
        assert [prob.t for prob, _ in seen] == list(range(9))
        assert [rep.looped for _, rep in seen] == log.looped.tolist()

    def test_windows_are_the_last_inputs_and_outputs(self, certified_doc,
                                                     monkeypatch):
        doc = certified_doc
        M = 4
        built = record_calls(monkeypatch, "build_problem", copy_args=True)
        log = run_closed_loop(scenario(doc, doc.certificate, M=M, K=30,
                                       steps=3 * M, oracle=False))
        sys = doc.system
        u_ref, y_ref = np.zeros((0, sys.n_u)), np.zeros((0, sys.n_y))
        assert len(built) == log.steps
        for t, (args, problem) in enumerate(built):
            _, _, _, u_win, y_win, M_arg, t_arg = args
            assert (M_arg, t_arg) == (M, t)
            assert u_win.shape == (min(M, t), sys.n_u)
            assert np.array_equal(u_win, u_ref)
            assert np.array_equal(y_win, y_ref)
            # the windows are views of the record's rows t - min(M, t) .. t - 1
            rows = slice(t - min(M, t), t)
            assert np.array_equal(problem.u_window, log.u[rows])
            assert np.array_equal(problem.y_window, log.y[rows])
            if t > 0:
                assert np.shares_memory(problem.u_window, log.u)
                assert np.shares_memory(problem.y_window, log.y)
            u_ref = append_and_drop(u_ref, log.u[t], t, M)
            y_ref = append_and_drop(y_ref, log.y[t], t, M)

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    def test_one_build_and_one_evaluate_per_step(self, certified_doc,
                                                 monkeypatch, oracle):
        # perfbench times a step between consecutive harness.evaluate calls
        # and reports mhe.build_problem per-call costs and counts. The
        # record-only columns are filled once per run: sigma by at most
        # M + 1 residual_sigma_parts calls (it is 0 after M), w_delta by
        # one stacked call
        doc = certified_doc
        M, T = doc.mhe["M"], 400
        per_step = {name: record_calls(monkeypatch, name)
                    for name in ("build_problem", "solve_fixed_iters", "evaluate")}
        sigma = count_calls(monkeypatch, harness, "residual_sigma_parts")
        lyapunov = count_calls(monkeypatch, harness, "w_delta")
        # a step forms only its estimate, and the flags are checked from the
        # kept rows in stacked blocks, so no step forms its window states
        assert not hasattr(harness, "extract_estimate")
        estimated = count_calls(monkeypatch, mhe, "extract_estimate")
        log = run_closed_loop(scenario(doc, doc.certificate, K=228, steps=T,
                                       oracle=oracle))
        assert log.certified and log.steps == T
        for name, calls in per_step.items():
            assert len(calls) == T, name
        assert [p.t for _, p in per_step["build_problem"]] == list(range(T))
        assert len(sigma) <= M + 1
        assert len(lyapunov) <= 1
        assert not estimated

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    @pytest.mark.parametrize("K", [0, 3, 25, 228])
    @pytest.mark.parametrize("source", ["certified_doc", "case_study_doc"])
    def test_record_only_columns_are_the_per_step_values(self, request, source,
                                                         K, oracle):
        # e_norm, w_delta and sigma are filled after the loop from the
        # recorded x and xhat rows, and the flags from the kept v_K and input
        # windows; each row must have the bytes of the value computed from
        # that step's own rows, or from what it observed. One run is shorter
        # than the growing phase, one ends in it, one runs past it.
        doc = request.getfixturevalue(source)
        cert, M = doc.certificate, doc.mhe["M"]
        for steps in (1, M, 3 * M):
            cfg = scenario(doc, cert, K=K, steps=steps, oracle=oracle)
            observed = []
            log = run_closed_loop(cfg, observe=lambda prob, rep: observed.append(
                (prob, rep)))
            rows = list(zip(log.xhat, log.x))
            sigma = [residual_sigma_parts(t, cfg.shapes) for t in range(steps)]
            expect = {
                "e_norm": [np.linalg.norm(xhat - x) for xhat, x in rows],
                "w_delta": [w_delta(cert, xhat, x) for xhat, x in rows],
                "sigma_raw": [raw for raw, _ in sigma],
                "sigma_clamped": [clamped for _, clamped in sigma],
                "feasible": [box_contains_flags(doc.system, prob, rep.z,
                                                extract_estimate(prob, rep.v))
                             for prob, rep in observed],
            }
            for name, ref in expect.items():
                got = getattr(log, name)
                assert got.tobytes() == np.array(ref).tobytes(), (name, steps)

    @pytest.mark.parametrize("chunk", [harness.FLAG_CHUNK, 5])
    def test_flags_match_box_contains(self, monkeypatch, chunk):
        # The flags of the growing phase are checked after the last step, and
        # those of the full-window steps in blocks of FLAG_CHUNK steps, each
        # block as the loop fills it and the rest after the last step; each
        # step's expected flags come from what the step observed, its problem
        # and solve report. The true state starts outside the tight x and y
        # boxes, so the estimated states and outputs leave them early on. The
        # solver clamps the disturbance estimates into their box, so the test
        # perturbs its point: at the first full-window step (t = M), at step
        # 5 and at the step before the last a disturbance estimate leaves its
        # box, at step 12 the oldest window state alone leaves the x box, and
        # the last step gets a NaN disturbance estimate. The runs end in the
        # growing phase, at its end, one step past it, and at and one step
        # past a full block; a block of 5 steps splits the 20-step run's
        # full-window steps 4..19 at 9, 14 and 19. So a row or input window
        # off by one at a block's or the run's ends changes a flag
        monkeypatch.setattr(harness, "FLAG_CHUNK", chunk)
        box = lambda b, n: Box(np.full(n, -b), np.full(n, b))
        sys = LtiSystem(A=[[0.9, 0.3], [0.0, 0.7]], B=[[0.0], [1.0]],
                        C=[[1.0, 0.0]], x_box=box(1.0, 2), u_box=box(1.0, 1),
                        y_box=box(0.8, 1), w1_box=box(0.05, 2),
                        w2_box=box(0.05, 1))
        cert = simple_certificate(2, 1, eta=0.5)
        M, n_x = 4, sys.n_x
        solve = harness.solve_fixed_iters

        def run(steps):
            what_out = (M, 5, steps - 2)

            def perturbed(problem, z0, K):
                report = solve(problem, z0, K)
                v = report.v.copy()
                if problem.shape.m_eff == 0:
                    return report
                if problem.t in what_out:
                    v[n_x] += 1.0
                elif problem.t == 12:  # shift xhat_0; w1_0 cancels it in xhat_1
                    v[:n_x] += [2.2, 0.0]
                    v[n_x:2 * n_x] -= sys.A @ [2.2, 0.0]
                elif problem.t == steps - 1:
                    v[n_x + 1] = np.nan
                else:
                    return report
                return replace(report, v=v)

            monkeypatch.setattr(harness, "solve_fixed_iters", perturbed)
            cfg = ScenarioConfig(shapes=WindowShapes(sys, cert, M),
                                 law=FeedbackLaw(np.array([[0.2, 0.3]]), box(1.0, 1)),
                                 K=50, steps=steps, x0=np.array([3.0, -2.0]),
                                 x_prior0=np.zeros(2), oracle=False)
            observed = []
            log = run_closed_loop(cfg, observe=lambda prob, rep: observed.append(
                (prob, rep, extract_estimate(prob, rep.v))))
            flags = [tuple(f) for f in log.feasible.tolist()]
            assert flags == [box_contains_flags(sys, problem, report.z, states)
                             for problem, report, states in observed], steps
            return flags, observed

        for steps in (1, M, M + 1, M + chunk, M + chunk + 1):
            run(steps)
        steps = 20
        flags, observed = run(steps)
        for i in range(3):
            assert any(f[i] for f in flags) and not all(f[i] for f in flags)
        # the tight boxes alone, before any perturbation
        assert not all(f[1] for f in flags[:5])
        assert not all(f[2] for f in flags[:5])
        # step 12's w1_0, which cancels the shift, leaves its box as well
        assert [t for t, f in enumerate(flags) if not f[0]] == [M, 5, 12, steps - 2,
                                                                steps - 1]
        states_12 = observed[12][2]
        assert not flags[12][1] and sys.x_box.contains(states_12[1:])
        assert flags[-1] == (False, False, False)

    @pytest.mark.parametrize("source", ["case_study_doc", "certified_doc"])
    def test_flag_entries_are_each_steps_bytes(self, request, source):
        # the flag checks form each block's z and window states in stacked
        # products; each row must be the step's own z and extract_estimate,
        # byte for byte, at every window length, and so must the z's slots
        # through the slot view
        doc = request.getfixturevalue(source)
        observed = []
        cfg = scenario(doc, doc.certificate, steps=3 * doc.mhe["M"], oracle=False)
        run_closed_loop(cfg, observe=lambda prob, rep: observed.append((prob, rep)))
        for m in range(cfg.shapes.M + 1):
            steps = [(p, r) for p, r in observed if p.shape.m_eff == m]
            z, states = harness._stacked_window(cfg.shapes[m], np.array(
                [np.concatenate((r.v, p.u_window.ravel())) for p, r in steps]))
            assert z.tobytes() == np.array([r.z for _, r in steps]).tobytes(), m
            assert slot_view(z, cfg.shapes.sys).tobytes() == np.array(
                [p.window_slots(r.z) for p, r in steps]).tobytes(), m
            assert states.tobytes() == np.array(
                [extract_estimate(p, r.v).ravel() for p, r in steps]).tobytes(), m

    def test_disturbance_estimates_stay_feasible(self, case_study_doc):
        doc = case_study_doc
        log = run_closed_loop(scenario(doc, doc.certificate, steps=15))
        assert log.feasible[:, 0].all()

    def test_certified_run_monitors_all_pass(self, certified_doc):
        doc = certified_doc
        cfg = scenario(doc, doc.certificate, M=9, K=700, steps=25,
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

    @pytest.mark.parametrize("K", [0, 1, 25])
    def test_contraction_monitor_holds_in_v_and_z(self, certified_doc, K):
        # At K = 0 the iterate is the box projection of the warm start, and
        # phi(0) = 1: a projection never moves v away from v*. In z the
        # zero-padded warm start (off the lift's range) can lie nearer to z*
        # than its projection does, which phi_z(0) = lift gain allows for.
        doc = certified_doc
        shapes = doc.window_shapes(doc.certificate)
        cfg = doc.scenario_config(shapes, K=K, steps=10, oracle=True,
                                  params=doc_params(doc, shapes))
        log = run_closed_loop(cfg)
        counts = log.monitor_counts()["contraction"]
        assert counts["fail"] == 0
        assert counts["pass"] == 10

    @pytest.mark.parametrize("source", ["rho_violated", "small_gain_fails"])
    def test_uncertified_skips_trajectory_monitors(self, source, case_study_doc,
                                                   certified_doc):
        if source == "rho_violated":
            doc = case_study_doc
            cfg = scenario(doc, doc.certificate, steps=6)
        else:
            # rho < 1, but K = 25 is far below K*: the ledger fails small gain
            doc = certified_doc
            shapes = doc.window_shapes(doc.certificate)
            cfg = doc.scenario_config(shapes, K=25, steps=6,
                                      oracle=True, params=doc_params(doc, shapes))
        log = run_closed_loop(cfg)
        assert not log.certified
        if source == "rho_violated":
            # no ledger is reported, but its one-step constants still feed
            # the error recursion monitor
            assert log.ledger is None
            assert log.monitor_counts()["eps_recursion"]["pass"] == 5
        if source == "small_gain_fails":
            assert not log.ledger.passed
            assert log.uncertified_reason == (
                "small-gain test fails at K=25: margin 1 - (P1 + P2 + P3) = "
                f"{log.ledger.margin:.6e} <= 0")
        counts = log.monitor_counts()
        assert counts["traj_eps"]["skip"] == 6
        assert counts["traj_err"]["skip"] == 6
        assert counts["lyapunov"]["pass"] == 6  # rho-free, still checked

    def test_strict_mode_raises_on_failure(self, case_study_doc, monkeypatch):
        doc = case_study_doc
        # an absurdly optimistic rate makes the contraction monitor fail
        monkeypatch.setattr("submhe.analysis.worst_case_contraction",
                            lambda shapes: 1e-6)
        evaluated = record_calls(monkeypatch, "evaluate")
        log = run_closed_loop(scenario(doc, doc.certificate, K=1, steps=6))
        assert len(evaluated) == 6  # a failure is recorded; every step runs
        first = next(t for t, verdicts in enumerate(log.verdicts.tolist())
                     if "fail" in verdicts)
        failed = [name for name, v in zip(harness.MONITOR_NAMES,
                                          log.verdicts[first])
                  if v == "fail"]
        assert "contraction" in failed
        with pytest.raises(MonitorViolation) as exc:
            log.raise_first_failure()
        assert str(exc.value) == (f"monitor(s) {', '.join(failed)} failed at "
                                  f"step {first}")
        # a record without failures does not raise
        passed = np.where(log.verdicts == "fail", "pass", log.verdicts)
        assert replace(log, verdicts=passed).raise_first_failure() is None

    def test_oracle_only_where_the_tail_did_not_settle(self, certified_doc,
                                                      monkeypatch):
        doc = certified_doc
        shapes = doc.window_shapes(doc.certificate)
        cfg = doc.scenario_config(shapes, K=25, steps=60, oracle=True,
                                  params=doc_params(doc, shapes))
        oracle_calls = record_calls(monkeypatch, "solve_oracle")
        log = run_closed_loop(cfg)
        solver = log.summary_dict()["solver"]
        assert len(oracle_calls) == solver["oracle_solves"]
        assert solver["oracle_solves"] == solver["solves"] - solver["tail_jumps"]
        assert 0 < solver["oracle_solves"] < solver["solves"]

        # the reference run takes v* from the oracle on every step
        solve = harness.solve_fixed_iters
        monkeypatch.setattr(harness, "solve_fixed_iters",
                            lambda *a: replace(solve(*a), optimum=None))
        oracle_calls.clear()
        ref = run_closed_loop(cfg)
        assert len(oracle_calls) == 60
        for t, ((problem,), oracle) in enumerate(oracle_calls):
            assert abs(log.eps[t] - ref.eps[t]) <= (
                1e-12 * max(1.0, float(np.linalg.norm(problem.lift(oracle.v)))))
        assert np.array_equal(log.verdicts, ref.verdicts)
        assert np.array_equal(log.xhat, ref.xhat)
        assert log.warm_v == pytest.approx(ref.warm_v, rel=1e-12, abs=1e-12)

    def test_summary_reports_the_oracle_bound_and_extra_iterations(
            self, certified_doc, monkeypatch):
        doc = certified_doc
        shapes = doc.window_shapes(doc.certificate)
        cfg = doc.scenario_config(shapes, K=25, steps=60, oracle=True,
                                  params=doc_params(doc, shapes))
        oracle_calls = record_calls(monkeypatch, "solve_oracle")
        solver = run_closed_loop(cfg).summary_dict()["solver"]
        reports = [oracle for _, oracle in oracle_calls]
        assert reports
        assert solver["oracle_extra_iters"] == sum(r.iters for r in reports)
        assert solver["oracle_bound_max"] == max(r.bound for r in reports)
        for (problem,), oracle in oracle_calls:
            assert oracle.bound <= optimum_tolerance(problem.shape, oracle.v)

        off = run_closed_loop(replace(cfg, oracle=False)).summary_dict()["solver"]
        assert off["oracle_extra_iters"] == 0
        assert off["oracle_bound_max"] is None

    def test_oracle_off_skips_everything(self, case_study_doc):
        doc = case_study_doc
        log = run_closed_loop(scenario(doc, doc.certificate, steps=5,
                                       oracle=False))
        assert log.eps is None
        counts = log.monitor_counts()
        for name in counts:
            assert counts[name]["skip"] == 5

    def test_csv_layout(self, case_study_doc):
        doc = case_study_doc
        log = run_closed_loop(scenario(doc, doc.certificate, steps=3))
        lines = written_csv(log).strip().split("\n")
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

    @pytest.mark.parametrize("oracle", [False, True], ids=["oracle_off",
                                                           "oracle_on"])
    @pytest.mark.parametrize("K", [0, 25])
    @pytest.mark.parametrize("source", ["certified_doc", "case_study_doc"])
    def test_written_csv_is_the_reference_text(self, request, source, K, oracle):
        # the CSV is written a row at a time, reading FLAG_CHUNK steps of the
        # record at once; its text must be the whole-record reference's. The
        # runs end before, at and just past the growing phase, and past
        # several blocks
        doc = request.getfixturevalue(source)
        M = doc.mhe["M"]
        for steps in (1, M, M + 1, 400):
            log = run_closed_loop(scenario(doc, doc.certificate, K=K,
                                           steps=steps, oracle=oracle))
            assert written_csv(log) == reference_csv_text(log), steps

    def test_certified_run_tails_settle(self, certified_doc):
        # bounded disturbance, certified budget: all sups finite and the last
        # quarter of the run is quieter than the first quarter
        doc = certified_doc
        cfg = scenario(doc, doc.certificate, M=9, K=700, steps=40,
                       x0=np.array([12.0, -10.0, 10.0, -10.0]),
                       x_prior0=np.array([7.0, -7.0, 3.0, -5.0]))
        log = run_closed_loop(cfg)
        x_norms = np.linalg.norm(log.x, axis=1)
        for series in (x_norms, log.e_norm, log.eps):
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
    cfg = doc.scenario_config(doc.window_shapes(doc.certificate), K=40,
                              seed=int(seed), steps=2 * doc.mhe["M"] + 2,
                              oracle=True)
    run_closed_loop(cfg).write_csv(sys.stdout)
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
                             capture_output=True, text=True, check=True,
                             env=child_env())
        return res.stdout

    together = csv_text(runs)
    apart = "".join(csv_text([run]) for run in runs)
    assert together == apart
    assert sum(line.startswith("t,") for line in together.splitlines()) == 2


class TestMonitorStep:
    """monitor_step on short hand-made series. Most cases read the last
    step, t = 5 of a window-length-3 run: its sups cover steps 0..4, its
    Lyapunov anchor is w_delta[2] and its disturbance sum j = 1..3."""

    M = 3

    def bundle(self, **kw):
        defaults = dict(phi=0.5, phi_z=0.5, L_phi=2.0, C1=1.0, C2=1.0, C3=1.0, bar_H=2.0,
                        eta=0.8, ledger=None)
        defaults.update(kw)
        return MonitorBundle(**defaults)

    def series(self, **last):
        """Six steps of series; `last` overrides the values at t = 5."""
        s = dict(x_norm=[1.0] * 6, e_norm=[1.0] * 5 + [0.5],
                 w_norm=[0.1] * 6, w_q=[0.01] * 6, sigma=[0.0] * 6,
                 eps=[0.3] * 4 + [0.2, 0.1], eps_v=[0.1] * 6,
                 warm_v=[0.5] * 6, w_delta=[1.0] * 6)
        s = {name: np.array(vals) for name, vals in s.items()}
        for name, value in last.items():
            s[name][-1] = value
        return s

    def verdicts(self, bundle=None, M=None, **series):
        """{monitor name: verdict list over the steps}."""
        rows = monitor_step(bundle or self.bundle(),
                            self.M if M is None else M, **series)
        return dict(zip(harness.MONITOR_NAMES, map(list, zip(*rows))))

    def last(self, bundle=None, **last):
        return {name: v[-1] for name, v in
                self.verdicts(bundle, **self.series(**last)).items()}

    def test_recursion_pass_and_fail(self):
        # rhs = 0.5 * 0.2 + 1 + 1 + 0.1 + 0 = 2.2
        assert self.last()["eps_recursion"] == "pass"
        assert self.last(eps=10.0)["eps_recursion"] == "fail"

    def test_skip_at_origin_step(self):
        v = self.verdicts(**self.series())
        assert v["eps_recursion"] == ["skip"] + ["pass"] * 5

    @pytest.mark.parametrize("name", ["x_norm", "w_norm"])
    def test_sups_stop_before_the_step(self, name):
        # eps_t = 3 breaks rhs = 2.2 unless the bound's sup counts a large
        # norm: one at step t - 1 counts, one at step t itself does not
        s = self.series(eps=3.0)
        s[name][-2] = 100.0
        assert self.verdicts(**s)["eps_recursion"][-1] == "pass"
        s = self.series(eps=3.0, **{name: 100.0})
        assert self.verdicts(**s)["eps_recursion"][-1] == "fail"

    def test_lyapunov_inequality(self):
        # rhs = 6 * 0.8^3 * w_delta[2] + 2*2*eps^2 + 6*sum(eta^{j-1} w_q[5-j]);
        # in the second case only w_q[2..4] enter, w_q[0..1] lie before the
        # window of t = 5
        for w_q, window_sum in (
                ([0.01] * 6, 0.01 + 0.8 * 0.01 + 0.64 * 0.01),
                ([50.0, 50.0, 0.03, 0.02, 0.01, 0.0],
                 0.01 + 0.8 * 0.02 + 0.64 * 0.03)):
            rhs = 6 * 0.8 ** 3 + 4 * 0.01 + 6 * window_sum
            for w_delta, expect in ((rhs - 1e-3, "pass"), (rhs + 1e-3, "fail")):
                s = self.series(w_delta=w_delta)
                s["w_q"] = np.array(w_q)
                assert self.verdicts(**s)["lyapunov"][-1] == expect

    def test_lyapunov_anchor(self):
        # M = 2, eta = 0.5, no eps or disturbance terms: rhs_t =
        # 6 * 0.5^m_eff * w_delta[t - m_eff], m_eff = min(2, t). The anchor
        # stays at step 0 while the window grows (t <= 2) and then trails
        # two steps behind: 6 | 3 | 1.5 | 1.5*2 | 1.5*1.8 | 1.5*2.8
        s = self.series()
        s["eps"] = np.zeros(6)
        s["w_q"] = np.zeros(6)
        s["w_delta"] = np.array([1.0, 2.0, 1.8, 2.8, 3.0, 4.0])
        v = self.verdicts(self.bundle(eta=0.5, bar_H=0.0), M=2, **s)
        assert v["lyapunov"] == ["pass", "pass", "fail", "pass", "fail", "pass"]

    def test_contraction_monitor(self):
        assert self.last(eps_v=0.24)["contraction"] == "pass"
        assert self.last(eps_v=0.26)["contraction"] == "fail"

    def test_contraction_monitor_checks_z(self):
        # eps_v = 0.1 <= phi * warm_v = 0.2 passes in v; in z the bound is
        # phi_z * warm_v = 0.32, so only the z form fails
        b = self.bundle(phi_z=0.8)
        assert self.last(b, warm_v=0.4, eps=0.31)["contraction"] == "pass"
        assert self.last(b, warm_v=0.4, eps=0.33)["contraction"] == "fail"

    def test_missing_constants_skip(self):
        b = self.bundle(C1=None, C2=None, C3=None, L_phi=None)
        v = self.verdicts(b, **self.series())
        assert v["eps_recursion"] == ["skip"] * 6
        assert v["lyapunov"] == ["pass"] * 6  # rho- and L_phi-free

    def test_failed_lmi_skips_only_the_lyapunov_monitor(self):
        # eta is None when the certificate's LMI fails, the decay's premise
        series = self.series(eps=10.0)
        kept = self.verdicts(**series)
        v = self.verdicts(self.bundle(eta=None), **series)
        assert v["lyapunov"] == ["skip"] * 6
        assert kept["eps_recursion"][-1] == "fail"
        assert {name: col for name, col in v.items() if name != "lyapunov"} == {
            name: col for name, col in kept.items() if name != "lyapunov"}


class TestLipschitzProbe:
    def test_case_study_magnitude_and_stability(self, case_study):
        sys, cert, _ = case_study
        a = lipschitz_probe(WindowShapes(sys, cert, 5), n_trials=200, seed=0,
                            prior_scale=5.0, y_scale=2.0)
        b = lipschitz_probe(WindowShapes(sys, cert, 5), n_trials=200, seed=1,
                            prior_scale=5.0, y_scale=2.0)
        for probe in (a, b):
            assert np.isfinite(probe.value)
            assert probe.value >= 1.0
            assert 5.32 / 10 <= probe.value <= 5.32 * 10
        assert abs(a.value - b.value) / max(a.value, b.value) < 0.5

    def test_scale_robustness(self, case_study):
        sys, cert, _ = case_study
        a = lipschitz_probe(WindowShapes(sys, cert, 5), n_trials=150, seed=2,
                            prior_scale=5.0, y_scale=2.0,
                            prior_step_scale=0.3)
        b = lipschitz_probe(WindowShapes(sys, cert, 5), n_trials=150, seed=2,
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
            lipschitz_probe(WindowShapes(sys, cert, 2), n_trials=20, seed=0)

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_no_trials_raises(self, case_study, n_trials):
        sys, cert, _ = case_study
        with pytest.raises(ValueError, match=f"n_trials must be at least 1, got {n_trials}"):
            lipschitz_probe(WindowShapes(sys, cert, 2), n_trials=n_trials)
