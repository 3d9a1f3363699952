"""Closed-loop execution of the sub-optimal estimator with runtime monitors.

Per step: solve the window QP for exactly K projected-gradient iterations
in its free coordinates v, from the previous step's v_K (the initial prior
at t = 0; during the growing phase padded with one zeroed disturbance
slot), feed the current estimate to the feedback law, and apply the input
to the plant under disturbances drawn uniformly from the system's
W = w1_box x w2_box. That is the set the certificate and the bounds assume:
the true disturbances lie in it, so the true trajectory is a feasible
window candidate.

The run has one record, a TrajectoryLog of per-run arrays in which row t is
step t, and each value is written once, into its row. A step computes only
what the next input needs and what cannot be recovered later: of its
window states it forms only the current estimate xhat_t, from the row
[v_K; u_window] that it keeps. The feasibility flags are checked from
the kept rows a block at a time, each block of one window length, in one
buffer of FLAG_CHUNK rows: a step of the growing phase is a block of one,
checked as the step ends; the full-window steps from t = M on are checked
whenever the buffer fills, and what is left of them after the last step.
So the loop keeps at most FLAG_CHUNK rows, and they, like the CSV
writer's reads, take memory independent of the run length. Per block, the
steps' z and window states are stacked products, each row with the bytes
a step would have given it, and the flags are compares of z's slots (read
through mhe.slot_view) and of the states against bound rows built once per
run. The columns no step reads (e_norm, w_delta, sigma) are filled after
the last step from the recorded x and xhat rows. The windows are views of
the record's input and output rows. The prior for a full window is the
recorded current-time estimate from M steps ago; during the growing phase
it stays at the configured initial prior (this is what makes the per-step
inequalities theorems).

When the oracle is enabled, and only then, every step also finds the
window optimum v*, and the record gets the sub-optimality error against it,
with the warm start's distance to v*. v* is the fixed point of the solver's
closed-form tail when the solve settled on it (a theorem, see
mhe.StepSpectrum); on every other step (a solve that clamps to the end, or
K = 0) solver.solve_oracle computes it, starting from the step's K-th
iterate and accepting on a certified error bound. A step keeps v* and its
warm start beside its row, and the block pass that checks the row's flags
takes the three norms: z* is one more stacked product beside z_K, and each
norm has the bytes of the step's own (_row_norms). The summary reports the
largest accepted bound and the kernel iterations the oracle ran beyond K.
After the last step, monitor_step checks the per-step inequalities of the
analysis on the recorded columns in one pass: (a) the error recursion,
(b) the M-step Lyapunov decay (only under a certificate whose LMI passes,
the premise of that theorem; SKIP otherwise), (c) the two trajectory
bounds (certified runs only), (d) the solver contraction budget, both in
the free coordinates v (phi(K)) and in the decision vector z (phi_z(K),
which carries the lift gain). The pass reads its constants from a
MonitorBundle, built only then, in which each monitor's missing premise is
a None (no C1..C3 without a ledger, no trajectory ledger on an uncertified
run, no eta under a failing LMI); monitor_step returns the verdict array,
SKIP where a premise is None. The sub-optimality error eps itself is
measured in z, the one place the run lifts v_K and v* to z. Monitor
failures are recorded in the record's verdicts, never raised: the run
always records every step, and treating a failure as an error is the
caller's decision (TrajectoryLog.raise_first_failure).
"""

from dataclasses import dataclass

import numpy as np

from . import analysis
from .controller import evaluate
from .errors import (ContractionViolated, DegenerateDenominator,
                     MonitorViolation, SubmheError, UnboundedSampleBox)
from .linalg import vector_norm
from .mhe import (build_problem, residual_sigma_parts, sigma_lift,
                  sigma_truncate, slot_view)
from .model import validate_system, verify_ioss_lmi, w_delta
from .solver import KERNEL_BACKEND, solve_fixed_iters, solve_oracle

PRNG_NAME = "pcg64"

PASS, FAIL, SKIP = "pass", "fail", "skip"

MONITOR_REL_TOL = 1e-7  # relative slack of every monitor inequality

# Box.contains tolerances of the feasibility flags: disturbance estimates,
# and estimated outputs and states
WHAT_ATOL = 1e-12
OUTPUT_ATOL = 1e-9
FLAG_CHUNK = 64  # steps per block of the flag checks and of the CSV writer


@dataclass(frozen=True)
class ScenarioConfig:
    shapes: object                      # WindowShapes: system, certificate, M
    law: object
    K: int
    steps: int
    x0: np.ndarray
    x_prior0: np.ndarray                # also the warm start at t = 0
    seed: int = 0
    oracle: bool = True                 # the monitors run exactly when it is on
    # AnalysisParams on shapes; or None, or the SubmheError that stopped
    # their build: no ledger
    params: object = None
    config_hash: str = ""

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        x0 = np.asarray(self.x0, dtype=float)
        prior = np.asarray(self.x_prior0, dtype=float)
        for name, vec in (("x0", x0), ("x_prior0", prior)):
            if vec.shape != (self.shapes.sys.n_x,):
                raise ValueError(f"{name} must have length n_x = {self.shapes.sys.n_x}")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x_prior0", prior)


MONITOR_NAMES = ("eps_recursion", "lyapunov", "traj_eps", "traj_err", "contraction")


@dataclass
class TrajectoryLog:
    """The record of one run: one array per quantity, row t is step t.

    Each value is written once, into its row: the loop writes a step's
    columns as it runs it, the feasible column a block of steps at a time,
    and the record-only e_norm, w_delta and sigma columns, which no step
    reads, after the last step.
    The windows, the priors, the monitor pass, the CSV and
    the summary all read these columns. The three oracle columns are None
    when the oracle is off.
    """

    config_hash: str
    seed: int
    M: int
    K: int
    certified: bool
    uncertified_reason: str | None
    ledger: object | None
    x: np.ndarray                # (T, n_x) true states
    y: np.ndarray                # (T, n_y) measured outputs
    u: np.ndarray                # (T, n_u) applied inputs
    xhat: np.ndarray             # (T, n_x) current-time estimates
    e_norm: np.ndarray           # ||xhat_t - x_t||
    w_delta: np.ndarray          # W(xhat_t, x_t)
    sigma_raw: np.ndarray        # residual magnitude sigma_t, and
    sigma_clamped: np.ndarray    # the same clamped at zero
    looped: np.ndarray           # solver iterations run before its closed-form tail
    feasible: np.ndarray         # (T, 3) bool: what, xhat, yhat inside their boxes
    eps: np.ndarray | None       # ||z_K - z*||
    eps_v: np.ndarray | None     # ||v_K - v*||, eps in the free coordinates
    warm_v: np.ndarray | None    # ||v0 - v*||, free coordinates of the warm start
    verdicts: np.ndarray         # (T, len(MONITOR_NAMES)): monitor_step's, or SKIP
    oracle_solves: int = 0       # steps whose v* came from solver.solve_oracle
    oracle_extra_iters: int = 0  # kernel iterations those solves ran beyond K
    oracle_bound_max: float | None = None  # largest certified ||v - v*|| they accepted

    @classmethod
    def empty(cls, T, sys, oracle, **meta):
        """The record of a T-step run of sys, every monitor at SKIP."""
        col = lambda *dims, dtype=float: np.empty((T, *dims), dtype=dtype)
        ocol = lambda: col() if oracle else None
        return cls(**meta, x=col(sys.n_x), y=col(sys.n_y), u=col(sys.n_u),
                   xhat=col(sys.n_x), e_norm=col(), w_delta=col(),
                   sigma_raw=col(), sigma_clamped=col(), looped=col(dtype=int),
                   feasible=col(3, dtype=bool), eps=ocol(), eps_v=ocol(),
                   warm_v=ocol(),
                   verdicts=np.full((T, len(MONITOR_NAMES)), SKIP))

    @property
    def steps(self):
        return len(self.x)

    @property
    def x_norm(self):
        """||x_t|| per step, formed on each read; the monitor pass and the
        summary read it after the run."""
        return np.linalg.norm(self.x, axis=1)

    def monitor_counts(self):
        return {name: {v: int((col == v).sum()) for v in (PASS, FAIL, SKIP)}
                for name, col in zip(MONITOR_NAMES, self.verdicts.T)}

    def raise_first_failure(self):
        """Raise MonitorViolation naming the first step with a failing monitor."""
        failing = (self.verdicts == FAIL).any(axis=1)
        if failing.any():
            t = int(np.argmax(failing))
            names = [n for n, v in zip(MONITOR_NAMES, self.verdicts[t]) if v == FAIL]
            raise MonitorViolation(f"monitor(s) {', '.join(names)} failed at step {t}")

    def write_csv(self, fh):
        """Write the record as CSV to the open text file fh: the header, then
        one line per step, written as it is formatted: str(t), the repr of
        each float, an empty eps when the oracle is off, then the verdicts.
        The values are read FLAG_CHUNK steps at a time, so no copy of the
        whole record is held."""
        n_x, n_y, n_u = self.x.shape[1], self.y.shape[1], self.u.shape[1]
        header = (["t"]
                  + [f"x{i}" for i in range(n_x)]
                  + [f"y{i}" for i in range(n_y)]
                  + [f"u{i}" for i in range(n_u)]
                  + [f"xhat{i}" for i in range(n_x)]
                  + ["e_norm", "eps", "w_delta", "sigma_raw", "sigma_clamped"]
                  + [f"mon_{name}" for name in MONITOR_NAMES])
        fh.write(",".join(header) + "\n")
        for a in range(0, self.steps, FLAG_CHUNK):
            rows = slice(a, a + FLAG_CHUNK)
            head = np.column_stack([self.x[rows], self.y[rows], self.u[rows],
                                    self.xhat[rows], self.e_norm[rows]])
            tail = np.column_stack([self.w_delta[rows], self.sigma_raw[rows],
                                    self.sigma_clamped[rows]])
            eps = ([""] * len(head) if self.eps is None
                   else map(repr, self.eps[rows].tolist()))
            for t, (h, eps_t, tl, verdicts) in enumerate(zip(
                    head.tolist(), eps, tail.tolist(),
                    self.verdicts[rows].tolist()), start=a):
                fh.write(",".join([str(t), *map(repr, h), eps_t, *map(repr, tl),
                                   *verdicts]) + "\n")

    def summary_dict(self):
        return {
            "schema_version": 1,
            "config_hash": self.config_hash,
            "prng": PRNG_NAME,
            "seed": self.seed,
            "solver_backend": KERNEL_BACKEND,
            "steps": self.steps,
            "M": self.M,
            "K": self.K,
            "certified": self.certified,
            "uncertified_reason": self.uncertified_reason,
            "ledger": self.ledger.to_dict() if self.ledger is not None else None,
            "monitors": self.monitor_counts(),
            "solver": {
                "solves": self.steps,
                "tail_jumps": int((self.looped < self.K).sum()),
                "looped_mean": int(self.looped.sum()) / self.steps,
                "oracle_solves": self.oracle_solves,
                "oracle_extra_iters": self.oracle_extra_iters,
                "oracle_bound_max": self.oracle_bound_max,
            },
            "constraint_flags": dict(zip(
                ("what_feasible", "xhat_feasible", "yhat_feasible"),
                map(bool, self.feasible.all(axis=0)))),
            "sup_norms": {
                "x": float(self.x_norm.max()),
                "e": float(self.e_norm.max()),
                "eps": None if self.eps is None else float(self.eps.max()),
            },
        }


def sample_disturbance_arrays(seed, w1_box, w2_box, T):
    """Seeded uniform disturbance stream as arrays (T, n_x) and (T, n_y).

    Identical seeds give identical sequences. Box.sample draws them, with
    the bytes of rng.uniform(lower, upper); a degenerate side [a, a] gives
    exactly a.
    """
    for name, box in (("w1_box", w1_box), ("w2_box", w2_box)):
        if not box.is_bounded:
            raise UnboundedSampleBox(f"{name} has an unbounded side")
    rng = np.random.default_rng(seed)
    return w1_box.sample(rng, T), w2_box.sample(rng, T)


@dataclass(frozen=True)
class MonitorBundle:
    """Constants of the monitor pass, with None marking unavailability."""

    phi: float                 # phi(K) = q^K in v, from analysis.phi
    phi_z: float               # phi_z(K) = lift gain * phi(K), in z
    L_phi: float | None
    C1: float | None
    C2: float | None
    C3: float | None
    bar_H: float
    eta: float | None          # None when the certificate's LMI fails
    ledger: object | None      # full gain ledger; None on uncertified runs


def _leq(lhs, rhs):
    return lhs <= rhs + MONITOR_REL_TOL * np.maximum(1.0, np.abs(rhs)) + 1e-12


def _sup_before(series):
    """sup of series over steps [0, t-1] at each step t, 0 at t = 0. A NaN
    step fails its own inequalities and is left out of the later sups."""
    return np.fmax.accumulate(np.concatenate(([0.0], series[:-1])))


def monitor_step(bundle, M, x_norm, e_norm, w_norm, w_q, sigma, eps, eps_v,
                 warm_v, w_delta):
    """Verdicts of the per-step inequality monitors over one run.

    Each series is an array over the steps t = 0..T-1 of a window-length-M
    run: ||x_t||, ||e_t|| = ||xhat_t - x_t||, ||w_t|| and ||w_t||_Q^2 of the
    step's disturbance, sigma_clamped and w_delta = W(xhat_t, x_t).
    eps = ||z_K - z*|| is a distance in the decision vector; eps_v =
    ||v_K - v*|| is the same distance and warm_v = ||v0 - v*|| the warm
    start's, in the free coordinates. Returns the (T, len(MONITOR_NAMES))
    verdict array; a monitor whose constants the bundle marks None is SKIP.
    """
    T = len(eps)
    t = np.arange(T)
    m_eff = np.minimum(M, t)
    sup_x, sup_e, sup_w, sup_sigma, sup_eps = map(
        _sup_before, (x_norm, e_norm, w_norm, sigma, eps))
    verdicts = np.full((T, len(MONITOR_NAMES)), SKIP)
    recursion, lyapunov, traj_eps, traj_err, contraction = verdicts.T

    # (a) error recursion, from step 1 on
    if bundle.C1 is not None:
        eps_prev = np.concatenate(([0.0], eps[:-1]))
        rhs = (bundle.phi_z * eps_prev + bundle.C1 * sup_x + bundle.C2 * sup_e
               + bundle.C3 * sup_w + bundle.phi_z * bundle.L_phi * sup_sigma)
        recursion[1:] = np.where(_leq(eps, rhs), PASS, FAIL)[1:]

    # (b) M-step Lyapunov decay from step t - m_eff's own w_delta
    if bundle.eta is not None:
        recent = np.zeros(T)  # sum over j = 1..m_eff of eta^(j-1) ||w_{t-j}||_Q^2
        for j in range(1, M + 1):
            recent[j:] += bundle.eta ** (j - 1) * w_q[:-j]
        rhs = (6.0 * bundle.eta ** m_eff * w_delta[t - m_eff]
               + 2.0 * bundle.bar_H * eps ** 2 + 6.0 * recent)
        lyapunov[:] = np.where(_leq(w_delta, rhs), PASS, FAIL)

    # (c) trajectory bounds; need the certified ledger
    led = bundle.ledger
    if led is not None:
        bound = (led.beta2_base ** t * eps[0] + led.g21 * sup_x + led.g23 * sup_e
                 + led.g2w * sup_w + led.g2sigma * sup_sigma)
        traj_eps[:] = np.where(_leq(eps, bound), PASS, FAIL)
        bound = (led.beta3_coeff * led.beta3_base ** t * e_norm[0] + led.g31 * sup_x
                 + led.g32 * sup_eps + led.g3w * sup_w + led.g3sigma * sup_sigma)
        traj_err[:] = np.where(_leq(e_norm, bound), PASS, FAIL)

    # (d) solver contraction budget, ||v_K - v*|| <= phi(K) ||v0 - v*|| and
    # ||z_K - z*|| <= ||Psi|| ||v_K - v*|| <= phi_z(K) ||v0 - v*||, which is
    # at most phi_z(K) ||z0 - z*||: the free coordinates appear verbatim in z
    contraction[:] = np.where(_leq(eps_v, bundle.phi * warm_v)
                              & _leq(eps, bundle.phi_z * warm_v), PASS, FAIL)
    return verdicts


def _why_uncertified(K, params, ledger):
    """Why a run with rho < 1 is not certified, or None when it is.

    The trajectory bounds hold only for a ledger that passes on inputs that
    were derived or asserted, not sampled.
    """
    if K == 0:
        return "no gain ledger: K=0, the small-gain test needs K >= 1"
    if params is None:
        return "no gain ledger: no analysis params"
    if isinstance(params, SubmheError):
        return f"no gain ledger: {type(params).__name__}: {params}"
    if not ledger.passed:
        return (f"small-gain test fails at K={K}: margin 1 - (P1 + P2 + P3) = "
                f"{ledger.margin:.6e} <= 0")
    if params.sampled:
        return ("ledger inputs sampled, not derived or asserted: "
                + ", ".join(params.sampled))
    return None


def _stacked_window(shape, points):
    """(z, states) of the steps of the shape's window length whose
    [v_K; u_window.ravel()] are the first state_map.shape[1] entries of the
    rows of points: row i of z is the step's lift_matrix @ v_K +
    input_map @ u_window, and row i of states its window states
    state_map @ [v_K; u_window], oldest first. Each row of a stacked
    product is the matrix-vector product a step would have formed (numpy's
    matmul over a stack of vectors), so it has the bytes of the step's own z
    and extract_estimate."""
    x = points[:, :shape.state_map.shape[1], None]
    v, u = x[:, :shape.dim_v], x[:, shape.dim_v:]
    z = np.matmul(shape.lift_matrix, v) + np.matmul(shape.input_map, u)
    return z[:, :, 0], np.matmul(shape.state_map, x)[:, :, 0]


def _row_norms(d):
    """The Euclidean norm of each row of the 2-D d. Each is the stacked
    1 x n product d_i @ d_i^T, which has the bytes of np.linalg.norm (and
    linalg.vector_norm) of that row; np.linalg.norm(axis=1) and row sums
    do not."""
    d = d[:, None, :]
    return np.sqrt(d @ d.transpose(0, 2, 1))[:, 0, 0]


def _flag_bounds(sys, M):
    """The feasibility flags' bounds, built once per run: one slot's
    [w1, w2, y] bounds tiled over M slots, and the x box tiled over M + 1
    window states, as (slot_lo, slot_hi, x_lo, x_hi). Each side is widened
    by its flag's tolerance as Box.contains widens it. A window of m_eff
    slots reads the first m_eff slots' and m_eff + 1 states' entries."""
    slot = ((sys.w1_box, WHAT_ATOL), (sys.w2_box, WHAT_ATOL), (sys.y_box, OUTPUT_ATOL))
    return (np.tile(np.concatenate([box.lower - tol for box, tol in slot]), M),
            np.tile(np.concatenate([box.upper + tol for box, tol in slot]), M),
            np.tile(sys.x_box.lower - OUTPUT_ATOL, M + 1),
            np.tile(sys.x_box.upper + OUTPUT_ATOL, M + 1))


def _check_block(log, first, shape, bounds, points, oracle_rows=None):
    """Fill the record's rows first, first + 1, ... of one block of steps of
    the shape's window length, whose [v_K; u_window.ravel()] open the rows
    of points (_stacked_window).

    The feasibility flags (what, xhat, yhat): the steps' z slots
    (mhe.slot_view), flattened, against the slot bounds of _flag_bounds, and
    their window states against its x bounds; False at a NaN. With
    oracle_rows = (optima, starts), the steps' v* and warm starts in the
    first dim_v entries of their rows, also eps = ||z_K - z*||,
    eps_v = ||v_K - v*|| and warm_v = ||v0 - v*||, where z* = lift_matrix @
    v* + input_map @ u_window is stacked as z_K is; each has the bytes of
    vector_norm of the step's own difference (_row_norms).
    """
    sys = shape.sys
    n, n_w = len(points), sys.n_w
    slot_lo, slot_hi, x_lo, x_hi = bounds
    z, states = _stacked_window(shape, points)
    slots = slot_view(z, sys)
    flat, k = slots.reshape(n, -1), slots.shape[1] * slots.shape[2]
    slots_ok = ((flat >= slot_lo[:k]) & (flat <= slot_hi[:k])).reshape(slots.shape)
    k = states.shape[1]
    rows = slice(first, first + n)
    log.feasible[rows, 0] = slots_ok[..., :n_w].all(axis=(1, 2))
    log.feasible[rows, 1] = ((states >= x_lo[:k]) & (states <= x_hi[:k])).all(axis=1)
    log.feasible[rows, 2] = slots_ok[..., n_w:].all(axis=(1, 2))
    if oracle_rows is not None:
        dim_v = shape.dim_v
        optima, starts = (a[:, :dim_v] for a in oracle_rows)
        u = points[:, dim_v:shape.state_map.shape[1], None]
        z_star = np.matmul(shape.lift_matrix, optima[:, :, None]) + np.matmul(
            shape.input_map, u)
        log.eps[rows] = _row_norms(z - z_star[:, :, 0])
        log.eps_v[rows] = _row_norms(points[:, :dim_v] - optima)
        log.warm_v[rows] = _row_norms(starts - optima)


def run_closed_loop(cfg, observe=None):
    """Execute the warm-started fixed-budget estimation loop for cfg.steps.

    The loop runs on the analysis params it is handed (cfg.params) and
    evaluates their ledger once, at K; without params (None, or the error
    that stopped their build) it runs with no ledger. The run is certified
    only when rho < 1, that ledger passes and none of its inputs was
    sampled. A run with rho >= 1 runs and records all the same, uncertified
    and with no ledger reported; refusing it is the caller's decision. The
    analysis and the loop share cfg.shapes, so each window shape and its
    eigen terms are built once per run. observe(problem, report), when
    given, is called with each step's window problem and solve report, in
    step order. Returns the run's TrajectoryLog.
    """
    shapes, params = cfg.shapes, cfg.params
    sys, cert = validate_system(shapes.sys), shapes.cert
    T, M, K = cfg.steps, shapes.M, cfg.K

    has_params = isinstance(params, analysis.AnalysisParams)
    ledger = reported = (analysis.ledger_at(K, params)
                         if K > 0 and has_params else None)
    try:
        analysis.compute_rho(cert.eta, M)
        uncertified_reason = _why_uncertified(K, params, ledger)
    except ContractionViolated as exc:
        # as in analyze-k, no ledger is reported without the M-step decay;
        # its one-step constants C1..C3 still feed the eps_recursion monitor
        uncertified_reason, reported = str(exc), None
    certified = uncertified_reason is None

    w1s, w2s = sample_disturbance_arrays(cfg.seed, sys.w1_box, sys.w2_box, T)
    # a step's row [v_K; u_window.ravel()], the input of its estimate and
    # flags, kept in `rows` until its block is checked, and with the oracle
    # on its v* and warm start, kept in `optima` and `starts`. A block holds
    # steps of one window length: a growing step (t < M) is a block of one,
    # checked as the step ends; from t = M on, the full-window steps fill
    # FLAG_CHUNK rows at a time, checked as they fill; what is left after
    # the last step
    widest = shapes[min(M, T - 1)]
    rows = np.empty((FLAG_CHUNK, widest.state_map.shape[1]))
    bounds = _flag_bounds(sys, M)
    if cfg.oracle:
        optima, starts = np.empty((2, FLAG_CHUNK, widest.dim_v))

    log = TrajectoryLog.empty(T, sys, cfg.oracle, config_hash=cfg.config_hash,
                              seed=cfg.seed, M=M, K=K, certified=certified,
                              uncertified_reason=uncertified_reason,
                              ledger=reported)

    def check(first, shape, n):  # the block of n steps from step `first` on
        _check_block(log, first, shape, bounds, rows[:n],
                     (optima[:n], starts[:n]) if cfg.oracle else None)
    log.x[0] = cfg.x0
    # the warm start: the prior at t = 0, then the previous v_K, padded with
    # one zeroed disturbance slot while the window grows
    start = cfg.x_prior0
    pad = np.zeros(sys.n_w)

    for t in range(T):
        x = log.x[t]
        log.y[t] = sys.output(x, w2s[t])
        # the step-t windows are rows t - min(M, t) .. t - 1 of the record;
        # the prior of a full window is the estimate from M steps ago
        m_eff = min(M, t)
        prior = cfg.x_prior0 if t <= M else log.xhat[t - M]
        problem = build_problem(sys, cert, prior, log.u[t - m_eff:t],
                                log.y[t - m_eff:t], M, t, shapes=shapes)
        report = solve_fixed_iters(problem, start, K)
        if observe is not None:
            observe(problem, report)
        shape = problem.shape
        i = max(t - M, 0) % FLAG_CHUNK  # the step's row, i steps into its block
        point = np.concatenate((report.v, problem.u_window.ravel()),
                               out=rows[i, :shape.state_map.shape[1]])
        xhat = log.xhat[t] = shape.estimate_map @ point

        if cfg.oracle:
            v_star = report.optimum
            if v_star is None:
                oracle = solve_oracle(problem, start=report.v)
                v_star = oracle.v
                log.oracle_solves += 1
                log.oracle_extra_iters += oracle.iters
                log.oracle_bound_max = max(log.oracle_bound_max or 0.0, oracle.bound)
            optima[i, :shape.dim_v] = v_star
            starts[i, :shape.dim_v] = start

        u = log.u[t] = evaluate(cfg.law, xhat)
        log.looped[t] = report.looped
        if t < M or i == FLAG_CHUNK - 1:
            check(t - i, shape, i + 1)

        if t + 1 < T:
            log.x[t + 1] = sys.step(x, u, w1s[t])
        start = report.v if t >= M else np.concatenate([report.v, pad])

    # the record-only columns, which no step reads, each row with the bytes
    # of np.linalg.norm and of the 1-D w_delta of that row
    log.e_norm[:] = _row_norms(log.xhat - log.x)
    log.w_delta[:] = w_delta(cert, log.xhat, log.x)
    log.sigma_raw[:] = log.sigma_clamped[:] = 0.0  # as residual_sigma_parts after M
    for t in range(min(T - 1, M) + 1):
        log.sigma_raw[t], log.sigma_clamped[t] = residual_sigma_parts(t, shapes)
    rest = max(T - M, 0) % FLAG_CHUNK
    if rest:
        check(T - rest, shapes[M], rest)

    if cfg.oracle:
        # the monitors' constants, from the shapes' caches with or without
        # params. The M-step decay is a theorem only under a passing LMI,
        # which AnalysisParams already required (analysis.build_params)
        phi = analysis.phi(analysis.worst_case_contraction(shapes), K)
        c1 = c2 = c3 = l_phi = None
        if ledger is not None:
            c1, c2, c3 = ledger.constants.C1, ledger.constants.C2, ledger.constants.C3
            l_phi = params.L_phi
        lmi_holds = has_params or verify_ioss_lmi(sys, cert).passed
        bundle = MonitorBundle(phi=phi, phi_z=analysis.lift_gain(shapes) * phi,
                               L_phi=l_phi, C1=c1, C2=c2, C3=c3,
                               bar_H=analysis.weight_eigen_range(shapes)[0],
                               eta=cert.eta if lmi_holds else None,
                               ledger=ledger if certified else None)
        w = np.hstack([w1s, w2s])
        log.verdicts = monitor_step(
            bundle, M, x_norm=log.x_norm, e_norm=log.e_norm,
            w_norm=np.linalg.norm(w, axis=1),
            w_q=((w @ cert.Q) * w).sum(axis=1), sigma=log.sigma_clamped,
            eps=log.eps, eps_v=log.eps_v, warm_v=log.warm_v, w_delta=log.w_delta)
    return log


@dataclass(frozen=True)
class LipschitzProbe:
    value: float
    n_used: int
    n_skipped: int
    max_ratio_raw: float


def lipschitz_probe(shapes, n_trials=500, seed=0, prior_scale=1.0, y_scale=1.0,
                    prior_step_scale=0.3):
    """Empirical Lipschitz constant of the optimal-solution map.

    Samples consecutive-step problem pairs (shared window content, shifted by
    one step, perturbed prior), oracle-solves both, and records

        ||lift(z1*) - z2*|| / (||ref1 - truncate(ref2)|| + sigma_t).

    Returns the max ratio floored at 1 + 1e-9. Samples with a vanishing
    denominator are skipped and counted. `shapes` (a WindowShapes) carries
    the system, the certificate and M. n_trials below 1 raises ValueError.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    sys, cert, M = shapes.sys, shapes.cert, shapes.M
    rng = np.random.default_rng(seed)
    best = 0.0
    used = skipped = 0
    for _ in range(n_trials):
        t = int(rng.integers(1, 2 * M + 1))
        # windows: the first min(M, t - 1) and last min(M, t) of n_seq steps
        n_seq, m_t = min(M + 1, t), min(M, t)
        u_seq = sys.u_box.sample(rng, n_seq, scale=1.0)
        y_seq = sys.y_box.sample(rng, n_seq, scale=y_scale)
        prior1 = sys.x_box.sample(rng, scale=prior_scale)
        delta = prior_step_scale * rng.standard_normal(sys.n_x)
        prior2 = sys.x_box.project(prior1 + delta)
        u1, y1 = u_seq[:-1], y_seq[:-1]
        u2, y2 = u_seq[n_seq - m_t:], y_seq[n_seq - m_t:]
        p1 = build_problem(sys, cert, prior1, u1, y1, M, t - 1, shapes=shapes)
        p2 = build_problem(sys, cert, prior2, u2, y2, M, t, shapes=shapes)
        _, sigma_t = residual_sigma_parts(t, shapes)
        ref1 = p1.reference
        denom = vector_norm(ref1 - sigma_truncate(p2.reference, t, shapes)) + sigma_t
        if denom <= 1e-9 * max(1.0, vector_norm(ref1)):
            skipped += 1
            continue
        z1 = p1.lift(solve_oracle(p1).v)
        z2 = p2.lift(solve_oracle(p2).v)
        ratio = vector_norm(sigma_lift(z1, t, shapes) - z2) / denom
        best = max(best, ratio)
        used += 1
    if used == 0:
        raise DegenerateDenominator("every probe sample had a vanishing denominator")
    return LipschitzProbe(value=max(best, 1.0 + 1e-9), n_used=used,
                          n_skipped=skipped, max_ratio_raw=best)
