"""Closed-loop execution of the sub-optimal estimator with runtime monitors.

Per step: solve the window QP for exactly K projected-gradient iterations
from the padded warm start, feed the current estimate to the feedback law,
apply the input to the plant under sampled disturbances, and shift the
windows. The prior for a full window is the buffered current-time estimate
from M steps ago; during the growing phase it stays at the configured
initial prior (this is what makes the per-step inequalities theorems).

When the oracle is enabled, every step also measures the sub-optimality
error and checks the per-step inequalities of the analysis as monitors:
(a) the error recursion, (b) the M-step Lyapunov decay, (c) the two
trajectory bounds (certified runs only), (d) the solver contraction budget.
Monitor failures are recorded, not fatal, unless strict mode is on.
"""

from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .controller import evaluate
from .errors import (ContractionViolated, DegenerateDenominator,
                     MonitorViolation, UnboundedSampleBox)
from .mhe import (WindowShapes, build_problem, extract_estimate,
                  residual_sigma_parts, shift_window, sigma_lift,
                  sigma_truncate)
from .model import AugmentedDisturbance, validate_system, w_delta
from .solver import KERNEL_BACKEND, solve_fixed_iters, solve_oracle

PRNG_NAME = "pcg64"

PASS, FAIL, SKIP = "pass", "fail", "skip"


@dataclass(frozen=True)
class ScenarioConfig:
    sys: object
    cert: object
    law: object
    M: int
    K: int
    steps: int
    x0: np.ndarray
    x_prior0: np.ndarray
    z0_0: np.ndarray | None = None      # defaults to x_prior0
    w1_box: object = None               # defaults to sys.w1_box
    w2_box: object = None
    seed: int = 0
    oracle: bool = True
    oracle_tol: float = 1e-10
    monitors: bool = True
    strict: bool = False
    allow_uncertified: bool = False
    monitor_rel_tol: float = 1e-7
    L_phi: float | None = None
    L_pi: float | None = None
    gamma13_slope: float | None = None
    phi_base: float | None = None       # None: computed from the problem shapes
    config_hash: str = ""

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        x0 = np.asarray(self.x0, dtype=float)
        prior = np.asarray(self.x_prior0, dtype=float)
        z0 = prior.copy() if self.z0_0 is None else np.asarray(self.z0_0, dtype=float)
        for name, vec in (("x0", x0), ("x_prior0", prior), ("z0_0", z0)):
            if vec.shape != (self.sys.n_x,):
                raise ValueError(f"{name} must have length n_x = {self.sys.n_x}")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x_prior0", prior)
        object.__setattr__(self, "z0_0", z0)
        object.__setattr__(self, "w1_box",
                           self.w1_box if self.w1_box is not None else self.sys.w1_box)
        object.__setattr__(self, "w2_box",
                           self.w2_box if self.w2_box is not None else self.sys.w2_box)


@dataclass(frozen=True)
class StepVerdicts:
    eps_recursion: str = SKIP
    lyapunov: str = SKIP
    traj_eps: str = SKIP
    traj_err: str = SKIP
    contraction: str = SKIP

    def as_tuple(self):
        return (self.eps_recursion, self.lyapunov, self.traj_eps,
                self.traj_err, self.contraction)


MONITOR_NAMES = ("eps_recursion", "lyapunov", "traj_eps", "traj_err", "contraction")


@dataclass
class LogRow:
    t: int
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    xhat: np.ndarray
    e: np.ndarray
    eps: float | None
    w_delta: float
    sigma_raw: float
    sigma_clamped: float
    verdicts: StepVerdicts
    dim_z: int
    dim_z0: int
    z_k: np.ndarray
    warm_distance: float | None
    what_feasible: bool
    xhat_feasible: bool
    yhat_feasible: bool

    @property
    def e_norm(self):
        return float(np.linalg.norm(self.e))


@dataclass
class TrajectoryLog:
    config_hash: str
    seed: int
    M: int
    K: int
    certified: bool
    uncertified_reason: str | None
    ledger: object | None
    rows: list = field(default_factory=list)
    prng: str = PRNG_NAME
    backend: str = KERNEL_BACKEND

    def monitor_counts(self):
        counts = {name: {PASS: 0, FAIL: 0, SKIP: 0} for name in MONITOR_NAMES}
        for row in self.rows:
            for name, verdict in zip(MONITOR_NAMES, row.verdicts.as_tuple()):
                counts[name][verdict] += 1
        return counts

    def to_csv_text(self):
        n_x = self.rows[0].x.shape[0]
        n_y = self.rows[0].y.shape[0]
        n_u = self.rows[0].u.shape[0]
        header = (["t"]
                  + [f"x{i}" for i in range(n_x)]
                  + [f"y{i}" for i in range(n_y)]
                  + [f"u{i}" for i in range(n_u)]
                  + [f"xhat{i}" for i in range(n_x)]
                  + ["e_norm", "eps", "w_delta", "sigma_raw", "sigma_clamped"]
                  + [f"mon_{name}" for name in MONITOR_NAMES])
        lines = [",".join(header)]
        for row in self.rows:
            cells = [str(row.t)]
            for vec in (row.x, row.y, row.u, row.xhat):
                cells.extend(repr(float(v)) for v in vec)
            cells.append(repr(row.e_norm))
            cells.append("" if row.eps is None else repr(float(row.eps)))
            cells.append(repr(float(row.w_delta)))
            cells.append(repr(float(row.sigma_raw)))
            cells.append(repr(float(row.sigma_clamped)))
            cells.extend(row.verdicts.as_tuple())
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def summary_dict(self):
        sup = lambda vals: max(vals) if vals else None
        eps_vals = [row.eps for row in self.rows if row.eps is not None]
        return {
            "schema_version": 1,
            "config_hash": self.config_hash,
            "prng": self.prng,
            "seed": self.seed,
            "solver_backend": self.backend,
            "steps": len(self.rows),
            "M": self.M,
            "K": self.K,
            "certified": self.certified,
            "uncertified_reason": self.uncertified_reason,
            "ledger": self.ledger.to_dict() if self.ledger is not None else None,
            "monitors": self.monitor_counts(),
            "constraint_flags": {
                "what_feasible": all(r.what_feasible for r in self.rows),
                "xhat_feasible": all(r.xhat_feasible for r in self.rows),
                "yhat_feasible": all(r.yhat_feasible for r in self.rows),
            },
            "sup_norms": {
                "x": sup([float(np.linalg.norm(r.x)) for r in self.rows]),
                "e": sup([r.e_norm for r in self.rows]),
                "eps": sup([float(v) for v in eps_vals]) if eps_vals else None,
            },
        }


def sample_disturbance_arrays(seed, w1_box, w2_box, T):
    """Seeded uniform disturbance stream as arrays (T, n_x) and (T, n_y).

    Identical seeds give identical sequences; degenerate [0, 0] intervals
    give exact zeros.
    """
    for name, box in (("w1_box", w1_box), ("w2_box", w2_box)):
        if not box.is_bounded:
            raise UnboundedSampleBox(f"{name} has an unbounded side")
    rng = np.random.default_rng(seed)
    w1s = rng.uniform(w1_box.lower, w1_box.upper, size=(T, w1_box.dim))
    w2s = rng.uniform(w2_box.lower, w2_box.upper, size=(T, w2_box.dim))
    # uniform(a, a) may return a + 0 ulp noise on some platforms; pin exact zeros
    w1s[:, w1_box.lower == w1_box.upper] = w1_box.lower[w1_box.lower == w1_box.upper]
    w2s[:, w2_box.lower == w2_box.upper] = w2_box.lower[w2_box.lower == w2_box.upper]
    return w1s, w2s


def sample_disturbance(seed, w1_box, w2_box, T):
    """Seeded disturbance stream as a list of AugmentedDisturbance."""
    w1s, w2s = sample_disturbance_arrays(seed, w1_box, w2_box, T)
    return [AugmentedDisturbance(w1=w1, w2=w2) for w1, w2 in zip(w1s, w2s)]


@dataclass(frozen=True)
class MonitorBundle:
    """Constants the per-step monitors need, with None marking unavailability."""

    phi: float | None          # phi(K) = q^K
    L_phi: float | None
    C1: float | None
    C2: float | None
    C3: float | None
    bar_H: float
    eta: float
    ledger: object | None      # full gain ledger; None on uncertified runs
    rel_tol: float


def _leq(lhs, rhs, rel_tol):
    return lhs <= rhs + rel_tol * max(1.0, abs(rhs)) + 1e-12


def monitor_step(bundle, *, t, m_eff, eps, eps_prev, eps0, e_norm_now, e0_norm,
                 w_delta_now, w_delta_anchor, w_recent_q, sup_x, sup_e,
                 sup_w, sup_sigma, sup_eps, warm_distance):
    """Evaluate the per-step inequality monitors from measured quantities.

    sup_* are running sup-norms over steps [0, t-1]; w_recent_q lists the
    Q-weighted squared disturbance norms ||w_{t-j}||_Q^2 for j = 1..m_eff.
    """
    rel = bundle.rel_tol
    verdicts = {}

    # (a) error recursion
    if t == 0 or eps is None or bundle.C1 is None:
        verdicts["eps_recursion"] = SKIP
    else:
        rhs = (bundle.phi * eps_prev + bundle.C1 * sup_x + bundle.C2 * sup_e
               + bundle.C3 * sup_w + bundle.phi * bundle.L_phi * sup_sigma)
        verdicts["eps_recursion"] = PASS if _leq(eps, rhs, rel) else FAIL

    # (b) M-step Lyapunov decay
    if eps is None:
        verdicts["lyapunov"] = SKIP
    else:
        rhs = (6.0 * bundle.eta ** m_eff * w_delta_anchor
               + 2.0 * bundle.bar_H * eps ** 2
               + 6.0 * sum(bundle.eta ** (j - 1) * wq
                           for j, wq in enumerate(w_recent_q, start=1)))
        verdicts["lyapunov"] = PASS if _leq(w_delta_now, rhs, rel) else FAIL

    # (c) trajectory bounds; need the certified ledger
    led = bundle.ledger
    if led is None or eps is None:
        verdicts["traj_eps"] = SKIP
        verdicts["traj_err"] = SKIP
    else:
        rhs_eps = (led.beta2_base ** t * eps0 + led.g21 * sup_x
                   + led.g23 * sup_e + led.g2w * sup_w
                   + led.g2sigma * sup_sigma)
        verdicts["traj_eps"] = PASS if _leq(eps, rhs_eps, rel) else FAIL
        rhs_err = (led.beta3_coeff * led.beta3_base ** t * e0_norm
                   + led.g31 * sup_x + led.g32 * sup_eps
                   + led.g3w * sup_w + led.g3sigma * sup_sigma)
        verdicts["traj_err"] = PASS if _leq(e_norm_now, rhs_err, rel) else FAIL

    # (d) solver contraction budget
    if eps is None or warm_distance is None or bundle.phi is None:
        verdicts["contraction"] = SKIP
    else:
        verdicts["contraction"] = (PASS if _leq(eps, bundle.phi * warm_distance, rel)
                                   else FAIL)
    return StepVerdicts(**verdicts)


def run_closed_loop(cfg):
    """Execute the warm-started fixed-budget estimation loop for cfg.steps."""
    sys = validate_system(cfg.sys)
    cfg.cert.check_shapes(sys)
    T, M, K = cfg.steps, cfg.M, cfg.K
    eta = cfg.cert.eta

    certified = True
    uncertified_reason = None
    ledger = None
    phi_base = cfg.phi_base
    if phi_base is None:
        phi_base = analysis.worst_case_contraction(sys, cfg.cert, M)
    phi = phi_base ** K if K > 0 else 1.0

    params = None
    if cfg.L_phi is not None and cfg.L_pi is not None and cfg.gamma13_slope is not None \
            and 0.0 < phi_base < 1.0 and cfg.L_phi > 1.0:
        try:
            params = analysis.build_params(
                sys, cfg.cert, M, L_phi=cfg.L_phi, L_pi=cfg.L_pi,
                gamma13_slope=cfg.gamma13_slope, phi_base=phi_base)
        except ValueError:
            params = None
    try:
        analysis.compute_rho(eta, M)
        if params is not None:
            ledger = analysis.ledger_at(K, params) if K > 0 else None
    except ContractionViolated as exc:
        certified = False
        uncertified_reason = str(exc)
        if not cfg.allow_uncertified:
            raise
    if ledger is not None and not ledger.passed:
        # the trajectory bounds hold only for a ledger that passes
        certified = False
        worst = int(np.argmax(ledger.products))
        uncertified_reason = (
            f"small-gain test fails at K={K}: largest product is condition "
            f"{worst + 1}, {ledger.products[worst]:.6e} >= 1")

    bar_h, _ = analysis.weight_eigen_range(cfg.cert, M)
    c1 = c2 = c3 = None
    if cfg.L_phi is not None and cfg.L_pi is not None and K > 0:
        c1, c2, c3 = analysis.recursion_constants(
            phi, cfg.L_phi, cfg.L_pi, float(np.linalg.norm(sys.C, 2)), M)
    bundle = MonitorBundle(phi=phi, L_phi=cfg.L_phi, C1=c1, C2=c2, C3=c3,
                           bar_H=bar_h, eta=eta,
                           ledger=ledger if certified else None,
                           rel_tol=cfg.monitor_rel_tol)

    w1s, w2s = sample_disturbance_arrays(cfg.seed, cfg.w1_box, cfg.w2_box, T)
    shapes = WindowShapes(sys, cfg.cert, M)

    log = TrajectoryLog(config_hash=cfg.config_hash, seed=cfg.seed, M=M, K=K,
                        certified=certified, uncertified_reason=uncertified_reason,
                        ledger=ledger)

    x = cfg.x0.copy()
    x_hist = []
    filtered = []
    u_win = np.zeros((0, sys.n_u))
    y_win = np.zeros((0, sys.n_y))
    z_prev = None
    eps_prev = None
    eps0 = None
    e0_norm = None
    sup_x = sup_e = sup_w = sup_sigma = sup_eps = 0.0

    for t in range(T):
        y = sys.output(x, w2s[t])
        m_eff = min(M, t)
        prior = cfg.x_prior0 if t <= M else filtered[t - M]
        problem = build_problem(sys, cfg.cert, prior, u_win, y_win, M, t,
                                shapes=shapes)
        if t == 0:
            z0 = cfg.z0_0.copy()
        else:
            z0 = sigma_lift(z_prev, t, M, (sys.n_x, sys.n_y))
        report = solve_fixed_iters(problem, z0, K)
        z_k = report.point.z
        states = extract_estimate(problem, z_k)
        xhat = states[-1]
        filtered.append(xhat)
        x_hist.append(x.copy())

        eps = None
        warm_distance = None
        if cfg.oracle:
            z_star = solve_oracle(problem, tol=cfg.oracle_tol)
            eps = float(np.linalg.norm(z_k - z_star.z))
            warm_distance = float(np.linalg.norm(z0 - z_star.z))
            if eps0 is None:
                eps0 = eps
        if e0_norm is None:
            e0_norm = float(np.linalg.norm(xhat - x))

        sigma_raw, sigma_clamped = residual_sigma_parts(
            t, M, problem.weight, sys, eta)
        wd_now = w_delta(cfg.cert, xhat, x)
        anchor_idx = t - m_eff
        wd_anchor = w_delta(cfg.cert, filtered[anchor_idx], x_hist[anchor_idx])

        if cfg.monitors and cfg.oracle:
            w_recent_q = []
            for j in range(1, m_eff + 1):
                w_stack = np.concatenate([w1s[t - j], w2s[t - j]])
                w_recent_q.append(float(w_stack @ cfg.cert.Q @ w_stack))
            verdicts = monitor_step(
                bundle, t=t, m_eff=m_eff, eps=eps, eps_prev=eps_prev,
                eps0=eps0, e_norm_now=float(np.linalg.norm(xhat - x)),
                e0_norm=e0_norm, w_delta_now=wd_now,
                w_delta_anchor=wd_anchor, w_recent_q=w_recent_q,
                sup_x=sup_x, sup_e=sup_e, sup_w=sup_w, sup_sigma=sup_sigma,
                sup_eps=sup_eps, warm_distance=warm_distance)
        else:
            verdicts = StepVerdicts()

        u = evaluate(cfg.law, xhat)

        n_x, n_w = sys.n_x, sys.n_w
        slots = problem.window_slots(z_k)
        what_ok = (sys.w1_box.contains(slots[:, :n_x], atol=1e-12)
                   and sys.w2_box.contains(slots[:, n_x:n_w], atol=1e-12))
        yhat_ok = sys.y_box.contains(slots[:, n_w:], atol=1e-9)
        xhat_ok = sys.x_box.contains(states, atol=1e-9)

        row = LogRow(t=t, x=x.copy(), y=y.copy(), u=u.copy(), xhat=xhat.copy(),
                     e=(xhat - x), eps=eps, w_delta=wd_now,
                     sigma_raw=sigma_raw, sigma_clamped=sigma_clamped,
                     verdicts=verdicts, dim_z=problem.dim_z,
                     dim_z0=z0.shape[0], z_k=z_k, warm_distance=warm_distance,
                     what_feasible=what_ok, xhat_feasible=xhat_ok,
                     yhat_feasible=yhat_ok)
        log.rows.append(row)

        if cfg.strict and FAIL in verdicts.as_tuple():
            failed = [name for name, v in zip(MONITOR_NAMES, verdicts.as_tuple())
                      if v == FAIL]
            raise MonitorViolation(
                f"monitor(s) {', '.join(failed)} failed at step {t}")

        sup_x = max(sup_x, float(np.linalg.norm(x)))
        sup_e = max(sup_e, float(np.linalg.norm(xhat - x)))
        sup_w = max(sup_w, float(np.linalg.norm(np.concatenate([w1s[t], w2s[t]]))))
        sup_sigma = max(sup_sigma, sigma_clamped)
        if eps is not None:
            sup_eps = max(sup_eps, eps)
            eps_prev = eps

        u_win = shift_window(u_win, u, t, M)
        y_win = shift_window(y_win, y, t, M)
        x = sys.step(x, u, w1s[t])
        z_prev = z_k

    return log


@dataclass(frozen=True)
class LipschitzProbe:
    value: float
    n_used: int
    n_skipped: int
    max_ratio_raw: float


def lipschitz_probe(sys, cert, M, n_trials=500, seed=0, oracle_tol=1e-10,
                    prior_scale=1.0, y_scale=1.0, prior_step_scale=0.3):
    """Empirical Lipschitz constant of the optimal-solution map.

    Samples consecutive-step problem pairs (shared window content, shifted by
    one step, perturbed prior), oracle-solves both, and records

        ||lift(z1*) - z2*|| / (||ref1 - truncate(ref2)|| + sigma_t).

    Returns the max ratio floored at 1 + 1e-9. Samples with a vanishing
    denominator are skipped and counted.
    """
    rng = np.random.default_rng(seed)
    dims = (sys.n_x, sys.n_y)
    shapes = WindowShapes(sys, cert, M)
    best = 0.0
    used = skipped = 0
    for _ in range(n_trials):
        t = int(rng.integers(1, 2 * M + 1))
        m_t = min(M, t)
        m_prev = min(M, t - 1)
        n_seq = m_t + 1 if t > M else m_t
        u_seq = _sample_in_box(rng, sys.u_box, n_seq, 1.0)
        y_seq = _sample_in_box(rng, sys.y_box, n_seq, y_scale)
        prior1 = _sample_in_box(rng, sys.x_box, 1, prior_scale)[0]
        delta = prior_step_scale * rng.standard_normal(sys.n_x)
        prior2 = sys.x_box.project(prior1 + delta)
        if t > M:
            u1, y1 = u_seq[:-1], y_seq[:-1]
            u2, y2 = u_seq[1:], y_seq[1:]
        else:
            u1, y1 = u_seq[:m_prev], y_seq[:m_prev]
            u2, y2 = u_seq[:m_t], y_seq[:m_t]
        p1 = build_problem(sys, cert, prior1, u1, y1, M, t - 1, shapes=shapes)
        p2 = build_problem(sys, cert, prior2, u2, y2, M, t, shapes=shapes)
        _, sigma_t = residual_sigma_parts(t, M, p2.weight, sys, cert.eta)
        denom = (np.linalg.norm(p1.reference
                                - sigma_truncate(p2.reference, t, M, dims))
                 + sigma_t)
        if denom <= 1e-9 * max(1.0, float(np.linalg.norm(p1.reference))):
            skipped += 1
            continue
        z1 = solve_oracle(p1, tol=oracle_tol).z
        z2 = solve_oracle(p2, tol=oracle_tol).z
        ratio = float(np.linalg.norm(sigma_lift(z1, t, M, dims) - z2)) / denom
        best = max(best, ratio)
        used += 1
    if used == 0:
        raise DegenerateDenominator("every probe sample had a vanishing denominator")
    return LipschitzProbe(value=max(best, 1.0 + 1e-9), n_used=used,
                          n_skipped=skipped, max_ratio_raw=best)


def _sample_in_box(rng, box, count, scale):
    lo = np.where(np.isfinite(box.lower), box.lower, -scale)
    hi = np.where(np.isfinite(box.upper), box.upper, scale)
    return rng.uniform(lo, hi, size=(count, box.dim))
