"""Fixed-iteration projected-gradient solver and a high-accuracy oracle.

The projected-gradient map on the condensed QP is feasible after every
iteration (componentwise clamping is exact on boxes) and contracts the
distance to the optimizer in the free coordinates. The advertised budget is
phi(K) = q^K with q = 1 - mu/L; iterating at the optimal constant step
2/(L+mu) gives the true rate q/(2-q) < q, so the budget holds with margin.
The oracle is a primal active-set method used to measure the true optimizer
and the sub-optimality error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHessian, MaxCyclesExceeded, NonfiniteIterate
from .mhe import CondensedPoint

KERNEL_BACKEND = "python"  # the sidecar's solver_backend; run_pgd is the one kernel


@dataclass(frozen=True)
class SolveReport:
    point: CondensedPoint
    iterations: int
    step_size: float
    contraction_base: float
    costs: np.ndarray | None = None
    per_iteration_distances: np.ndarray | None = None
    history: np.ndarray | None = None  # free-coordinate iterates, recorded runs only


def run_pgd(s, g, lo, hi, v0, alpha, iters, history=None):
    """Iterate v <- clip(v - alpha * (S v + g), lo, hi) exactly `iters` times.

    v0 is not modified. If `history` (shape (iters + 1, n)) is given, row k
    receives the k-th iterate, starting with v0.
    """
    v = np.array(v0, dtype=float)
    if history is not None:
        history[0] = v
    for k in range(int(iters)):
        v = np.clip(v - alpha * (s @ v + g), lo, hi)
        if history is not None:
            history[k + 1] = v
    return v


def _eigen_extremes(s):
    w = np.linalg.eigvalsh(0.5 * (s + s.T))
    mu, lip = float(w[0]), float(w[-1])
    if mu <= 0.0 or not np.isfinite(lip):
        raise DegenerateHessian(
            f"reduced Hessian has min eigenvalue {mu:.3e}; lift is rank-deficient")
    return mu, lip


def contraction_rate(problem):
    """Gradient step 1/L and per-iteration contraction base q = 1 - mu/L.

    This is the certified contract. The iteration itself uses the slightly
    faster constant step 2/(L+mu), whose true rate q/(2-q) beats q, so the
    q^K budget always holds with margin.
    """
    mu, lip = _eigen_extremes(problem.reduced_hessian())
    return 1.0 / lip, 1.0 - mu / lip


def _as_v(problem, z0):
    if isinstance(z0, CondensedPoint):
        z0 = z0.z
    return problem.select_v(z0)


def solve_fixed_iters(problem, z0, K, record=False):
    """Run exactly K projected-gradient iterations from the warm start z0.

    The warm start enters through its free coordinates (initial-state and
    disturbance blocks of z0); derived output blocks are rebuilt by the lift.
    K = 0 returns the box projection of the warm start. With record=True the
    per-iteration costs and free-coordinate iterates are kept.
    """
    s, c = problem.reduced_gradient_terms()
    mu, lip = _eigen_extremes(s)
    q = 1.0 - mu / lip
    step = 2.0 / (lip + mu)
    v0 = _as_v(problem, z0)
    lo, hi = problem.lower, problem.upper
    K = int(K)
    costs = None
    history = None
    if K == 0:
        v = np.clip(v0, lo, hi)
    else:
        history = np.empty((K + 1, v0.shape[0])) if record else None
        v = run_pgd(s, c, lo, hi, v0, step, K, history)
        if record:
            costs = np.array([problem.cost(problem.lift(h)) for h in history])
    if not np.all(np.isfinite(v)):
        raise NonfiniteIterate("projected-gradient iterate overflowed; "
                               "check problem conditioning")
    z = problem.lift(v)
    return SolveReport(point=CondensedPoint(z=z, v=v), iterations=K,
                       step_size=step, contraction_base=q,
                       costs=costs, history=history)


def attach_distances(problem, report, z_star):
    """Per-iteration distances ||z_k - z*|| for a recorded solve."""
    if report.history is None:
        raise ValueError("distances need a recorded solve (record=True)")
    z_star = z_star.z if isinstance(z_star, CondensedPoint) else np.asarray(z_star)
    dists = np.array([np.linalg.norm(problem.lift(h) - z_star)
                      for h in report.history])
    return SolveReport(point=report.point, iterations=report.iterations,
                       step_size=report.step_size,
                       contraction_base=report.contraction_base,
                       costs=report.costs, per_iteration_distances=dists,
                       history=report.history)


def solve_oracle(problem, tol=1e-10, max_cycles=None):
    """Solve the box-constrained QP to KKT residual <= tol (active set).

    Classic primal scheme for a strictly convex objective: fix the active
    bounds, solve the equality-restricted system, then either bind the most
    violated bound or release the most negative multiplier. Ties break by
    lowest index; deterministic throughout.
    """
    s, c = problem.reduced_gradient_terms()
    lo, hi = problem.lower, problem.upper
    n = s.shape[0]
    if max_cycles is None:
        max_cycles = 100 + 20 * n

    # side[i]: 0 free, -1 at lower, +1 at upper; pinned intervals stay fixed
    side = np.zeros(n, dtype=int)
    pinned = lo == hi
    side[pinned] = -1

    scale = max(1.0, float(np.abs(c).max(initial=0.0)), float(np.abs(s).max()))
    v = np.empty(n)
    for _ in range(max_cycles):
        free = np.flatnonzero(side == 0)
        bound_val = np.where(side < 0, lo, np.where(side > 0, hi, 0.0))
        v = bound_val.copy()
        if free.size:
            rhs = -(c[free] + s[np.ix_(free, np.flatnonzero(side != 0))]
                    @ bound_val[side != 0])
            v[free] = np.linalg.solve(s[np.ix_(free, free)], rhs)

        # bind the most violated free bound, if any
        if free.size:
            viol_lo = lo[free] - v[free]
            viol_hi = v[free] - hi[free]
            worst = np.maximum(viol_lo, viol_hi)
            k = int(np.argmax(worst))
            if worst[k] > 1e-12 * scale:
                idx = free[k]
                side[idx] = -1 if viol_lo[k] >= viol_hi[k] else 1
                continue
            v[free] = np.clip(v[free], lo[free], hi[free])

        # multipliers: at a lower bound grad >= 0, at an upper bound grad <= 0
        grad = s @ v + c
        lam = np.zeros(n)
        active = (side != 0) & ~pinned
        lam[active] = np.where(side[active] < 0, grad[active], -grad[active])
        releasable = np.flatnonzero(active & (lam < -1e-12 * scale))
        if releasable.size:
            side[releasable[np.argmin(lam[releasable])]] = 0
            continue

        residual = np.max(np.abs(v - np.clip(v - grad, lo, hi)))
        if residual <= tol:
            return CondensedPoint(z=problem.lift(v), v=v)
    raise MaxCyclesExceeded(
        f"active-set oracle exceeded {max_cycles} cycles")


def kkt_residual(problem, point):
    """Projected-gradient fixed-point residual of a candidate optimum."""
    s, c = problem.reduced_gradient_terms()
    v = point.v if isinstance(point, CondensedPoint) else problem.select_v(point)
    return float(np.max(np.abs(v - np.clip(v - (s @ v + c),
                                           problem.lower, problem.upper))))
