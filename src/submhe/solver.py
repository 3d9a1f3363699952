"""Fixed-iteration projected-gradient solver and a high-accuracy oracle.

The projected-gradient map on the condensed QP is feasible after every
iteration (componentwise clamping is exact on boxes) and contracts the
distance to the optimizer in the free coordinates. The iteration steps
2/(L+mu), and its budget is the rate of that step: phi(K) = q^K with
q = (L-mu)/(L+mu), so ||v_K - v*|| <= q^K ||v_0 - v*|| in the Euclidean
norm of v (see mhe.WindowShape.contraction_base). In the lifted z the bound
gains the factor ||Psi|| (mhe.WindowShape.lift_norm). The oracle is a primal
active-set method used to measure the true optimizer and the sub-optimality
error.

There is one iteration loop. A step's iteration is affine before the clamp,
v -> T v + d with T = I - alpha S and d = -alpha c, so each iteration is one
matrix-vector product of the augmented operator [T | d] with [v; 1] and two
in-place clamps. T, S, the step and q come from the problem's window shape,
which computes them once per window length; only d changes per step, and
[T | d] is built only when the loop runs an iteration.

Most solves stop clamping early, and from then on the loop is that affine
recursion, which has a closed form (mhe.StepSpectrum). At the iterates
k = 0, 1, 3, 7, ... the loop tests the envelope of every later unclamped
iterate, |v_{k+i} - v_u| <= |U| (|tau| * |beta|) componentwise (i >= 1,
v_u the unconstrained fixed point). When it lies strictly inside every
finite side of the box, with a relative margin of TAIL_MARGIN, no clamp can
fire for the rest of the budget, and the loop returns the K-th iterate in
closed form instead of running the remaining iterations. In exact arithmetic
that is the same K-th iterate, so K, phi(K) and every bound on it are
unchanged. The test is False whenever a NaN or inf enters it, and never
holds for a pinned coordinate (lower == upper), so the loop then runs on.
When it holds, v_u lies strictly inside the box and is therefore the window
optimum v*; the solve reports it, and the active-set oracle is needed only
for solves that clamp to the end.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MaxCyclesExceeded, NonfiniteIterate, OracleStalled
from .mhe import CondensedPoint

KERNEL_BACKEND = "python"  # the sidecar's solver_backend; _iterate is the one kernel

# Relative margin of the tail test: a side counts only when the envelope
# stays inside it by 1e-9 (1 + |v_u| + |v_u - side|), far above the
# rounding of v_u and of the envelope.
TAIL_MARGIN = 1e-9


@dataclass(frozen=True)
class SolveReport:
    point: CondensedPoint
    looped: int  # iterations run before the closed-form tail; K without a jump
    # the window optimum v*: the tail's fixed point v_u when the solve settled
    # (mhe.StepSpectrum), None for K = 0, a solve that ran all K iterations,
    # or a step without a spectrum
    optimum: np.ndarray | None = None


def _iterate(transition, shift, lo, hi, v0, iters, spectrum):
    """The one projected-gradient loop: v <- min(hi, max(lo, T v + d)), for
    T = transition and d = shift.

    Returns (v_K, looped, tail). At k = 0, 1, 3, 7, ... the loop tries the
    closed-form tail of `spectrum` (a StepSpectrum of T, or None for no
    tail); looped is the number of iterations run before it took it, and
    `iters` when it did not. tail is the _Tail the loop settled on, and None
    when it did not settle. The probe at k = 0 needs only d, so a solve
    that settles there builds no operator. The clamp order matches np.clip,
    NaN included; every array is reused.
    """
    n = transition.shape[0]
    iters = int(iters)
    w = np.empty(n + 1)
    w[n] = 1.0
    v = w[:n]
    v[:] = v0
    tail = None
    if spectrum is not None and iters > 0:
        tail = _Tail(spectrum, shift, lo, hi)
        if tail.settled(v):
            return tail.finish(v, iters), 0, tail
    op = np.empty((n, n + 1))  # [T | d] maps [v; 1] to T v + d
    op[:, :n] = transition
    op[:, n] = shift
    buf = np.empty(n)
    probe = 1 if tail is not None else -1
    for k in range(iters):
        if k == probe:
            if tail.settled(v):
                return tail.finish(v, iters - k), k, tail
            probe = 2 * probe + 1
        np.dot(op, w, out=buf)
        np.maximum(lo, buf, out=buf)
        np.minimum(hi, buf, out=v)
    return v.copy(), iters, None


class _Tail:
    """One solve's unclamped recursion v <- T v + d in closed form
    (mhe.StepSpectrum), and the test that the loop has reached it. Once
    settled holds, the fixed point v_u is the window optimum v*."""

    def __init__(self, spectrum, shift, lo, hi):
        self.spectrum, self.lo, self.hi = spectrum, lo, hi
        self.fixed = (spectrum.basis.T @ shift) / spectrum.rate  # U^T v_u
        v_u = self.v_u = spectrum.basis @ self.fixed
        # room left to each side; NaN, and so no jump, if anything is not finite
        margin = TAIL_MARGIN * (1.0 + np.abs(v_u))
        self.room = np.minimum(v_u - lo, hi - v_u) * (1.0 - TAIL_MARGIN) - margin

    def settled(self, v):
        """True when no clamp can fire in any iteration after v."""
        s = self.spectrum
        beta = s.basis.T @ v - self.fixed
        return bool(np.all(s.abs_basis @ np.abs(s.tau * beta) < self.room))

    def finish(self, v, j):
        """The iterate j steps after v: U (tau^j U^T v + (1 - tau^j) U^T v_u),
        clamped like every iterate (a no-op in exact arithmetic)."""
        s = self.spectrum
        power = s.tau ** j
        one_minus = 1.0 - power                       # 1 - tau^j,
        one_minus[s.slow] = -np.expm1(j * s.log_tau)  # without cancellation
        v_j = s.basis @ (power * (s.basis.T @ v) + one_minus * self.fixed)
        return np.minimum(self.hi, np.maximum(self.lo, v_j))


def solve_fixed_iters(problem, z0, K):
    """Run exactly K projected-gradient iterations from the warm start z0.

    The warm start enters through its free coordinates (initial-state and
    disturbance blocks of z0); derived output blocks are rebuilt by the lift.
    K = 0 returns the box projection of the warm start. The report's
    `looped` counts the iterations run before the closed-form tail (K when
    the loop ran them all); a solve that took the tail also reports the
    window optimum v* as `optimum` (mhe.StepSpectrum).
    """
    shape = problem.shape
    v0 = problem.select_v(z0)
    lo, hi = problem.lower, problem.upper
    K = int(K)
    tail = None
    if K == 0:
        v = np.clip(v0, lo, hi)
        looped = 0
    else:
        v, looped, tail = _iterate(shape.transition, -shape.step * problem.linear_term,
                                   lo, hi, v0, K, shape.spectrum)
    if not np.all(np.isfinite(v)):
        raise NonfiniteIterate("projected-gradient iterate overflowed; "
                               "check problem conditioning")
    z = problem.lift(v)
    return SolveReport(point=CondensedPoint(z=z, v=v), looped=looped,
                       optimum=None if tail is None else tail.v_u)


def optimum_tolerance(shape, v_star):
    """How far a correct v* may lie from another correct solve's v*.

    The settled tail's v_u and the oracle both solve S v = -c with every
    coordinate free, v_u through the eigenbasis of S and the oracle by LU.
    Two backward-stable solves of one system differ by up to about
    n kappa(S) eps relative (eps the float64 machine epsilon, kappa = L/mu
    from shape.curvature); 4 n kappa eps leaves room over the largest ratio
    seen, 0.86 n kappa eps in 1,400 settled random windows with kappa up to
    9e5. On a well-conditioned S the relative floor 1e-12 governs.
    """
    mu, lip = shape.curvature
    rounding = 4.0 * shape.dim_v * (lip / mu) * np.finfo(float).eps
    return max(1e-12, rounding) * max(1.0, float(np.linalg.norm(v_star)))


def solve_oracle(problem, tol=1e-10, max_cycles=None):
    """Solve the box-constrained QP to KKT residual <= tol (active set).

    Classic primal scheme for a strictly convex objective: fix the active
    bounds, solve the equality-restricted system, then either bind the most
    violated bound or release the most negative multiplier. Ties break by
    lowest index; deterministic throughout.

    A cycle that neither binds nor releases has found the final active set:
    the next cycle would repeat it. It returns when the KKT residual is at
    most max(tol, floor), and otherwise raises OracleStalled. The floor
    n * eps * max(1, |c|, |S|) * max(1, ||v||_inf), with eps the float64
    machine epsilon, is the rounding of the restricted solve and of S v + c
    at the scale the bind and release tests use; an absolute tol below it
    can be out of reach on an ill-conditioned S. max_cycles bounds the
    binds and releases.
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
        floor = n * np.finfo(float).eps * scale * max(1.0, float(np.abs(v).max()))
        if residual <= max(tol, floor):
            return CondensedPoint(z=problem.lift(v), v=v)
        raise OracleStalled(
            f"active-set oracle: final active set has KKT residual "
            f"{residual:.3e}, above tol {tol:.3e} and rounding floor {floor:.3e}")
    raise MaxCyclesExceeded(
        f"active-set oracle exceeded {max_cycles} cycles")

