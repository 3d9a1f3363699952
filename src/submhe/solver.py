"""Fixed-iteration projected-gradient solver and the window-optimum oracle.

The projected-gradient map on the condensed QP is feasible after every
iteration (componentwise clamping is exact on boxes) and contracts the
distance to the optimizer in the free coordinates. The iteration steps
2/(L+mu), and its budget is the rate of that step: phi(K) = q^K with
q = (L-mu)/(L+mu), so ||v_K - v*|| <= q^K ||v_0 - v*|| in the Euclidean
norm of v (see mhe.WindowShape.contraction_base). In the lifted z the bound
gains the factor ||Psi|| (mhe.WindowShape.lift_norm). The oracle measures
v*, and with it the sub-optimality error, with the same kernel, on the
same window in Jacobi-scaled coordinates (mhe.WindowShape.jacobi, itself a
window shape): it runs the loop on from the step's iterate, polishes the
iterate on its active set, binding once the sides the polish crosses, and
accepts on a certified error bound in the plain problem (solve_oracle). A
warm start is polished at once; a cold one runs one chunk of the kernel
first, since at clip(0) the active set holds little more than the pinned
coordinates. The scaling serves the oracle's search only; the estimator,
its budget K and every bound on it stay the plain iteration's.

There is one iteration loop. A step's iteration is affine before the clamp,
v -> T v + d with T = I - alpha S and d = -alpha c, so each iteration is one
matrix-vector product of the augmented operator [T | d] with [v; 1] and two
in-place clamps. T, S, the step and q come from the problem's window shape,
which computes them once per window length; only c changes per step. It is
one product of the step's data with the shape's data gradient
(mhe.WindowShape.data_gradient), and c, d and [T | d] are built only when
the loop runs an iteration.

Most solves stop clamping early, and from then on the loop is that affine
recursion, which has a closed form (mhe.StepSpectrum). At the iterates
k = 0, 1, 3, 7, ... the loop tests whether every later unclamped iterate
v_{k+i} (i >= 1; v_u = -U diag(1/lambda) U^T c the unconstrained fixed
point, with U^T v_u read off the step's data through the shape's settle map
(mhe.WindowShape.settle_map, the data gradient in the eigenbasis of S),
beta = U^T (v_k - v_u))
lies strictly inside every finite side of the box, with a relative margin
of TAIL_MARGIN. It first tries the envelope from the first iterate on,
|v_{k+i} - v_u| <= |U| (|tau| * |beta|) componentwise. Where that fails,
it tries a two-part test, which that envelope implies and which holds more
often: the first iterate's deviation U (tau * beta), computed exactly, and
the envelope from the second iterate on, |U| (|tau| * |tau * beta|). The
proof is in mhe.StepSpectrum: by induction on i, either test keeps every
later iterate inside the box, so no clamp can fire for the rest of the
budget, and the loop returns the K-th iterate in closed form from its
probe's own v_k. In exact arithmetic that is the same iterate, so K,
phi(K) and every bound on it are unchanged. On the certified config most
solves that miss the envelope at k = 0 clamp nothing in their first
iteration: the envelope's bound on the first iterate is what is loose, and
the two-part test settles them at k = 0 instead of after one iteration.
The test is False whenever a NaN or inf enters it, and never holds for a
pinned coordinate (lower == upper). When it holds, v_u lies strictly
inside the box (each envelope is nonnegative) and is the window optimum
v*; the solve reports it, and the oracle is needed only for solves that
clamp to the end.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonfiniteIterate, OracleStalled
from .linalg import clamp, vector_norm

KERNEL_BACKEND = "python"  # the sidecar's solver_backend; _iterate is the one kernel

# Relative margin of the tail test: a side counts only when the envelope
# stays inside it by 1e-9 (1 + |v_u| + |v_u - side|), far above the
# rounding of v_u and of the envelope.
TAIL_MARGIN = 1e-9
ORACLE_CHUNK = 256  # the longest kernel run between two of the oracle's tests


@dataclass(slots=True)
class SolveReport:  # a per-step record, never changed after (mhe.MheProblem)
    problem: object  # the MheProblem solved
    v: np.ndarray    # the K-th iterate, in the free coordinates
    looped: int  # iterations run before the closed-form tail; K without a jump
    # the window optimum v*: the tail's fixed point v_u when the solve settled
    # (mhe.StepSpectrum), None for K = 0, a solve that ran all K iterations,
    # or a step without a spectrum
    optimum: np.ndarray | None = None

    @property
    def z(self):
        """The lift Psi v + psi of the iterate, formed on each read."""
        return self.problem.lift(self.v)

    @property
    def point(self):
        # perfbench/child.py's kernel sweep reads rep.point.z; the alias goes
        # with that benchmark's revision (ROADMAP item 3)
        return self


@dataclass(frozen=True)
class OracleReport:
    v: np.ndarray  # the window optimum v*
    bound: float   # the certified error bound on ||v - v*||
    iters: int     # kernel iterations run from the start


def _iterate(transition, step, c, lo, hi, v0, iters, tail):
    """The one projected-gradient loop: v <- clamp(T v + d, lo, hi), for
    T = transition = I - step S and d = -step c.

    Returns (v_K, looped, tail). At k = 1, 3, 7, ... the loop tries `tail`,
    the solve's _Tail (None for no tail; solve_fixed_iters probes it at
    k = 0 before it forms c); looped is the number of iterations run before
    it took the tail, and `iters` when it did not. The returned tail is the
    one the loop settled on, and None when it did not settle. Every array of
    the loop is reused.
    """
    n = transition.shape[0]
    iters = int(iters)
    w = np.empty(n + 1)
    w[n] = 1.0
    v = w[:n]
    v[:] = v0
    op = np.empty((n, n + 1))  # [T | d] maps [v; 1] to T v + d
    op[:, :n] = transition
    np.multiply(-step, c, out=op[:, n])  # d = -step c
    buf = np.empty(n)
    probe = 1 if tail is not None else -1
    for k in range(iters):
        if k == probe:
            if tail.settled(v):
                return tail.finish(iters - k), k, tail
            probe = 2 * probe + 1
        np.dot(op, w, out=buf)
        clamp(buf, lo, hi, out=v)
    return v.copy(), iters, None


class _Tail:
    """One solve's unclamped recursion v <- T v + d in closed form
    (mhe.StepSpectrum), and the test that the loop has reached it. Once
    settled holds, the fixed point v_u is the window optimum v*.

    It is built from fixed = U^T v_u = -diag(1/lambda) U^T c, which
    solve_fixed_iters reads off the step's data through the shape's settle
    map (mhe.WindowShape.settle_map), so the tail needs neither c nor the
    shift d. settled keeps U^T v for finish, which jumps from that same v;
    the per-budget pair (tau^j, 1 - tau^j) comes from the spectrum's own
    cache (StepSpectrum.powers). Both are the products and expressions a
    fresh computation would evaluate on the same operands, so the jump is
    the same bytes.
    """

    def __init__(self, spectrum, fixed, lo, hi):
        self.spectrum, self.lo, self.hi, self.fixed = spectrum, lo, hi, fixed
        v_u = self.v_u = spectrum.basis @ fixed
        # room left to each side, min(v_u - lo, hi - v_u) (1 - TAIL_MARGIN)
        # - TAIL_MARGIN (1 + |v_u|), formed in place; NaN, and so no jump,
        # if anything is not finite
        room = self.room = np.subtract(v_u, lo)
        np.minimum(room, np.subtract(hi, v_u), out=room)
        room *= 1.0 - TAIL_MARGIN
        margin = np.abs(v_u)
        margin += 1.0
        margin *= TAIL_MARGIN
        room -= margin

    def settled(self, v):
        """True when no clamp can fire in any iteration after v: the envelope
        from the first iterate on lies inside room, or else the first
        iterate's exact deviation and the envelope from the second on do
        (mhe.StepSpectrum)."""
        s, room = self.spectrum, self.room
        self.coords = s.basis.T @ v  # U^T v, for finish
        first = s.tau * (self.coords - self.fixed)  # tau * beta
        deviation = np.abs(first)
        if (s.abs_basis @ deviation < room).all():
            return True
        return bool((np.abs(s.basis @ first) < room).all()
                    and (s.abs_basis @ (s.abs_tau * deviation) < room).all())

    def finish(self, j):
        """The iterate j steps after the v that settled last held for:
        U (tau^j U^T v + (1 - tau^j) U^T v_u), clamped like every iterate
        (a no-op in exact arithmetic)."""
        s = self.spectrum
        power, one_minus = s.powers(j)
        v_j = s.basis @ (power * self.coords + one_minus * self.fixed)
        return clamp(v_j, self.lo, self.hi, out=v_j)


def solve_fixed_iters(problem, start, K):
    """Run exactly K projected-gradient iterations from the warm start.

    The warm start is a v (MheProblem.free_coordinates); a decision vector z
    gives its initial-state and disturbance blocks, and a start of any other
    length raises DimensionMismatch. The report lifts z = Psi v + psi only
    when it is read (SolveReport.z).
    K = 0 returns the box projection of the warm start. The report's
    `looped` counts the iterations run before the closed-form tail (K when
    the loop ran them all); a solve that took the tail also reports the
    window optimum v* as `optimum` (mhe.StepSpectrum). The tail is probed
    first at the start itself, from the step's data alone
    (mhe.WindowShape.settle_map), so a solve that settles there forms no
    linear term, shift or operator.
    """
    shape = problem.shape
    v0 = problem.free_coordinates(start)
    lo, hi = shape.lower, shape.upper
    K = int(K)
    if K == 0:
        v, looped, tail = clamp(v0, lo, hi), 0, None
    else:
        settle = shape.settle_map
        tail = None if settle is None else _Tail(shape.spectrum, settle @ problem.data,
                                                  lo, hi)
        if tail is not None and tail.settled(v0):
            v, looped = tail.finish(K), 0
        else:
            v, looped, tail = _iterate(shape.transition, shape.step, problem.linear_term,
                                       lo, hi, v0, K, tail)
    if not np.isfinite(v).all():
        raise NonfiniteIterate("projected-gradient iterate overflowed; "
                               "check problem conditioning")
    return SolveReport(problem, v, looped, None if tail is None else tail.v_u)


def optimum_tolerance(shape, v_star):
    """How far a correct v* may lie from another correct solve's v*:
    shape.rounding_floor max(1, ||v*||) (mhe.WindowShape.rounding_floor)."""
    return shape.rounding_floor * max(1.0, float(np.linalg.norm(v_star)))


def _polish(s, c, v, active):
    """v with its free coordinates (not `active`) solved for on the active
    set: w_A = v_A and S_FF w_F = -(c_F + S_FA v_A)."""
    free, fixed = (~active).nonzero()[0], active.nonzero()[0]
    w = v.copy()
    if free.size:
        s_ff, s_fa = _free_blocks(s, free, fixed)
        w[free] = np.linalg.solve(s_ff, -(c.take(free) + s_fa @ w.take(fixed)))
    return w


def _free_blocks(s, free, fixed):
    """(S_FF, S_FA): the rows `free` of s at the columns `free` and `fixed`,
    the same C-contiguous blocks as s[np.ix_(free, free)] and
    s[np.ix_(free, fixed)], by three takes, a fraction of the cost of two
    np.ix_ gathers on a window-sized s."""
    rows = s.take(free, 0)
    return rows.take(free, 1), rows.take(fixed, 1)


def oracle_iterations(shape, ratio):
    """The iterations of the oracle's search that shrink ||v - v*|| by `ratio`.

    The search runs the kernel on the Jacobi-scaled shape (d, scaled) =
    shape.jacobi, whose step contracts v~ = v / d at q~ =
    scaled.contraction_base; in v that is
    ||v_k - v*|| <= kappa(D) q~^k ||v_0 - v*|| with kappa(D) = max d / min d
    (mhe.WindowShape.jacobi; the shape keeps kappa(D) and log q~ as
    search_rate). Returns the smallest k >= 0 with kappa(D) q~^k <= ratio,
    and 1 at q~ = 0, where v_1 = v*.
    """
    kappa, log_q = shape.search_rate
    if log_q is None:
        return 1
    return max(0, int(np.ceil(np.log(ratio / kappa) / log_q)))


def solve_oracle(problem, start=None):
    """The window optimum v*: iterate, polish, certify. Returns an OracleReport.

    The start v_0 is `start` (a v of shape (dim_v,); DimensionMismatch
    otherwise), or 0, clipped to the box. At a test, with v the plain iterate
    and g = S v + c, let A be the pinned coordinates and those at a bound
    whose g points out of the box, and F the rest. The polish w keeps w_A at
    its bounds and solves S_FF w_F = -(c_F + S_FA w_A). Where w leaves the
    box, the polish binds once: each coordinate of w past a side is held at
    that side and joins A, and w is the polish on that set. The first of w
    (if inside the box) and v whose error bound B(u) = gain ||u - clip(u -
    alpha (S u + c))||, with gain = (1 + alpha L)/(alpha mu)
    (shape.error_gain), is at most optimum_tolerance(shape, u) is accepted;
    v covers degenerate complementarity. Otherwise the kernel runs 8 more
    iterations (doubling, up to ORACLE_CHUNK) and the test repeats. The
    kernel skips its closed-form tail (where that would settle, A is empty
    and w = v_u), and solve_fixed_iters counts loop solves only.

    The bind is the active-set step of bound-constrained QP methods (Nocedal
    & Wright, Numerical Optimization, 2nd ed., 2006, ch. 16): a polish that
    misses one coordinate of v*'s active set most often overshoots exactly
    that coordinate's side, and held there the polish is the one on v*'s
    own active set. A later iterate with that active set would give the same
    point byte for byte, since a polish reads only its set, its bound values,
    S and c; the bind offers it one or more chunks earlier. It changes no
    other part of the solve: it leaves v alone, so the kernel's iterate
    sequence, B(v_0) (v is still tested last) and with it the termination
    count and OracleStalled are the same, and its point is accepted only as
    every candidate is, inside the box and on B(u).

    The first test, at iteration 0, takes B(v_0) on the plain start, and a
    warm start's polish with it: the loop starts the oracle from its K-th
    iterate, whose active set is mostly v*'s. A cold start is not polished
    before the first chunk. At clip(0) A holds little more than the pinned
    coordinates, so that polish would be the full unconstrained solve, of
    use only where v* is interior; after the chunk the kernel's active set
    is most often v*'s (projected gradient identifies the optimal face in
    finitely many iterations: Calamai & More, Math. Prog. 39, 1987), and
    where v* is interior the polish is that same solve.

    The search is the same kernel, on the Jacobi-scaled shape (d, scaled) =
    shape.jacobi: it iterates v~ = v / d on S~ = D S D with the linear term
    d * c, the box [lo / d, hi / d] and the scaled shape's own step
    2/(L~ + mu~), and v is d * v~. A coordinate the kernel clamped to a
    scaled side is set to that side exactly (d * (lo / d) may round off lo),
    so the active-set test `v == lo` sees it, and v is clipped to the box
    against outward rounding.
    Only the search is scaled: the active set, the polish and B(u) use S, c,
    the plain step alpha, mu and L, so an iterate with the same active set
    gives the same w.

    B(u) >= ||u - v*|| for every u (Pang, Math. Oper. Res. 12, 1987). Let
    r = u - p, p = clip(u - alpha F(u)), F(u) = S u + c and e = u - v*. The
    projection gives (r - alpha F(u))^T (v* - p) <= 0 and the optimality of
    v* gives alpha F(v*)^T (p - v*) >= 0. Their sum, with v* - p = r - e, is
    alpha e^T S e <= alpha (S e)^T r + r^T e - ||r||^2, so
    alpha mu ||e||^2 <= (1 + alpha L) ||r|| ||e||. At the kernel's step the
    gain is (3 L + mu)/(2 mu) at every scale of S; at the unit step, one
    rounding of u in r, eps |u|, would give (1 + L) eps |u| / mu, above the
    tolerance 4 n (L/mu) eps |u| once L < 1/(4 n).

    It ends: r = I - G for the plain step's q-contraction G, so r is
    (1 + q)-Lipschitz with r(v*) = 0, and B(u) <= gain (1 + q) ||u - v*||.
    The scaled iterates satisfy ||v_k - v*|| <= kappa(D) q~^k ||v_0 - v*||
    (oracle_iterations), and ||v_0 - v*|| <= B(v_0), so
    B(v_k) <= gain (1 + q) kappa(D) q~^k B(v_0). The plain iterate passes by
    the k at which that is below optimum_tolerance(shape, 0); a solve
    unaccepted one chunk later is held up by rounding and raises
    OracleStalled. A non-finite c, scaled start or scaled iterate raises
    NonfiniteIterate.
    """
    shape = problem.shape
    s, c, lo, hi = shape.hessian, problem.linear_term, shape.lower, shape.upper
    v0 = np.zeros(shape.dim_v) if start is None else np.asarray(start, dtype=float)
    if v0.shape != (shape.dim_v,):
        raise DimensionMismatch(
            f"oracle start has shape {v0.shape}, expected ({shape.dim_v},)")
    v = clamp(v0, lo, hi)
    if not (np.isfinite(c).all() and np.isfinite(v).all()):
        raise NonfiniteIterate("oracle: non-finite linear term or start")
    alpha, gain, floor = shape.step, shape.error_gain, shape.rounding_floor
    iters, chunk, stall_at = 0, 8, None
    while True:
        grad = s @ v + c
        candidates = [(v, grad)]
        if start is not None or iters:  # a cold start is polished after a chunk
            active = (lo == hi) | ((v == lo) & (grad > 0.0)) | ((v == hi) & (grad < 0.0))
            w = _polish(s, c, v, active)
            inside = (w >= lo) & (w <= hi)
            if not inside.all():  # bind once: hold each crossed coordinate at its side
                w = _polish(s, c, clamp(w, lo, hi, out=w), active | ~inside)
                inside = (w >= lo) & (w <= hi)
            if inside.all():
                candidates.insert(0, (w, s @ w + c))
        for u, g in candidates:
            bound = gain * vector_norm(u - clamp(u - alpha * g, lo, hi))
            if bound <= floor * max(1.0, vector_norm(u)):
                return OracleReport(u, bound, iters)
        if stall_at is None:  # bound is B(v_0)
            ratio = floor / (gain * (1.0 + shape.contraction_base) * bound)
            stall_at = ORACLE_CHUNK + oracle_iterations(shape, ratio)
            d, scaled = shape.jacobi
            c_scaled = d * c
            v_scaled = v / d
            if not np.isfinite(v_scaled).all():
                raise NonfiniteIterate("oracle: non-finite scaled start")
        if iters > stall_at:
            raise OracleStalled(
                f"oracle: error bound {bound:.3e} still above tolerance after "
                f"{iters} iterations; the contraction puts it below by "
                f"{stall_at - ORACLE_CHUNK}")
        v_scaled = _iterate(scaled.transition, scaled.step, c_scaled, scaled.lower,
                            scaled.upper, v_scaled, chunk, None)[0]
        iters += chunk
        if not np.isfinite(v_scaled).all():
            raise NonfiniteIterate("oracle: projected-gradient iterate overflowed")
        v = np.where(v_scaled == scaled.lower, lo,
                     np.where(v_scaled == scaled.upper, hi, clamp(d * v_scaled, lo, hi)))
        chunk = min(2 * chunk, ORACLE_CHUNK)
