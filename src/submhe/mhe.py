"""Condensed moving-horizon estimation problem for one time step.

Each step solves

    min  2 eta^Mt ||xhat_0 - prior||_P^2
       + sum_j eta^{Mt-1-j} (2 ||what_j||_Q^2 + ||yhat_j - y_j||_R^2)

over the window states/disturbances/outputs, subject to the plant equalities
and interval constraints. The equalities are eliminated by condensing onto
the free variables v = (initial window state, disturbance sequence); states
and outputs are affine in v, so the problem becomes a box-constrained
strongly convex QP. The full decision vector keeps the ordering

    z = [xhat_0, what_0, yhat_0, ..., what_{Mt-1}, yhat_{Mt-1}]

so that the growing window's zero padding (sigma_lift on z, one appended
disturbance slot on v) and error norms are measured consistently.

A problem is split along what changes from step to step. The lift Psi, the
weight H, the box and the reduced Hessian S = 2 Psi^T H Psi depend only on
the window length, and live in a WindowShape; a WindowShapes object holds
the M+1 shapes of one run and builds each on first use. So does the one
eigendecomposition of S, which gives the step, its contraction base and the
spectrum of the step's linear part (StepSpectrum), from which the solver
takes the clamp-free tail of its loop in closed form. The oracle's search
runs on the same window in Jacobi-scaled coordinates, itself a WindowShape
(WindowShape.jacobi) that the shape also builds on first use, as it does
the oracle's other constants (search_rate, error_gain, rounding_floor). The
shape keeps the window-state map too: the states xhat_0..xhat_Mt are affine
in v and the input window, so the estimate is one product with its last
n_x rows (WindowShape.estimate_map). A step adds the offset psi, the
reference and with them the gradient's linear term c.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateHessian, DimensionMismatch, WindowLengthMismatch
from .linalg import eigh


@dataclass(frozen=True, eq=False)
class WindowShape:
    """The part of a window QP fixed by the window length m_eff.

    The lift Psi, the weight H and the free-variable box depend on (A, C,
    the certificate, m_eff) only, never on the window contents, and so do
    G = 2 Psi^T H and the reduced Hessian S = G Psi. A step adds only its
    offset psi and reference, which enter the gradient S v + c through
    c = G (psi - ref). The PGD terms (the eigendecomposition of S, and from
    it the curvature, step, contraction base, the transition matrix
    I - step * S and its spectrum), the lift's norm and the weight's extreme
    eigenvalues are computed on first use. The window states are affine in
    (v, u_window) as well: stacked oldest first, they are
    state_map @ [v; u_window.ravel()].
    """

    m_eff: int
    lift_matrix: np.ndarray  # Psi: free variables -> full ordering
    weight: np.ndarray       # H on the full decision ordering
    lower: np.ndarray        # free-variable box, componentwise
    upper: np.ndarray
    input_map: np.ndarray    # psi = input_map @ u_window.ravel()
    state_map: np.ndarray    # (v, u_window) -> xhat_0, ..., xhat_{m_eff}
    gradient_map: np.ndarray = field(init=False)  # G = 2 Psi^T H
    hessian: np.ndarray = field(init=False)       # S = G Psi

    def __post_init__(self):
        g = 2.0 * self.lift_matrix.T @ self.weight
        s = g @ self.lift_matrix
        for arr in (g, s):
            arr.setflags(write=False)
        object.__setattr__(self, "gradient_map", g)
        object.__setattr__(self, "hessian", s)

    @property
    def dim_z(self):
        return self.lift_matrix.shape[0]

    @property
    def dim_v(self):
        return self.lift_matrix.shape[1]

    @cached_property
    def eigen(self):
        """(lambda, U): S = U diag(lambda) U^T, lambda ascending, U orthogonal.

        The one eigendecomposition of S; the curvature and the step's
        spectrum read it.
        """
        lam, basis = eigh(self.hessian)
        for arr in (lam, basis):
            arr.setflags(write=False)
        return lam, basis

    @cached_property
    def curvature(self):
        """(mu, L): the extreme eigenvalues of S."""
        lam, _ = self.eigen
        mu, lip = float(lam[0]), float(lam[-1])
        if mu <= 0.0 or not np.isfinite(lip):
            raise DegenerateHessian(f"reduced Hessian has min eigenvalue {mu:.3e}; "
                                    "the weight is numerically singular")
        return mu, lip

    @cached_property
    def step(self):
        """The iteration's constant step 2/(L + mu)."""
        mu, lip = self.curvature
        return 2.0 / (lip + mu)

    @cached_property
    def contraction_base(self):
        """The per-iteration contraction base (L - mu)/(L + mu) in v.

        This is the rate of the step the iteration takes. For v, v' in R^n,
        the gradient map v -> v - step * (S v + c) changes v - v' by the
        factor I - step * S, whose spectral norm is max |1 - step * lambda|
        over the eigenvalues lambda of S in [mu, L]; at step = 2/(L + mu)
        that is (L - mu)/(L + mu) (Nesterov, Introductory Lectures on Convex
        Optimization, 2004, Thm 2.1.15). The box projection is nonexpansive,
        so one iteration contracts the Euclidean distance in the free
        coordinates v, to the optimum in particular, by this base. In the
        lifted z the bound carries the factor lift_norm (see there).
        """
        mu, lip = self.curvature
        return (lip - mu) / (lip + mu)

    @cached_property
    def lift_norm(self):
        """||Psi||, the gain from free-coordinate to lifted distances.

        Two lifted points differ by z - z' = Psi (v - v'), so
        ||z - z'|| <= ||Psi|| ||v - v'||. In the original coordinates the
        free coordinates appear verbatim in z, so ||Psi|| >= 1 and
        ||v - v'|| <= ||z - z'|| for any z, z' whose free coordinates are
        v, v'. On the Jacobi-scaled shape (jacobi) the value is ||Psi D||,
        which can lie below 1; it is the first factor of the scaled lift gain
        ||Psi D|| ||D^-1||.
        """
        return float(np.linalg.norm(self.lift_matrix, 2))

    @cached_property
    def weight_range(self):
        """(smallest, largest) eigenvalue of the weight H."""
        w, _ = eigh(self.weight)
        return float(w[0]), float(w[-1])

    @cached_property
    def estimate_map(self):
        """The last n_x rows of state_map, a contiguous view: the current
        estimate xhat_{m_eff} is estimate_map @ [v; u_window.ravel()]."""
        return self.state_map[-(self.state_map.shape[0] // (self.m_eff + 1)):]

    @cached_property
    def transition(self):
        """I - step * S, the linear part of one projected-gradient step."""
        t = np.eye(self.hessian.shape[0]) - self.step * self.hessian
        t.setflags(write=False)
        return t

    @cached_property
    def spectrum(self):
        """The transition's StepSpectrum, for the loop's closed-form tail."""
        lam, basis = self.eigen
        return step_spectrum(lam, basis, self.step)

    @cached_property
    def jacobi(self):
        """(d, shape): this window in the Jacobi-scaled coordinates v~ = v / d.

        d = diag(S)^(-1/2) and D = diag(d). With v = D v~ the window is the
        same QP in v~: the lift is Psi D, the weight H and the input map are
        unchanged, the box is [lower / d, upper / d] and the state map's v
        columns are scaled by d. So shape is a WindowShape with G~ = D G,
        S~ = D S D (whose diagonal is all ones) and the linear term d * c;
        its curvature, step, contraction base q~, transition and spectrum are
        the ones every shape computes. A diagonal scaling maps the box to a
        box, so the projection stays a clamp (Bertsekas, SIAM J. Control
        Optim. 20(2), 1982), and Jacobi's d is within a factor n of the best
        diagonal scaling's condition number (van der Sluis, Numer. Math. 14,
        1969). The step 2/(L~ + mu~) contracts v~ at q~; in v the distance
        gains at most kappa(D) = max d / min d, since ||D x|| <= max d ||x||
        and ||D^-1 x|| <= ||x|| / min d.

        No MheProblem is built on shape: select_v and window_slots read v
        verbatim from z, and z holds v, not v~. Built on the oracle's first
        kernel chunk for this shape, so a run that never calls the oracle's
        kernel never builds it.
        """
        d = 1.0 / np.sqrt(np.diag(self.hessian))
        lift, lower, upper = self.lift_matrix * d, self.lower / d, self.upper / d
        state_map = self.state_map * np.concatenate([d, np.ones(self.input_map.shape[1])])
        for arr in (d, lift, lower, upper, state_map):
            arr.setflags(write=False)
        return d, replace(self, lift_matrix=lift, lower=lower, upper=upper,
                          state_map=state_map)

    @cached_property
    def search_rate(self):
        """(kappa(D), log q~): how the oracle's search on jacobi contracts v.

        ||v_k - v*|| <= kappa(D) q~^k ||v_0 - v*|| with kappa(D) = max d / min d
        and q~ the scaled shape's contraction base (see jacobi); log q~ is
        None at q~ = 0. solver.oracle_iterations reads both.
        """
        d, scaled = self.jacobi
        q = scaled.contraction_base
        return float(d.max() / d.min()), (None if q == 0.0 else float(np.log(q)))

    @cached_property
    def error_gain(self):
        """(1 + step L)/(step mu), the gain of the oracle's error bound
        B(u) = gain ||u - clip(u - step (S u + c))|| >= ||u - v*|| (Pang,
        Math. Oper. Res. 12, 1987; proof in solver.solve_oracle)."""
        mu, lip = self.curvature
        return (1.0 + self.step * lip) / (self.step * mu)

    @cached_property
    def rounding_floor(self):
        """The relative part of solver.optimum_tolerance, computed once per
        window shape.

        The settled tail's v_u and the oracle both solve S v = -c with every
        coordinate free, v_u = -U diag(1/lambda) U^T c through the
        eigenbasis of S (StepSpectrum) and the oracle by LU. Two
        backward-stable solves of one system differ by up to about
        n kappa(S) eps relative (eps the float64 machine epsilon, kappa = L/mu
        from curvature); 4 n kappa eps leaves room over the largest ratio
        seen, ||v_u - v*|| = 0.36 n kappa eps max(1, ||v*||) over the 1,213
        settled windows of 20,000 random ones with kappa up to 2.3e6 (0.34
        against an iteratively refined solve). On a well-conditioned S the
        relative floor 1e-12 governs.
        """
        mu, lip = self.curvature
        rounding = 4.0 * self.dim_v * (lip / mu) * np.finfo(float).eps
        return max(1e-12, rounding)


@dataclass(frozen=True, eq=False)
class StepSpectrum:
    """T = I - alpha S = U diag(tau) U^T, the linear part of one PGD step.

    tau = 1 - rate with rate = alpha * lambda over the eigenvalues lambda of
    S; max |tau| < 1 (see step_spectrum). Without a clamp the step is affine,
    v -> T v + d with d = -alpha c, so from v_k the unclamped iterates are

        v_{k+i} = v_u + U (tau^i * beta),  beta = U^T (v_k - v_u),

    with v_u = U ((U^T d) / rate) = -U diag(1/lambda) U^T c the unconstrained
    fixed point. The tail forms U^T v_u from c alone, as (U^T c) / minus_lam,
    with one division per mode and without d. Envelope:
    for every i >= 1 and every coordinate,

        |v_{k+i} - v_u| <= |U| (|tau| * |beta|),

    with absolute values taken entry by entry, because |tau|^i <= |tau|. It
    bounds each coordinate separately, not a Euclidean norm, so it can be
    compared with each side of the box. When it lies strictly inside every
    finite side, then by induction on i each affine iterate is inside the
    box, no clamp fires in any later iteration, and the projected-gradient
    iterate v_{k+j} equals the affine one,
    U (tau^j * U^T v_k + ((1 - tau^j) / rate) * U^T d).

    The same induction can start one iterate later. The first affine
    iterate is v_{k+1} = v_u + U (tau * beta), which can be computed
    exactly, and for every i >= 2

        |v_{k+i} - v_u| <= |U| (|tau| * |tau * beta|),

    because |tau|^i = |tau|^(i-1) |tau| <= |tau| |tau| for i >= 2. When
    |v_{k+1} - v_u| and this envelope both lie strictly inside every finite
    side, the clamp of iteration k leaves v_{k+1} as it is, and the
    induction from v_{k+1} on is the one above: the same conclusion follows.
    This two-part test is implied by the first test (each of its parts is
    at most |U| (|tau| * |beta|)) and holds in more cases: the first iterate
    is taken exactly, with the signs of U that the envelope drops, and from
    the second on each mode carries |tau|^2 in place of |tau|.

    Then v_u is also the window optimum v*. Either envelope is nonnegative,
    so lying strictly inside a finite side puts v_u strictly inside it too:
    v_u is feasible. With d = -alpha c and rate = alpha * lambda,
    v_u = -U diag(1/lambda) U^T c = -S^{-1} c, the unconstrained minimiser
    of the window cost, whose gradient is S v + c. S is positive definite,
    so the cost is strictly convex and v_u is its unique minimiser over all
    of R^n; being feasible, it is the unique minimiser over the box as well,
    v* = v_u. The sub-optimality error of the j-th iterate is therefore
    v_{k+j} - v* = U (tau^j * beta) exactly, with no separate solve for v*.
    """

    minus_lam: np.ndarray  # -lambda: U^T v_u = (U^T c) / minus_lam
    tau: np.ndarray        # 1 - alpha * lambda, the eigenvalues of T
    basis: np.ndarray      # U, the eigenvectors of S (and of T)
    abs_basis: np.ndarray  # |U|, entry by entry
    abs_tau: np.ndarray    # |tau|
    slow: np.ndarray       # alpha * lambda < 1: there tau > 0 and 1 - tau^j is expm1'd
    log_tau: np.ndarray    # log(tau[slow]), as log1p(-alpha * lambda[slow])
    _powers: dict = field(default_factory=dict, init=False, repr=False)

    def powers(self, j):
        """(tau^j, 1 - tau^j), read-only, the latter without cancellation
        where tau > 0.

        Each j is computed once, by the expressions below, and kept: the
        pair depends on j and the spectrum only, so a kept pair is the same
        bytes a fresh one would be. A solve asks for j = K - k at its probes
        k = 0, 1, 3, 7, ... < K, so a spectrum keeps at most
        ceil(log2 K) + 2 pairs per budget K.
        """
        pair = self._powers.get(j)
        if pair is None:
            power = self.tau ** j
            one_minus = 1.0 - power
            one_minus[self.slow] = -np.expm1(j * self.log_tau)
            for arr in (power, one_minus):
                arr.setflags(write=False)
            pair = self._powers[j] = (power, one_minus)
        return pair


def step_spectrum(lam, basis, alpha):
    """The StepSpectrum of I - alpha S for S = U diag(lam) U^T, or None when
    max |1 - alpha * lam| >= 1 (or is not finite): then the unclamped tail
    need not contract, and the loop has no closed form to jump to."""
    lam = np.asarray(lam, dtype=float)
    rate = alpha * lam
    tau = 1.0 - rate
    if not np.max(np.abs(tau)) < 1.0:
        return None
    slow = rate < 1.0
    return StepSpectrum(minus_lam=-lam, tau=tau, basis=basis,
                        abs_basis=np.abs(basis),
                        abs_tau=np.abs(tau), slow=slow, log_tau=np.log1p(-rate[slow]))


def window_shape(sys, cert, m_eff):
    """Build the length-m_eff window shape of (sys, cert)."""
    n_x, n_u, n_y, n_w = sys.n_x, sys.n_u, sys.n_y, sys.n_w
    dim_v = n_x + m_eff * n_w
    dim_z = n_x + m_eff * (n_w + n_y)
    psi = np.zeros((dim_z, dim_v))
    input_map = np.zeros((dim_z, m_eff * n_u))

    # running affine map (v, u) -> xhat_j: state_map @ v + state_in @ u,
    # kept for every j as row block j of the window-state map
    state_map = np.zeros((n_x, dim_v))
    state_map[:, :n_x] = np.eye(n_x)
    state_in = np.zeros((n_x, m_eff * n_u))
    states = [np.hstack([state_map, state_in])]

    psi[:n_x, :n_x] = np.eye(n_x)

    row = n_x
    for j in range(m_eff):
        w_col = n_x + j * n_w
        # disturbance block appears verbatim
        psi[row:row + n_w, w_col:w_col + n_w] = np.eye(n_w)
        row += n_w
        # output block: yhat_j = C xhat_j + w2_j
        psi[row:row + n_y, :] = sys.C @ state_map
        psi[row:row + n_y, w_col + n_x:w_col + n_w] += np.eye(n_y)
        input_map[row:row + n_y, :] = sys.C @ state_in
        row += n_y
        # advance the state map: xhat_{j+1} = A xhat_j + B u_j + w1_j
        state_map = sys.A @ state_map
        state_map[:, w_col:w_col + n_x] += np.eye(n_x)
        state_in = sys.A @ state_in
        state_in[:, j * n_u:(j + 1) * n_u] += sys.B
        states.append(np.hstack([state_map, state_in]))
    states = np.vstack(states)

    lower = np.concatenate(
        [sys.x_box.lower] + [np.concatenate([sys.w1_box.lower, sys.w2_box.lower])
                             for _ in range(m_eff)])
    upper = np.concatenate(
        [sys.x_box.upper] + [np.concatenate([sys.w1_box.upper, sys.w2_box.upper])
                             for _ in range(m_eff)])

    weight = compute_weight(m_eff, cert)
    for arr in (weight, psi, input_map, states, lower, upper):
        arr.setflags(write=False)
    return WindowShape(m_eff=m_eff, lift_matrix=psi, weight=weight,
                       lower=lower, upper=upper, input_map=input_map,
                       state_map=states)


class WindowShapes:
    """The M+1 window shapes of one (system, certificate, horizon).

    Each shape is built on its first request and kept for the life of this
    object, so a closed-loop run builds Psi, H and S once per window length.
    """

    def __init__(self, sys, cert, M):
        cert.check_shapes(sys)
        self.sys, self.cert, self.M = sys, cert, int(M)
        self._shapes = [None] * (self.M + 1)

    @cached_property
    def plant_norms(self):
        """(||A||, ||B||, ||C||), the plant's share of sigma_t."""
        return tuple(float(np.linalg.norm(m, 2))
                     for m in (self.sys.A, self.sys.B, self.sys.C))

    def __getitem__(self, m_eff):
        if not 0 <= m_eff <= self.M:
            raise IndexError(f"window length {m_eff} outside 0..{self.M}")
        shape = self._shapes[m_eff]
        if shape is None:
            shape = self._shapes[m_eff] = window_shape(self.sys, self.cert, m_eff)
        return shape


def slot_view(z, sys):
    """View of the window slots of z, or of each z in a stack: an array of
    shape (..., dim_z) gives (..., m_eff, n_w + n_y).

    Row j is slot j (oldest first): the disturbance what_j = [w1_j, w2_j]
    in its first n_w entries, the output yhat_j in the remaining n_y; z's
    first n_x entries, xhat_0, are in no slot. Every reader of z's slots
    takes them through this view: MheProblem.window_slots for one step's z,
    the loop's feasibility flags for a stack of them, and build_problem
    writes the reference's outputs through it.
    """
    slots = z[..., sys.n_x:]
    width = sys.n_w + sys.n_y
    return slots.reshape(*slots.shape[:-1], slots.shape[-1] // width, width)


@dataclass(slots=True)
class MheProblem:
    """One step's condensed QP: a window shape plus the step's offset and
    reference, which fix the linear term c of the gradient S v + c.

    A per-step record, like solver.SolveReport: built once per step and
    never changed after, so it is a plain slotted dataclass, which costs a
    fraction of a frozen one's field-by-field object.__setattr__ to build.
    No code reassigns its fields, and its reference, offset and c are
    read-only arrays.
    """

    sys: object
    t: int
    shape: WindowShape
    reference: np.ndarray    # target vector in the full ordering
    lift_offset: np.ndarray  # psi (input-sequence contribution)
    x_prior: np.ndarray
    u_window: np.ndarray     # (m_eff, n_u)
    y_window: np.ndarray     # (m_eff, n_y)
    linear_term: np.ndarray = field(init=False)  # c = G (psi - ref)

    def __post_init__(self):
        c = self.shape.gradient_map @ (self.lift_offset - self.reference)
        c.setflags(write=False)
        self.linear_term = c

    @property
    def m_eff(self):
        return self.shape.m_eff

    @property
    def weight(self):
        return self.shape.weight

    @property
    def lift_matrix(self):
        return self.shape.lift_matrix

    @property
    def lower(self):
        return self.shape.lower

    @property
    def upper(self):
        return self.shape.upper

    @property
    def dim_z(self):
        return self.shape.dim_z

    @property
    def dim_v(self):
        return self.shape.dim_v

    def lift(self, v):
        return self.lift_matrix @ np.asarray(v, dtype=float) + self.lift_offset

    def window_slots(self, z):
        """slot_view of z, checked against this window's dim_z: an
        (m_eff, n_w + n_y) view."""
        z = np.asarray(z, dtype=float)
        if z.shape[0] != self.dim_z:
            raise DimensionMismatch(
                f"z has length {z.shape[0]}, expected {self.dim_z}")
        return slot_view(z, self.sys)

    def free_coordinates(self, x):
        """The free coordinates of x: x itself at length dim_v, select_v(x)
        at length dim_z (at m_eff = 0 the two are the same vector), and
        DimensionMismatch at any other length."""
        x = np.asarray(x, dtype=float)
        if x.shape == (self.dim_v,):
            return x
        if x.shape != (self.dim_z,):
            raise DimensionMismatch(f"start has shape {x.shape}, expected "
                                    f"({self.dim_v},) (v) or ({self.dim_z},) (z)")
        return self.select_v(x)

    def select_v(self, z):
        """Read the free coordinates (initial state + disturbance blocks) off z.

        Exact under the fixed ordering: every free variable appears verbatim
        in z, so no least-squares fitting is needed. Derived output blocks of
        z are discarded (the lift reconstructs them).
        """
        z = np.asarray(z, dtype=float)
        slots = self.window_slots(z)
        return np.concatenate([z[:self.sys.n_x], slots[:, :self.sys.n_w].ravel()])

    def reduced_gradient_terms(self):
        """(S, c) with grad f(v) = S v + c for f = ||Psi v + psi - ref||^2_H."""
        return self.shape.hessian, self.linear_term

    def cost(self, z):
        d = np.asarray(z, dtype=float) - self.reference
        return float(d @ self.weight @ d)


def compute_weight(m_eff, cert):
    """Block-diagonal weight: prior block 2 eta^Mt P, then per window slot
    (oldest first) 2 eta^{Mt-1-j} Q and eta^{Mt-1-j} R."""
    if m_eff < 0:
        raise ValueError("m_eff must be nonnegative")
    eta = cert.eta
    blocks = [2.0 * eta ** m_eff * cert.P]
    for j in range(m_eff):
        e = m_eff - 1 - j
        blocks.append(2.0 * eta ** e * cert.Q)
        blocks.append(eta ** e * cert.R)
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total))
    off = 0
    for b in blocks:
        k = b.shape[0]
        out[off:off + k, off:off + k] = b
        off += k
    return out


def build_problem(sys, cert, x_prior, u_window, y_window, M, t, shapes=None):
    """Assemble the step-t condensed QP from windows of length min(M, t).

    `shapes` is the caller's WindowShapes for (sys, cert, M); without it the
    window shape is built afresh.
    """
    n_x, n_u, n_y, n_w = sys.n_x, sys.n_u, sys.n_y, sys.n_w
    m_eff = min(M, t)
    if shapes is None:
        shapes = WindowShapes(sys, cert, M)
    elif shapes.sys is not sys or shapes.cert is not cert or shapes.M != M:
        raise ValueError("window shapes belong to another (system, certificate, M)")
    u_window = np.asarray(u_window, dtype=float).reshape(-1, n_u)
    y_window = np.asarray(y_window, dtype=float).reshape(-1, n_y)
    if u_window.shape[0] != m_eff or y_window.shape[0] != m_eff:
        raise WindowLengthMismatch(
            f"windows must have length min(M, t) = {m_eff}, "
            f"got u: {u_window.shape[0]}, y: {y_window.shape[0]}")
    x_prior = np.asarray(x_prior, dtype=float)
    if x_prior.shape != (n_x,):
        raise DimensionMismatch(f"prior has shape {x_prior.shape}, expected ({n_x},)")

    shape = shapes[m_eff]
    offset = shape.input_map @ u_window.ravel()
    reference = np.zeros(shape.dim_z)
    reference[:n_x] = x_prior
    slot_view(reference, sys)[:, n_w:] = y_window
    for arr in (reference, offset):
        arr.setflags(write=False)
    return MheProblem(sys=sys, t=t, shape=shape,
                      reference=reference, lift_offset=offset,
                      x_prior=x_prior, u_window=u_window, y_window=y_window)


def _window_vector(z, t, shapes, name):
    """z as a float array, checked against the step-t decision dimension."""
    z = np.asarray(z, dtype=float)
    expect = shapes[min(shapes.M, t)].dim_z
    if z.shape[0] != expect:
        raise DimensionMismatch(
            f"{name} has length {z.shape[0]}, expected {expect} at step {t}")
    return z


def sigma_lift(z_prev, t, shapes):
    """Warm-start lift from the step t-1 solution to the step-t dimension.

    `shapes` is the run's WindowShapes. During the growing phase (t - 1 < M)
    the lift appends one zeroed (disturbance, output) slot; afterwards it is
    the identity. Zero padding preserves the norm, so the lift has unit
    operator norm.
    """
    z_prev = _window_vector(z_prev, t - 1, shapes, "warm start")
    out = np.zeros(shapes[min(shapes.M, t)].dim_z)
    out[:z_prev.shape[0]] = z_prev
    return out


def sigma_truncate(z_curr, t, shapes):
    """Adjoint of sigma_lift: drop the newest slot during the growing phase."""
    z_curr = _window_vector(z_curr, t, shapes, "vector")
    return z_curr[:shapes[min(shapes.M, t - 1)].dim_z].copy()


def extract_estimate(problem, z):
    """The m_eff + 1 window states of z, oldest first; the last entry is the
    current estimate.

    They are the window-state map of the problem's shape applied to z's free
    coordinates and the input window. z is a decision vector or its free
    coordinates v, as a solve's report carries them
    (MheProblem.free_coordinates).
    """
    v = problem.free_coordinates(z)
    states = problem.shape.state_map @ np.concatenate([v, problem.u_window.ravel()])
    return states.reshape(problem.m_eff + 1, problem.sys.n_x)


def residual_sigma_parts(t, shapes, eta):
    """(raw, clamped) residual magnitude for the growing-phase problem change.

    Raw value is (1 - 1/eta) ||H|| + ||A|| + ||B|| + ||C|| + 2 for t <= M and
    0 afterwards, with H the weight of the length-t window of `shapes` (a
    WindowShapes, which keeps both norms). H is block-diagonal in P, Q and R,
    all positive definite, so ||H|| is its largest eigenvalue, which the
    shape keeps with its smallest. The first coefficient is negative for
    eta in (0, 1), which every certificate keeps (0 at eta = 1), so the raw
    value can be negative; it is clamped at zero because it enters the
    analysis as a disturbance magnitude.
    """
    if t > shapes.M:
        return 0.0, 0.0
    coeff = 1.0 - 1.0 / eta
    norm_a, norm_b, norm_c = shapes.plant_norms
    raw = coeff * shapes[t].weight_range[1] + norm_a + norm_b + norm_c + 2.0
    return float(raw), float(max(raw, 0.0))

