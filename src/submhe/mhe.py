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

so that warm-start padding and error norms are measured consistently.

A problem is split along what changes from step to step. The lift Psi, the
weight H, the box and the reduced Hessian S = 2 Psi^T H Psi depend only on
the window length, and live in a WindowShape; a WindowShapes object holds
the M+1 shapes of one run and builds each on first use. A step adds the
offset psi, the reference and with them the gradient's linear term c.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateHessian, DimensionMismatch, WindowLengthMismatch


@dataclass(frozen=True)
class CondensedPoint:
    """A point in the step's decision ordering, with its free coordinates."""

    z: np.ndarray
    v: np.ndarray | None = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if self.v is not None:
            object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass(frozen=True, eq=False)
class WindowShape:
    """The part of a window QP fixed by the window length m_eff.

    The lift Psi, the weight H and the free-variable box depend on (A, C,
    the certificate, m_eff) only, never on the window contents, and so do
    G = 2 Psi^T H and the reduced Hessian S = G Psi. A step adds only its
    offset psi and reference, which enter the gradient S v + c through
    c = G (psi - ref). The PGD terms (curvature, step, contraction base and
    the transition matrix I - step * S) are computed on first use.
    """

    m_eff: int
    lift_matrix: np.ndarray  # Psi: free variables -> full ordering
    weight: np.ndarray       # H on the full decision ordering
    lower: np.ndarray        # free-variable box, componentwise
    upper: np.ndarray
    input_map: np.ndarray    # psi = input_map @ u_window.ravel()
    gradient_map: np.ndarray = field(init=False)  # G = 2 Psi^T H
    hessian: np.ndarray = field(init=False)       # S = G Psi

    def __post_init__(self):
        g = 2.0 * self.lift_matrix.T @ self.weight
        s = g @ self.lift_matrix
        for arr in (g, s):
            arr.setflags(write=False)
        object.__setattr__(self, "gradient_map", g)
        object.__setattr__(self, "hessian", s)

    @cached_property
    def curvature(self):
        """(mu, L): the extreme eigenvalues of S."""
        w = np.linalg.eigvalsh(0.5 * (self.hessian + self.hessian.T))
        mu, lip = float(w[0]), float(w[-1])
        if mu <= 0.0 or not np.isfinite(lip):
            raise DegenerateHessian(
                f"reduced Hessian has min eigenvalue {mu:.3e}; lift is rank-deficient")
        return mu, lip

    @property
    def step(self):
        """The iteration's constant step 2/(L + mu)."""
        mu, lip = self.curvature
        return 2.0 / (lip + mu)

    @property
    def contraction_base(self):
        """The certified per-iteration contraction base q = 1 - mu/L."""
        mu, lip = self.curvature
        return 1.0 - mu / lip

    @cached_property
    def transition(self):
        """I - step * S, the linear part of one projected-gradient step."""
        t = np.eye(self.hessian.shape[0]) - self.step * self.hessian
        t.setflags(write=False)
        return t


def window_shape(sys, cert, m_eff):
    """Build the length-m_eff window shape of (sys, cert)."""
    n_x, n_u, n_y, n_w = sys.n_x, sys.n_u, sys.n_y, sys.n_w
    dim_v = n_x + m_eff * n_w
    dim_z = n_x + m_eff * (n_w + n_y)
    psi = np.zeros((dim_z, dim_v))
    input_map = np.zeros((dim_z, m_eff * n_u))

    # running affine map (v, u) -> xhat_j: state_map @ v + state_in @ u
    state_map = np.zeros((n_x, dim_v))
    state_map[:, :n_x] = np.eye(n_x)
    state_in = np.zeros((n_x, m_eff * n_u))

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

    lower = np.concatenate(
        [sys.x_box.lower] + [np.concatenate([sys.w1_box.lower, sys.w2_box.lower])
                             for _ in range(m_eff)])
    upper = np.concatenate(
        [sys.x_box.upper] + [np.concatenate([sys.w1_box.upper, sys.w2_box.upper])
                             for _ in range(m_eff)])

    weight = compute_weight(m_eff, cert)
    for arr in (weight, psi, input_map, lower, upper):
        arr.setflags(write=False)
    return WindowShape(m_eff=m_eff, lift_matrix=psi, weight=weight,
                       lower=lower, upper=upper, input_map=input_map)


class WindowShapes:
    """The M+1 window shapes of one (system, certificate, horizon).

    Each shape is built on its first request and kept for the life of this
    object, so a closed-loop run builds Psi, H and S once per window length.
    """

    def __init__(self, sys, cert, M):
        cert.check_shapes(sys)
        self.sys, self.cert, self.M = sys, cert, int(M)
        self._shapes = [None] * (self.M + 1)

    def __getitem__(self, m_eff):
        if not 0 <= m_eff <= self.M:
            raise IndexError(f"window length {m_eff} outside 0..{self.M}")
        shape = self._shapes[m_eff]
        if shape is None:
            shape = self._shapes[m_eff] = window_shape(self.sys, self.cert, m_eff)
        return shape


@dataclass(frozen=True)
class MheProblem:
    """One step's condensed QP: a window shape plus the step's offset and
    reference, which fix the linear term c of the gradient S v + c."""

    sys: object
    t: int
    horizon: int
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
        object.__setattr__(self, "linear_term", c)

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
        return self.reference.shape[0]

    @property
    def dim_v(self):
        return self.lift_matrix.shape[1]

    def lift(self, v):
        return self.lift_matrix @ np.asarray(v, dtype=float) + self.lift_offset

    def window_slots(self, z):
        """View of z's window slots as an (m_eff, n_w + n_y) array.

        Row j is slot j (oldest first): the disturbance what_j in its first
        n_w entries, the output yhat_j in the remaining n_y.
        """
        z = np.asarray(z, dtype=float)
        if z.shape[0] != self.dim_z:
            raise DimensionMismatch(
                f"z has length {z.shape[0]}, expected {self.dim_z}")
        n_x, n_y = self.sys.n_x, self.sys.n_y
        return z[n_x:].reshape(self.m_eff, window_slot_width(n_x, n_y))

    def select_v(self, z):
        """Read the free coordinates (initial state + disturbance blocks) off z.

        Exact under the fixed ordering: every free variable appears verbatim
        in z, so no least-squares fitting is needed. Derived output blocks of
        z are discarded (the lift reconstructs them).
        """
        z = np.asarray(z, dtype=float)
        slots = self.window_slots(z)
        return np.concatenate([z[:self.sys.n_x], slots[:, :self.sys.n_w].ravel()])

    def reduced_hessian(self):
        return self.shape.hessian

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
        cert.check_shapes(sys)
    elif shapes.sys is not sys or shapes.cert is not cert or shapes.M != M:
        raise ValueError("window shapes belong to another (system, certificate, M)")
    u_window = np.asarray(u_window, dtype=float).reshape(-1, n_u) if len(u_window) else \
        np.zeros((0, n_u))
    y_window = np.asarray(y_window, dtype=float).reshape(-1, n_y) if len(y_window) else \
        np.zeros((0, n_y))
    if u_window.shape[0] != m_eff or y_window.shape[0] != m_eff:
        raise WindowLengthMismatch(
            f"windows must have length min(M, t) = {m_eff}, "
            f"got u: {u_window.shape[0]}, y: {y_window.shape[0]}")
    x_prior = np.asarray(x_prior, dtype=float)
    if x_prior.shape != (n_x,):
        raise DimensionMismatch(f"prior has shape {x_prior.shape}, expected ({n_x},)")

    shape = window_shape(sys, cert, m_eff) if shapes is None else shapes[m_eff]
    offset = shape.input_map @ u_window.ravel()
    reference = np.zeros(n_x + m_eff * (n_w + n_y))
    reference[:n_x] = x_prior
    reference[n_x:].reshape(m_eff, n_w + n_y)[:, n_w:] = y_window
    for arr in (reference, offset):
        arr.setflags(write=False)
    return MheProblem(sys=sys, t=t, horizon=M, shape=shape,
                      reference=reference, lift_offset=offset,
                      x_prior=x_prior, u_window=u_window, y_window=y_window)


def window_slot_width(n_x, n_y):
    """Width of one (disturbance, output) window slot in the decision vector."""
    n_w = n_x + n_y
    return n_w + n_y


def expected_dim_z(n_x, n_y, M, t):
    return n_x + min(M, t) * window_slot_width(n_x, n_y)


def sigma_lift(z_prev, t, M, dims):
    """Warm-start lift from the step t-1 solution to the step-t dimension.

    During the growing phase (t - 1 < M) appends one zeroed (disturbance,
    output) slot; afterwards it is the identity. Zero padding preserves the
    norm, so the lift has unit operator norm.
    """
    n_x, n_y = dims
    z_prev = np.asarray(z_prev, dtype=float)
    expect_prev = expected_dim_z(n_x, n_y, M, t - 1)
    if z_prev.shape[0] != expect_prev:
        raise DimensionMismatch(
            f"warm start has length {z_prev.shape[0]}, expected {expect_prev} at step {t - 1}")
    if t - 1 >= M:
        return z_prev.copy()
    return np.concatenate([z_prev, np.zeros(window_slot_width(n_x, n_y))])


def sigma_truncate(z_curr, t, M, dims):
    """Adjoint of sigma_lift: drop the newest slot during the growing phase."""
    n_x, n_y = dims
    z_curr = np.asarray(z_curr, dtype=float)
    expect = expected_dim_z(n_x, n_y, M, t)
    if z_curr.shape[0] != expect:
        raise DimensionMismatch(
            f"vector has length {z_curr.shape[0]}, expected {expect} at step {t}")
    if t - 1 >= M:
        return z_curr.copy()
    return z_curr[:-window_slot_width(n_x, n_y)].copy()


def shift_window(seq, new_item, t, M):
    """Append the newest item; drop the oldest whenever the window is full.

    Input has length min(M, t); the result has length min(M, t + 1), which
    means the first element is discarded exactly when t >= M.
    """
    new_item = np.atleast_1d(np.asarray(new_item, dtype=float))
    seq = np.asarray(seq, dtype=float)
    if seq.size == 0:
        seq = np.zeros((0, new_item.shape[0]))
    if seq.shape[0] != min(M, t):
        raise WindowLengthMismatch(
            f"window has length {seq.shape[0]}, expected min(M, t) = {min(M, t)}")
    out = np.vstack([seq, new_item[None, :]])
    if out.shape[0] > min(M, t + 1):
        out = out[1:]
    return out


def extract_estimate(problem, z):
    """Forward-simulate the window dynamics from z's free blocks.

    Returns the m_eff + 1 window states; the last entry is the current
    estimate.
    """
    sys = problem.sys
    z = np.asarray(z, dtype=float)
    slots = problem.window_slots(z)
    states = np.zeros((problem.m_eff + 1, sys.n_x))
    states[0] = z[:sys.n_x]
    for j in range(problem.m_eff):
        w1 = slots[j, :sys.n_x]
        states[j + 1] = sys.A @ states[j] + sys.B @ problem.u_window[j] + w1
    return states


def residual_sigma_parts(t, M, weight, sys, eta):
    """(raw, clamped) residual magnitude for the growing-phase problem change.

    Raw value is (1 - 1/eta) ||H|| + ||A|| + ||B|| + ||C|| + 2 for t <= M and
    0 afterwards. The first coefficient is negative for eta in (0, 1), so the
    raw value can be negative; it is clamped at zero because it enters the
    analysis as a disturbance magnitude.
    """
    if t > M:
        return 0.0, 0.0
    coeff = 0.0 if eta == 1.0 else (1.0 - 1.0 / eta if eta > 0.0 else -np.inf)
    raw = (coeff * np.linalg.norm(weight, 2) + np.linalg.norm(sys.A, 2)
           + np.linalg.norm(sys.B, 2) + np.linalg.norm(sys.C, 2) + 2.0)
    return float(raw), float(max(raw, 0.0))


def residual_sigma(t, M, weight, sys, eta):
    """Clamped residual magnitude sigma_t (see residual_sigma_parts)."""
    return residual_sigma_parts(t, M, weight, sys, eta)[1]
