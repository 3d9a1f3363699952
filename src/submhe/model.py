"""Plant model, interval constraint sets, and the delta-IOSS certificate.

The plant is the constrained LTI system

    x+ = A x + B u + w1,    y = C x + w2,

with axis-aligned interval constraints on x, u, y, w1, w2 (sides may be
infinite). The certificate (P, Q, R, eta) makes W(x, x') = ||x - x'||_P^2 an
incremental input/output-to-state-stability Lyapunov function, verified
through a single block LMI.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BoxExcludesOrigin, CertificateNotFound, DimensionMismatch
from .linalg import eigh, symmetrize

# find_certificate aims the LMI eigenvalue below -SEARCH_MARGIN and keeps
# P's eigenvalues above SEARCH_EIG_FLOOR * max(1, largest eigenvalue)
SEARCH_MARGIN = 1e-6
SEARCH_EIG_FLOOR = 1e-6


def _frozen_array(a, ndim):
    out = np.array(a, dtype=float)
    if out.ndim != ndim:
        raise DimensionMismatch(f"expected {ndim}-d array, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned interval set; sides may be +-inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _frozen_array(self.lower, 1)
        hi = _frozen_array(self.upper, 1)
        if lo.shape != hi.shape:
            raise DimensionMismatch("box lower/upper length mismatch")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            raise DimensionMismatch("box has empty or NaN interval")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_pairs(cls, pairs):
        pairs = list(pairs)
        lo = [float(p[0]) for p in pairs]
        hi = [float(p[1]) for p in pairs]
        return cls(np.array(lo), np.array(hi))

    @classmethod
    def unbounded(cls, dim):
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))

    @property
    def dim(self):
        return self.lower.shape[0]

    @property
    def is_bounded(self):
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def contains_origin(self):
        return bool(np.all(self.lower <= 0.0) and np.all(self.upper >= 0.0))

    def contains(self, v, atol=0.0):
        v = np.asarray(v, dtype=float)
        return bool(np.all(v >= self.lower - atol) and np.all(v <= self.upper + atol))

    def project(self, v):
        """Componentwise clamp; identity on unbounded sides."""
        return np.clip(np.asarray(v, dtype=float), self.lower, self.upper)

    def sample(self, rng, size=None, scale=None):
        """Uniform draws of shape (dim,), or (size, dim) when size is given.

        An infinite side is cut at distance scale from 0; without a scale,
        an unbounded box raises ValueError.
        """
        lo, hi = self.lower, self.upper
        if not self.is_bounded:
            if scale is None:
                raise ValueError("cannot sample an unbounded box")
            lo = np.where(np.isfinite(lo), lo, -scale)
            hi = np.where(np.isfinite(hi), hi, scale)
        shape = (self.dim,) if size is None else (size, self.dim)
        return rng.uniform(lo, hi, size=shape)


@dataclass(frozen=True)
class LtiSystem:
    """Discrete-time LTI plant with interval constraint sets."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x_box: Box
    u_box: Box
    y_box: Box
    w1_box: Box
    w2_box: Box

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen_array(self.A, 2))
        object.__setattr__(self, "B", _frozen_array(self.B, 2))
        object.__setattr__(self, "C", _frozen_array(self.C, 2))

    @property
    def n_x(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]

    @property
    def n_w(self):
        """Dimension of the augmented disturbance [w1; w2]."""
        return self.n_x + self.n_y

    def step(self, x, u, w1):
        return self.A @ x + self.B @ u + w1

    def output(self, x, w2):
        return self.C @ x + w2


@dataclass(frozen=True)
class IossCertificate:
    """(P, Q, R, eta) certifying the detectability LMI within tolerance tol."""

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    eta: float
    tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "P", _frozen_array(self.P, 2))
        object.__setattr__(self, "Q", _frozen_array(self.Q, 2))
        object.__setattr__(self, "R", _frozen_array(self.R, 2))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "tol", float(self.tol))
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.tol < 0.0:
            raise ValueError("tol must be nonnegative")

    def check_shapes(self, sys):
        n_x, n_y = sys.n_x, sys.n_y
        if self.P.shape != (n_x, n_x):
            raise DimensionMismatch(f"P must be {n_x}x{n_x}, got {self.P.shape}")
        if self.Q.shape != (n_x + n_y, n_x + n_y):
            raise DimensionMismatch(
                f"Q must be {n_x + n_y}x{n_x + n_y}, got {self.Q.shape}")
        if self.R.shape != (n_y, n_y):
            raise DimensionMismatch(f"R must be {n_y}x{n_y}, got {self.R.shape}")

    def check_definiteness(self):
        for name, m in (("P", self.P), ("Q", self.Q), ("R", self.R)):
            if not np.allclose(m, m.T, atol=1e-10):
                raise DimensionMismatch(f"{name} is not symmetric")
            w, _ = eigh(m)
            if w[0] <= 0.0:
                raise DimensionMismatch(
                    f"{name} is not positive definite (min eigenvalue {w[0]:.3e})")


@dataclass(frozen=True)
class LmiVerdict:
    passed: bool
    max_eigenvalue: float
    tol: float
    report: str = field(default="")


def validate_system(sys):
    """Check dimension consistency and origin membership of every box."""
    n_x = sys.A.shape[0]
    if sys.A.shape != (n_x, n_x):
        raise DimensionMismatch(f"A must be square, got {sys.A.shape}")
    if sys.B.shape[0] != n_x:
        raise DimensionMismatch(
            f"B has {sys.B.shape[0]} rows, expected {n_x}")
    if sys.C.shape[1] != n_x:
        raise DimensionMismatch(
            f"C has {sys.C.shape[1]} columns, expected {n_x}")
    boxes = {
        "x_box": (sys.x_box, n_x),
        "u_box": (sys.u_box, sys.n_u),
        "y_box": (sys.y_box, sys.n_y),
        "w1_box": (sys.w1_box, n_x),
        "w2_box": (sys.w2_box, sys.n_y),
    }
    for name, (box, dim) in boxes.items():
        if box.dim != dim:
            raise DimensionMismatch(f"{name} has dim {box.dim}, expected {dim}")
        if not box.contains_origin():
            raise BoxExcludesOrigin(f"{name} does not contain the origin")
    return sys


def disturbance_input_matrix(n_x, n_y):
    """B-bar = [I, 0]: routes the augmented disturbance into the state."""
    return np.hstack([np.eye(n_x), np.zeros((n_x, n_y))])


def measurement_noise_matrix(n_x, n_y):
    """D-bar = [0, I]: routes the augmented disturbance into the output."""
    return np.hstack([np.zeros((n_y, n_x)), np.eye(n_y)])


def lmi_matrix(sys, P, Q, R, eta):
    """Assemble the 2x2 block detectability LMI for the given certificate."""
    A, C = sys.A, sys.C
    n_x, n_y = sys.n_x, sys.n_y
    bbar = disturbance_input_matrix(n_x, n_y)
    dbar = measurement_noise_matrix(n_x, n_y)
    top_left = A.T @ P @ A - eta * P - C.T @ R @ C
    top_right = A.T @ P @ bbar - C.T @ R @ dbar
    bottom_right = bbar.T @ P @ bbar - Q - dbar.T @ R @ dbar
    return symmetrize(np.block([[top_left, top_right],
                                [top_right.T, bottom_right]]))


def verify_ioss_lmi(sys, cert):
    """Verdict on cert: largest eigenvalue of the block LMI vs cert.tol."""
    cert.check_shapes(sys)
    lam = float(eigh(lmi_matrix(sys, cert.P, cert.Q, cert.R, cert.eta))[0][-1])
    passed = lam <= cert.tol
    report = ("pass" if passed else
              f"max-eigenvalue violation: {lam:.6e} > tol {cert.tol:.1e}")
    return LmiVerdict(passed=passed, max_eigenvalue=lam, tol=cert.tol, report=report)


def find_certificate(sys, Q, R, eta, budget=500, tol=1e-8):
    """Search for P > 0 satisfying the detectability LMI.

    Eigenvalue-cut iteration from P = I: take the most-positive eigenvector
    of the LMI block matrix, step P against the induced low-rank subgradient
    (Polyak step toward -SEARCH_MARGIN), and project back onto the
    positive-definite cone with a minimum-eigenvalue floor. Best effort; the
    primary path is a config-supplied P.
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n_x = sys.n_x
    P = np.eye(n_x)
    target = min(float(tol), -SEARCH_MARGIN)
    best_lam = np.inf
    best_P = P
    for _ in range(int(budget)):
        F = lmi_matrix(sys, P, Q, R, eta)
        w, V = eigh(F)
        lam = float(w[-1])
        if lam < best_lam:
            best_lam, best_P = lam, P.copy()
        if lam <= target:
            cert = IossCertificate(P=P, Q=Q, R=R, eta=eta, tol=tol)
            cert.check_definiteness()
            if verify_ioss_lmi(sys, cert).passed:
                return cert
        vec = V[:, -1]
        v1, v2 = vec[:n_x], vec[n_x:]
        g = sys.A @ v1 + v2[:n_x]
        grad = np.outer(g, g) - eta * np.outer(v1, v1)
        gn = float(np.sum(grad * grad))
        if gn <= 1e-300:
            break
        P = symmetrize(P - ((lam - target) / gn) * grad)
        pw, pV = eigh(P)
        floor = SEARCH_EIG_FLOOR * max(1.0, float(pw[-1]))
        P = symmetrize((pV * np.maximum(pw, floor)) @ pV.T)
    # one last chance: the best iterate may pass at tol even if not below
    # -SEARCH_MARGIN
    cert = IossCertificate(P=best_P, Q=Q, R=R, eta=eta, tol=tol)
    try:
        cert.check_definiteness()
        if verify_ioss_lmi(sys, cert).passed:
            return cert
    except DimensionMismatch:
        pass
    raise CertificateNotFound(
        f"budget {budget} exhausted; best LMI eigenvalue {best_lam:.6e}",
        best_eigenvalue=best_lam)


def w_delta(cert, x, x_other):
    """Quadratic incremental Lyapunov value ||x - x'||_P^2."""
    x = np.asarray(x, dtype=float)
    x_other = np.asarray(x_other, dtype=float)
    n = cert.P.shape[0]
    if x.shape != (n,) or x_other.shape != (n,):
        raise DimensionMismatch(
            f"state dimension mismatch: {x.shape} vs {x_other.shape} vs P {cert.P.shape}")
    d = x - x_other
    return float(d @ cert.P @ d)
