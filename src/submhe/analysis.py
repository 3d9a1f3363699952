"""Stability analysis scalars and the certified iteration budget.

Computes the M-step decay base rho = 6^{1/M} eta, the solver contraction
base q of phi(K) = q^K (the worst case over the window shapes), the
iteration-count constants C1(K)..C_eps(K), the linear gain slopes of the
three-subsystem interconnection (controlled plant, solver sub-optimality,
estimation error), the small-gain conditions, and the smallest iteration
count K that passes them. All gains here are linear (slope times argument),
so the class-K compositions reduce exactly to slope products. This module is
the only place that knows q, phi(K) and the small-gain verdict.

q = (L - mu)/(L + mu) is the rate of the step the solver takes, 2/(L + mu)
(see mhe.WindowShape.contraction_base). phi(K) = q^K is therefore a theorem
for K iterations from any warm start v0, in the Euclidean norm of the free
coordinates v: ||v_K - v*|| <= q^K ||v0 - v*||.

The sub-optimality error eps = ||z_K - z*|| of the analysis is measured in
the lifted z = Psi v + psi, so the constants use the lifted contract
phi_z(K) = g phi(K), with g = max ||Psi|| over the window shapes (the lift
gain). It is a theorem in z for any warm start z0 whose free coordinates are
v0: ||z_K - z*|| <= ||Psi|| ||v_K - v*|| <= g q^K ||v0 - v*||
<= g q^K ||z0 - z*||, the last step because the free coordinates appear
verbatim in z. For small K, phi_z(K) >= 1 and no ledger passes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionViolated, NotFoundBelowCap
from .linalg import eigh


@dataclass(frozen=True)
class AnalysisParams:
    """Scalar inputs of the analysis for a fixed parameter set."""

    L_phi: float          # Lipschitz constant of the optimal-solution map (> 1)
    L_pi: float           # controller Lipschitz constant
    gamma13_slope: float  # error-to-state gain slope of the controlled plant
    eta: float
    M: int
    phi_base: float       # q of phi(K) = q^K, from worst_case_contraction
    lift_gain: float      # g of phi_z(K) = g phi(K): max ||Psi||, from lift_gain
    norm_C: float
    bar_H: float          # sup over steps of the largest weight eigenvalue
    lam_HP: float         # bar_H / min eig P
    lam_PP: float         # max eig P / min eig P
    lam_QP: float         # max eig Q / min eig P
    sampled: tuple = ()   # inputs sampled or estimated, not derived or asserted

    def __post_init__(self):
        if not self.L_phi > 1.0:
            raise ValueError(f"L_phi must exceed 1, got {self.L_phi}")
        if not 0.0 < self.phi_base < 1.0:
            raise ValueError(f"phi_base must lie in (0, 1), got {self.phi_base}")
        if not self.lift_gain >= 1.0:
            raise ValueError(f"lift_gain must be at least 1, got {self.lift_gain}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.M < 1:
            raise ValueError("M must be at least 1")
        for name in ("gamma13_slope", "norm_C"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("lam_HP", "lam_PP", "lam_QP", "bar_H"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    def phi(self, K):
        return phi(self.phi_base, K)

    def phi_z(self, K):
        return self.lift_gain * self.phi(K)


def phi(q, K):
    """The solver contract phi(K) = q^K of K iterations at base q, in v."""
    return q ** K


@dataclass(frozen=True)
class BudgetConstants:
    K: int
    phi: float            # the solver contract in v
    phi_z: float          # the lifted contract every constant is built from
    rho: float
    C1: float
    C2: float
    C3: float
    C_e: float
    C_w: float
    C_eps: float


@dataclass(frozen=True)
class GainLedger:
    """Every analysis scalar at a given iteration count K."""

    K: int
    params: AnalysisParams
    constants: BudgetConstants
    # sub-optimality error dynamics (driven by state, error, disturbance, residual)
    g21: float
    g23: float
    g2w: float
    g2sigma: float
    beta2_base: float     # epsilon transient: phi_z(K)^t
    # estimation error dynamics
    g31: float
    g32: float
    g3w: float
    g3sigma: float
    beta3_coeff: float    # error transient: C_e(K) sqrt(rho)^t
    beta3_base: float
    # small-gain condition products and margins (margin = 1 - product)
    products: tuple
    margins: tuple
    passed: bool

    def to_dict(self):
        c = self.constants
        return {
            "K": self.K,
            "phi": c.phi,
            "phi_z": c.phi_z,
            "rho": c.rho,
            "constants": {"C1": c.C1, "C2": c.C2, "C3": c.C3,
                          "C_e": c.C_e, "C_w": c.C_w, "C_eps": c.C_eps},
            "slopes": {"g21": self.g21, "g23": self.g23, "g2w": self.g2w,
                       "g2sigma": self.g2sigma, "g31": self.g31,
                       "g32": self.g32, "g3w": self.g3w,
                       "g3sigma": self.g3sigma},
            "transients": {"beta2_base": self.beta2_base,
                           "beta3_coeff": self.beta3_coeff,
                           "beta3_base": self.beta3_base},
            "small_gain": {"products": list(self.products),
                           "margins": list(self.margins),
                           "passed": self.passed},
            "params": {
                "L_phi": self.params.L_phi, "L_pi": self.params.L_pi,
                "gamma13_slope": self.params.gamma13_slope,
                "eta": self.params.eta, "M": self.params.M,
                "phi_base": self.params.phi_base,
                "lift_gain": self.params.lift_gain, "norm_C": self.params.norm_C,
                "bar_H": self.params.bar_H, "lam_HP": self.params.lam_HP,
                "lam_PP": self.params.lam_PP, "lam_QP": self.params.lam_QP,
                "sampled": list(self.params.sampled),
            },
        }


def minimal_contracting_horizon(eta):
    """Smallest M with 6^{1/M} eta < 1."""
    if eta <= 0.0:
        return 1
    m = max(1, math.floor(math.log(6.0) / math.log(1.0 / eta)))
    while 6.0 ** (1.0 / m) * eta >= 1.0:
        m += 1
    return m


def compute_rho(eta, M):
    """M-step decay base rho = 6^{1/M} eta; errors when it fails to contract."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    rho = 6.0 ** (1.0 / M) * eta
    if rho >= 1.0:
        raise ContractionViolated(rho, eta, M, minimal_contracting_horizon(eta))
    return rho


def recursion_constants(phi, L_phi, L_pi, norm_C, M):
    """(C1, C2, C3) of the one-step sub-optimality error recursion."""
    c1 = 2.0 * phi * L_phi * (1.0 + M * (norm_C + L_pi))
    c2 = 2.0 * phi * L_phi * (1.0 + M * L_pi)
    c3 = 2.0 * phi * L_phi * M
    return c1, c2, c3


def budget_constants(K, params):
    """Literal evaluation of the six iteration-count constants.

    They bound the lifted error eps, so they are built from phi_z(K). C1..C3
    bound one step and hold for any rho; C_e, C_w and C_eps sum the M-step
    decay and are infinite while rho >= 1.
    """
    try:
        rho = compute_rho(params.eta, params.M)
    except ContractionViolated as exc:
        rho = exc.rho
    phi = params.phi_z(K)
    L_phi, L_pi, M = params.L_phi, params.L_pi, params.M
    sq = math.sqrt
    sqrt_rho = sq(rho)
    c1, c2, c3 = recursion_constants(phi, L_phi, L_pi, params.norm_C, M)
    if rho >= 1.0:  # no M-step decay to sum over
        c_e = c_w = c_eps = math.inf
    else:
        pref = sq(3.0 * params.lam_PP * params.lam_HP) * phi * L_phi
        tail_sum = sum(sqrt_rho ** (-1 - i) for i in range(1, M))  # empty for M = 1
        c_e = (2.0 * pref * (sqrt_rho ** (-M) + L_pi / sqrt_rho)
               + 4.0 * pref * L_pi * tail_sum
               + sq(6.0 * params.lam_PP)
               + 2.0 * pref * (L_pi + 1.0) * sqrt_rho ** (-M - 1))
        geo = 1.0 / (1.0 - sqrt_rho)
        geo_m = 1.0 / (1.0 - sq(rho ** M))
        c_w = (sq(2.0 * params.lam_HP) * c3
               + sq(6.0 * params.lam_QP) * geo
               + 4.0 * sq(3.0 * params.lam_HP * params.lam_QP) * phi * L_phi
               * (L_pi * M + 1.0) * geo)
        c_eps = (sq(2.0 * params.lam_HP) * phi
                 + sq(2.0 * params.lam_HP) * geo_m
                 + 4.0 * params.lam_HP * phi * L_phi * (L_pi * M + 1.0) * geo_m)
    return BudgetConstants(K=int(K), phi=params.phi(K), phi_z=phi, rho=rho,
                           C1=c1, C2=c2, C3=c3, C_e=c_e, C_w=c_w, C_eps=c_eps)


def ledger_at(K, params):
    """Gain ledger at K with the small-gain verdict folded in.

    With linear gains the composed class-K loop conditions reduce to strict
    slope products: (i) gamma13 * g31 < 1, (ii) g23 * g32 < 1,
    (iii) gamma13 * g32 * g21 < 1. A product of exactly 1 fails. While
    phi_z(K) >= 1 the eps recursion does not contract, and while rho >= 1
    the M-step decay does not: either way some gains are infinite and the
    ledger fails.
    """
    c = budget_constants(K, params)
    phi = c.phi_z
    root = math.sqrt(2.0 * params.lam_HP)
    if phi < 1.0:
        g21, g23, g2w, g2sigma = (x / (1.0 - phi) for x in
                                  (c.C1, c.C2, c.C3, phi * params.L_phi))
    else:
        g21 = g23 = g2w = g2sigma = math.inf
    g31, g32 = root * c.C1, c.C_eps
    g = params.gamma13_slope
    products = (g * g31, g23 * g32, g * g32 * g21)
    return GainLedger(
        K=int(K), params=params, constants=c,
        g21=g21, g23=g23, g2w=g2w, g2sigma=g2sigma,
        beta2_base=phi,
        g31=g31, g32=g32, g3w=c.C_w,
        g3sigma=root * phi * params.L_phi,
        beta3_coeff=c.C_e,
        beta3_base=math.sqrt(c.rho),
        products=products,
        margins=tuple(1.0 - p for p in products),
        passed=phi < 1.0 and all(p < 1.0 for p in products))


def min_iterations(params, K_max):
    """(K, ledger at K) for the smallest K in [1, K_max] passing small gain.

    Exact linear scan: the individual slopes are not guaranteed monotone
    term-by-term, so no bisection. Raises NotFoundBelowCap with the
    best-margin K seen when the scan fails.
    """
    compute_rho(params.eta, params.M)
    best_k, best_margin = None, -math.inf
    for K in range(1, int(K_max) + 1):
        ledger = ledger_at(K, params)
        worst = min(ledger.margins)
        if worst > best_margin:
            best_margin, best_k = worst, K
        if ledger.passed:
            return K, ledger
    raise NotFoundBelowCap(int(K_max), best_k, best_margin)


def weight_eigen_range(shapes):
    """(bar_H, min over the M+1 weights of the smallest eigenvalue).

    The sup over steps of the largest weight eigenvalue is attained among the
    finitely many window lengths 0..M of `shapes` (a WindowShapes), all of
    which are scanned.
    """
    ranges = [shapes[m_eff].weight_range for m_eff in range(shapes.M + 1)]
    return max(top for _, top in ranges), min(bottom for bottom, _ in ranges)


def build_params(shapes, *, L_phi, L_pi, gamma13_slope, sampled=()):
    """Assemble AnalysisParams from a run's window shapes and scalar inputs.

    `shapes` (a WindowShapes) carries the certified system, the certificate
    and M. The contraction base q of phi(K) = q^K and the lift gain are
    computed here, as worst cases over the window shapes; neither is an
    input. `sampled` names the scalar inputs that were sampled or estimated
    rather than derived or asserted.
    """
    cert = shapes.cert
    bar_h, _ = weight_eigen_range(shapes)
    pw, _ = eigh(cert.P)
    qw, _ = eigh(cert.Q)
    lam_min_p = float(pw[0])
    return AnalysisParams(
        L_phi=float(L_phi), L_pi=float(L_pi),
        gamma13_slope=float(gamma13_slope),
        eta=cert.eta, M=shapes.M,
        phi_base=float(worst_case_contraction(shapes)),
        lift_gain=lift_gain(shapes),
        norm_C=shapes.plant_norms[2], bar_H=bar_h,
        lam_HP=bar_h / lam_min_p,
        lam_PP=float(pw[-1]) / lam_min_p,
        lam_QP=float(qw[-1]) / lam_min_p,
        sampled=tuple(sampled),
    )


def worst_case_contraction(shapes):
    """Largest per-step contraction base q over the M+1 window shapes.

    The lift and weight depend only on (A, C, window length), not on the
    window contents, so the scan over `shapes` (a WindowShapes) is exact.
    """
    return max(shapes[m_eff].contraction_base for m_eff in range(shapes.M + 1))


def lift_gain(shapes):
    """Largest lift norm ||Psi|| over the M+1 window shapes of `shapes`."""
    return max(shapes[m_eff].lift_norm for m_eff in range(shapes.M + 1))
