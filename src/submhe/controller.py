"""Lipschitz state-feedback law (saturated linear gain) and its closed-loop
gain.

The built-in law is u = clamp(-G xhat, u_box): saturation is 1-Lipschitz, so
the law is Lipschitz with constant at most ||G||_2. The controlled plant's
contraction and its error-to-state gain gamma13 both follow from the
saturation's vertex systems (closed_loop_gain). assert_stabilizing rolls
sampled trajectories; it proves nothing and stays as a falsification check.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (BoxExcludesOrigin, DimensionMismatch,
                     StabilityAssumptionViolated)
from .model import Box

DIVERGENCE_LIMIT = 1e12  # a state norm above this reads as divergence
MAX_VERTICES = 2 ** 12  # most vertex systems closed_loop_gain enumerates


@dataclass(frozen=True)
class FeedbackLaw:
    gain: np.ndarray
    u_box: Box

    def __post_init__(self):
        gain = np.array(self.gain, dtype=float)
        if gain.ndim != 2:
            raise DimensionMismatch(f"gain must be a matrix, got shape {gain.shape}")
        gain.setflags(write=False)
        object.__setattr__(self, "gain", gain)
        if self.u_box.dim != gain.shape[0]:
            raise DimensionMismatch(
                f"u_box dim {self.u_box.dim} != gain rows {gain.shape[0]}")


def evaluate(law, xhat):
    """u = clamp(-gain @ xhat, u_box); always lands inside the input box."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (law.gain.shape[1],):
        raise DimensionMismatch(
            f"state has shape {xhat.shape}, expected ({law.gain.shape[1]},)")
    return law.u_box.project(-law.gain @ xhat)


def closed_loop_gain(sys, law):
    """gamma13 = b / (1 - a), the error-to-state gain of the controlled plant.

    For u = clamp(-G(x + e), u_box) with 0 in u_box, each u_i is
    delta_i (-G(x + e))_i with delta_i in [0, 1]: the clamp moves a value
    toward the box, which holds 0, and never past 0. With Delta = diag(delta),

        x+ = (A - B Delta G) x - B Delta G e + w1.

    Delta -> A - B Delta G and Delta -> B Delta G are affine and the spectral
    norm is convex, so over the box [0, 1]^{n_u} the maxima
    a = max ||A - B Delta G||_2 and b = max ||B Delta G||_2 lie at its 2^{n_u}
    vertices, delta in {0, 1}^{n_u} (Hu & Lin, Control Systems with Actuator
    Saturation, 2001). Whatever delta the clamp picks at a step,

        ||x_{t+1}|| <= a ||x_t|| + b ||e_t|| + ||w1_t||

    in the Euclidean norm that the ledger and the monitors use. When a < 1
    the undisturbed loop contracts at rate a, and unrolling the recursion
    gives ||x_t|| <= a^t ||x_0|| + (b sup ||e|| + sup ||w1||) / (1 - a), so
    gamma13 = b / (1 - a) is a linear error-to-state gain.

    Raises StabilityAssumptionViolated, naming a, when a >= 1: the vertex
    bound then proves nothing. It also raises, without attempting the bound,
    when 2^{n_u} exceeds MAX_VERTICES, and BoxExcludesOrigin when u_box does
    not hold 0.
    """
    n_u = law.gain.shape[0]
    if 2 ** n_u > MAX_VERTICES:
        raise StabilityAssumptionViolated(
            f"{n_u} inputs give 2^{n_u} vertex systems, more than "
            f"{MAX_VERTICES}; the vertex bound was not attempted")
    if not law.u_box.contains_origin():
        raise BoxExcludesOrigin("u_box does not contain the origin")
    a = b = 0.0
    for delta in itertools.product((0.0, 1.0), repeat=n_u):
        bdg = (sys.B * delta) @ law.gain  # B Delta G
        a = max(a, float(np.linalg.norm(sys.A - bdg, 2)))
        b = max(b, float(np.linalg.norm(bdg, 2)))
    if not a < 1.0:
        raise StabilityAssumptionViolated(
            f"the saturated loop's vertex systems reach "
            f"a = max ||A - B Delta G||_2 = {a:.6g} >= 1, so they prove no "
            "contraction")
    return b / (1.0 - a)


# The name perfbench/child.py's TARGETS wraps: the same function object as
# closed_loop_gain, so traced runs time the derivation.
estimate_closed_loop_gain = closed_loop_gain


def assert_stabilizing(sys, law, radius=1.0, horizon=300, n_samples=10,
                       seed=0, threshold=1e-6):
    """Smoke test of closed-loop stability, a falsification check of what
    closed_loop_gain proves (`verify`'s controller-stability-smoke).

    With zero estimation error and zero disturbance, trajectories from random
    initial states in a ball must decay below the threshold within the
    horizon. This proves nothing; it only catches laws that plainly fail to
    stabilize. All samples roll together as the rows of one
    (n_samples, n_x) array; the error names the first sample that diverges
    (state norm above DIVERGENCE_LIMIT, or not finite) or fails to decay.
    """
    rng = np.random.default_rng(seed)
    x = np.empty((n_samples, sys.n_x))
    for d in x:
        d[:] = rng.standard_normal(sys.n_x)
        d *= radius * rng.uniform(0, 1) ** (1.0 / sys.n_x) / max(np.linalg.norm(d), 1e-12)
    diverged_at = np.zeros(n_samples, dtype=int)  # 0: never
    # row-major copies of A^T, B^T and -gain^T: x+ = x A^T + u B^T row by row
    a_t, b_t, k_t = (np.ascontiguousarray(m.T) for m in (sys.A, sys.B, -law.gain))
    for t in range(1, horizon + 1):
        u = law.u_box.project(x @ k_t)
        x = x @ a_t + u @ b_t
        # the norm of the batch bounds each row's; NaN fails both tests
        if not np.linalg.norm(x) <= DIVERGENCE_LIMIT:
            out = ~(np.linalg.norm(x, axis=1) <= DIVERGENCE_LIMIT)
            diverged_at[out & (diverged_at == 0)] = t
            x[out] = 0.0  # a diverged sample's verdict is fixed; stop its overflow
    for i in range(n_samples):
        if diverged_at[i]:
            raise StabilityAssumptionViolated(
                f"trajectory from sample {i}: state norm exceeded "
                f"{DIVERGENCE_LIMIT:.1e} at step {diverged_at[i]}; "
                "the feedback law does not stabilize this plant")
        final = np.linalg.norm(x[i])
        if final > threshold:
            raise StabilityAssumptionViolated(
                f"trajectory from sample {i} only decayed to "
                f"{final:.3e} > {threshold:.1e} after {horizon} steps")
    return True
