"""Lipschitz state-feedback law (saturated linear gain) and gain estimators.

The built-in law is u = clamp(-K xhat, u_box): saturation is 1-Lipschitz, so
the law is Lipschitz with constant at most the largest singular value of the
gain. Closed-loop ISS of the law is assumed (config-asserted) and only
smoke-tested here; the state-to-error loop gain slope is primarily a config
input, with a clearly-flagged heuristic estimator for systems lacking one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, DivergentTrajectory,
                     StabilityAssumptionViolated)
from .model import Box

DIVERGENCE_LIMIT = 1e12  # a state norm above this reads as divergence


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


@dataclass(frozen=True)
class GainSlopeEstimate:
    slope: float
    heuristic: bool
    per_magnitude: tuple


def evaluate(law, xhat):
    """u = clamp(-gain @ xhat, u_box); always lands inside the input box."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (law.gain.shape[1],):
        raise DimensionMismatch(
            f"state has shape {xhat.shape}, expected ({law.gain.shape[1]},)")
    return law.u_box.project(-law.gain @ xhat)


def simulate_with_error(sys, law, x0, errors):
    """Roll the undisturbed closed loop x+ = A x + B pi(x + e) for
    len(errors) steps."""
    x = np.asarray(x0, dtype=float).copy()
    T = len(errors)
    traj = np.zeros((T + 1, sys.n_x))
    traj[0] = x
    for t in range(T):
        u = evaluate(law, x + errors[t])
        x = sys.step(x, u, np.zeros(sys.n_x))
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_LIMIT:
            raise DivergentTrajectory(
                f"state norm exceeded {DIVERGENCE_LIMIT:.1e} at step {t + 1}; "
                "the feedback law does not stabilize this plant")
        traj[t + 1] = x
    return traj


def estimate_closed_loop_gain(sys, law, horizon=200, e_magnitudes=(0.1, 0.5, 1.0),
                              seed=0, rollouts=5):
    """Heuristic slope of the estimation-error-to-state gain.

    Injects constant-magnitude random-direction error sequences with zero
    disturbance, records the sup-norm of the state tail, and fits the best
    linear upper envelope over the tested magnitudes. Prefer a config-supplied
    slope when one is available.
    """
    rng = np.random.default_rng(seed)
    tail_start = horizon // 2
    per_magnitude = []
    slope = 0.0
    for mag in e_magnitudes:
        worst_tail = 0.0
        for _ in range(rollouts):
            dirs = rng.standard_normal((horizon, sys.n_x))
            dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
            traj = simulate_with_error(sys, law, np.zeros(sys.n_x), mag * dirs)
            worst_tail = max(worst_tail, float(
                np.max(np.linalg.norm(traj[tail_start:], axis=1))))
        per_magnitude.append((float(mag), worst_tail))
        if mag > 0:
            slope = max(slope, worst_tail / mag)
    return GainSlopeEstimate(slope=slope, heuristic=True,
                             per_magnitude=tuple(per_magnitude))


def assert_stabilizing(sys, law, radius=1.0, horizon=300, n_samples=10,
                       seed=0, threshold=1e-6):
    """Smoke test of the closed-loop stability assumption.

    With zero estimation error and zero disturbance, trajectories from random
    initial states in a ball must decay below the threshold within the
    horizon. This does not certify ISS; it only catches configs that plainly
    violate it. All samples roll together as the rows of one
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
