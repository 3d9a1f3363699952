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


@dataclass(frozen=True)
class FeedbackLaw:
    gain: np.ndarray
    u_box: Box
    declared_lipschitz: float | None = None

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
class LipschitzEstimate:
    value: float
    sampled_max: float
    analytic_bound: float


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


def estimate_lipschitz(law, domain_box, n_samples=2000, seed=0):
    """Max pairwise ratio ||pi(x) - pi(x')|| / ||x - x'|| over sampled pairs,
    combined with the analytic bound ||gain|| (saturation is 1-Lipschitz)."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    analytic = float(np.linalg.norm(law.gain, 2))
    rng = np.random.default_rng(seed)
    xs = domain_box.sample(rng, size=n_samples)
    xps = domain_box.sample(rng, size=n_samples)
    sampled = 0.0
    for x, xp in zip(xs, xps):
        dx = np.linalg.norm(x - xp)
        if dx < 1e-12:
            continue
        du = np.linalg.norm(evaluate(law, x) - evaluate(law, xp))
        sampled = max(sampled, du / dx)
    return LipschitzEstimate(value=max(sampled, analytic),
                             sampled_max=sampled, analytic_bound=analytic)


def simulate_with_error(sys, law, x0, errors, disturbances=None,
                        divergence_limit=1e12):
    """Roll the closed loop x+ = A x + B pi(x + e) + w1 for len(errors) steps."""
    x = np.asarray(x0, dtype=float).copy()
    T = len(errors)
    traj = np.zeros((T + 1, sys.n_x))
    traj[0] = x
    for t in range(T):
        u = evaluate(law, x + errors[t])
        w1 = disturbances[t] if disturbances is not None else np.zeros(sys.n_x)
        x = sys.step(x, u, w1)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > divergence_limit:
            raise DivergentTrajectory(
                f"state norm exceeded {divergence_limit:.1e} at step {t + 1}; "
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
    violate it.
    """
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        d = rng.standard_normal(sys.n_x)
        d *= radius * rng.uniform(0, 1) ** (1.0 / sys.n_x) / max(np.linalg.norm(d), 1e-12)
        try:
            traj = simulate_with_error(sys, law, d, np.zeros((horizon, sys.n_x)))
        except DivergentTrajectory as exc:
            raise StabilityAssumptionViolated(str(exc)) from exc
        if np.linalg.norm(traj[-1]) > threshold:
            raise StabilityAssumptionViolated(
                f"trajectory from sample {i} only decayed to "
                f"{np.linalg.norm(traj[-1]):.3e} > {threshold:.1e} "
                f"after {horizon} steps")
    return True
