"""Continuous relaxation of the partition problem (paper §5.1, Thm. 5.2).

Relaxing cut positions to the reals with ``f`` increasing-convex and
``g`` decreasing-convex makes P2 a convex program with strong duality
(Lemma 5.1). Its KKT stationarity condition collapses, as the LogSumExp
smoothing parameter α → ∞, to ``sum_i (f(x_i) - g(x_i)) = 0`` — and the
symmetric point ``x_i = x*`` with ``f(x*) = g(x*)`` satisfies it, so
cutting *every* job at the crossing point is optimal.

This module provides the concrete function models used throughout the
paper's discussion (linear ``f``, shifted-exponential ``g``), a fitter
from discrete cost tables, the crossing-point solver, and numerical
KKT/LSE utilities that the test-suite uses to verify the theorem's
ingredients rather than trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.profiling.latency import CostTable
from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "LinearComputeModel",
    "ExponentialCommModel",
    "ContinuousProblem",
    "fit_continuous",
    "crossing_point",
    "lse_max",
    "average_makespan",
    "kkt_stationarity_residual",
]


@dataclass(frozen=True)
class LinearComputeModel:
    """``f(x) = slope * x`` — computation grows linearly with depth (§3.2)."""

    slope: float

    def __post_init__(self) -> None:
        require_positive(self.slope, "slope")

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.slope * np.asarray(x, dtype=float)

    def derivative(self, x: np.ndarray | float) -> np.ndarray | float:
        return np.full_like(np.asarray(x, dtype=float), self.slope)


@dataclass(frozen=True)
class ExponentialCommModel:
    """``g(x) = scale * exp(-decay * x) + floor`` — volume halves per block."""

    scale: float
    decay: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.scale, "scale")
        require_positive(self.decay, "decay")
        require_non_negative(self.floor, "floor")

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.scale * np.exp(-self.decay * np.asarray(x, dtype=float)) + self.floor

    def derivative(self, x: np.ndarray | float) -> np.ndarray | float:
        return -self.decay * self.scale * np.exp(-self.decay * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ContinuousProblem:
    """The relaxed problem P2 for one DNN model."""

    f: LinearComputeModel
    g: ExponentialCommModel
    depth: float  # the continuous analogue of k (domain is (0, depth])

    def __post_init__(self) -> None:
        require_positive(self.depth, "depth")


def fit_continuous(table: CostTable) -> ContinuousProblem:
    """Fit (linear f, exponential g) to a discrete cost table.

    ``f`` is fit through the origin (position 0 computes nothing);
    ``g`` is fit on the interior positions in log space (the final
    position's exact zero is a boundary artifact of local-only jobs).
    """
    idx = np.arange(table.k, dtype=float)
    slope = float(np.sum(idx * table.f) / np.sum(idx * idx)) if table.k > 1 else 1.0
    slope = max(slope, 1e-12)

    interior_g = table.g[:-1] if table.g[-1] == 0 and table.k > 1 else table.g
    floor = 0.0
    positive = np.maximum(interior_g, 1e-12)
    decay, log_scale = np.polyfit(idx[: len(interior_g)], np.log(positive), deg=1)
    decay = max(-float(decay), 1e-9)
    return ContinuousProblem(
        f=LinearComputeModel(slope=slope),
        g=ExponentialCommModel(scale=float(np.exp(log_scale)), decay=decay, floor=floor),
        depth=float(table.k - 1) if table.k > 1 else 1.0,
    )


def crossing_point(problem: ContinuousProblem) -> float:
    """Solve ``f(x*) = g(x*)`` on (0, depth] — Theorem 5.2's optimum.

    ``f - g`` is strictly increasing, so at most one root exists. When
    ``f`` already dominates everywhere the optimum clamps to 0+ (offload
    immediately); when ``g`` dominates everywhere it clamps to ``depth``
    (fully local) — matching the discrete boundary cuts.
    """
    lo, hi = 0.0, problem.depth

    def gap(x: float) -> float:
        return float(problem.f(x) - problem.g(x))

    if gap(lo) >= 0:
        return lo
    if gap(hi) <= 0:
        return hi
    from scipy import optimize  # deferred: the only scipy use, kept off the import path

    return float(optimize.brentq(gap, lo, hi, xtol=1e-12))


def lse_max(values: np.ndarray, alpha: float) -> float:
    """LogSumExp smooth maximum ``(1/α) ln Σ exp(α v_i)`` (Thm. 5.2 proof).

    Converges to ``max(values)`` from above as α → ∞; the proof drives
    α → ∞ to recover the exact makespan objective.
    """
    require_positive(alpha, "alpha")
    v = np.asarray(values, dtype=float)
    shift = v.max()
    return float(shift + np.log(np.exp(alpha * (v - shift)).sum()) / alpha)


def average_makespan(problem: ContinuousProblem, xs: np.ndarray) -> float:
    """The relaxed objective ``max( mean f(x_i), mean g(x_i) )``."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0) or np.any(xs > problem.depth):
        raise ValueError(f"cut points must lie in [0, {problem.depth}]")
    return float(max(problem.f(xs).mean(), problem.g(xs).mean()))


def kkt_stationarity_residual(
    problem: ContinuousProblem, xs: np.ndarray, alpha: float = 200.0
) -> float:
    """Max |∂/∂x_i| of the α-smoothed objective at ``xs``, normalized.

    At the symmetric point ``x_i = x*`` the per-coordinate gradient of
    the LSE-smoothed objective vanishes as α grows (Eq. 1 of the paper);
    this returns the largest normalized gradient component so tests can
    assert it is ~0 at x* and clearly non-zero elsewhere.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    mean_f = problem.f(xs).mean()
    mean_g = problem.g(xs).mean()
    # softmax weights of the two smoothed-max branches
    shift = max(mean_f, mean_g)
    wf = np.exp(alpha * (mean_f - shift))
    wg = np.exp(alpha * (mean_g - shift))
    total = wf + wg
    grad = (wf * problem.f.derivative(xs) + wg * problem.g.derivative(xs)) / (total * n)
    scale = max(abs(float(problem.f.derivative(0.0))), 1e-12) / n
    return float(np.abs(grad).max() / scale)
