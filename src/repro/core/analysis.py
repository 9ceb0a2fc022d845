"""Schedule analysis: lower bounds, utilization, speedup reports.

The centerpiece is :func:`fractional_lower_bound`: allow each job to
pick a *fractional mixture* of cut positions and drop the pipeline end
effects — the makespan can never beat ``n * min_λ max(Σλf, Σλg)`` over
probability vectors λ. That tiny LP has a closed form on the lower-left
convex hull of the ``(f, g)`` points
(:func:`repro.core.partition.lower_hull`, the hull behind the exact
scheduler's pruning bound), and it lower-bounds every scheme in this
repository, so tests can sandwich JPS between it and the baselines
instead of only comparing schemes to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.partition import lower_hull
from repro.core.plans import Schedule
from repro.profiling.latency import CostTable
from repro.utils.validation import require_integer, require_positive

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> sim import cycle
    from repro.sim.pipeline import PipelineResult

__all__ = [
    "fractional_lower_bound",
    "best_single_cut_rate",
    "UtilizationReport",
    "utilization_report",
    "speedup_report",
]


def fractional_lower_bound(table: CostTable, n: int) -> float:
    """LP lower bound on the makespan of any partition + schedule.

    minimize t  s.t.  t >= Σ λ_i f_i,  t >= Σ λ_i g_i,  Σ λ_i = 1, λ >= 0,
    scaled by n. Steady-state only: the first job's computation and the
    last job's communication (which every real pipeline also pays) are
    not charged, so the bound is strict but usually tight within one
    job's worth of time.

    By LP duality the optimum is ``max_mu min_i (mu * f_i + (1 - mu) *
    g_i)`` over ``mu`` in ``[0, 1]``: the peak of the support function
    of the points' lower-left convex hull (:func:`lower_hull`), where the
    hull crosses ``f = g``. So the best mixture takes the two hull
    vertices around the crossing, and its ``t`` is the crossing point;
    a hull that lies on one side of ``f = g`` peaks at its end, where
    ``t`` is the least ``f`` or the least ``g``.
    """
    n = require_positive(require_integer(n, "n"), "n")
    hull_f, hull_g, _ = lower_hull(zip(table.f.tolist(), table.g.tolist()))
    crossed = int(np.searchsorted(hull_f - hull_g, 0.0))  # first vertex with f >= g
    if crossed == 0:
        return float(n * hull_f[0])
    if crossed == hull_f.size:
        return float(n * hull_g[-1])
    (x0, x1), (y0, y1) = hull_f[crossed - 1 : crossed + 1], hull_g[crossed - 1 : crossed + 1]
    share = (y0 - x0) / ((y0 - x0) + (x1 - y1))  # of the mixture at the second vertex
    return float(n * (x0 + share * (x1 - x0)))


def best_single_cut_rate(table: CostTable) -> tuple[int, float]:
    """(position, per-job steady rate) of the best *homogeneous* cut.

    The pipeline rate of cutting every job at position x is
    ``max(f(x), g(x))``; minimizing it is what a partition-aware but
    mix-unaware scheme can achieve at best.
    """
    rates = np.maximum(table.f, table.g)
    position = int(np.argmin(rates))
    return position, float(rates[position])


@dataclass(frozen=True)
class UtilizationReport:
    """Resource usage of one executed schedule."""

    makespan: float
    mobile_utilization: float
    uplink_utilization: float
    cloud_utilization: float

    @property
    def bottleneck(self) -> str:
        pairs = [
            ("mobile", self.mobile_utilization),
            ("uplink", self.uplink_utilization),
            ("cloud", self.cloud_utilization),
        ]
        return max(pairs, key=lambda p: p[1])[0]


def utilization_report(result: "PipelineResult") -> UtilizationReport:
    """Summarize a simulation's resource utilization."""
    horizon = result.makespan
    if horizon <= 0:
        return UtilizationReport(0.0, 0.0, 0.0, 0.0)
    return UtilizationReport(
        makespan=horizon,
        mobile_utilization=result.mobile.utilization(horizon),
        uplink_utilization=result.uplink.utilization(horizon),
        cloud_utilization=result.cloud.utilization(horizon),
    )


def speedup_report(
    schedules: dict[str, Schedule], baseline: str = "LO"
) -> dict[str, float]:
    """Latency-reduction percentages of each scheme vs ``baseline``.

    The Table-1 computation as a reusable helper; losses clamp to 0 as
    in the paper's reporting.
    """
    if baseline not in schedules:
        raise KeyError(f"baseline {baseline!r} not among {sorted(schedules)}")
    base = schedules[baseline].makespan
    if base <= 0:
        raise ValueError("baseline makespan must be positive")
    return {
        name: max(0.0, (base - schedule.makespan) / base * 100.0)
        for name, schedule in schedules.items()
        if name != baseline
    }
