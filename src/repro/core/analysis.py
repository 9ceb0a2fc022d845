"""Schedule analysis: lower bounds, utilization, speedup reports.

The centerpiece is :func:`fractional_lower_bound`: allow each job to
pick a *fractional mixture* of cut positions and drop the pipeline end
effects — the makespan can never beat ``n * min_λ max(Σλf, Σλg)`` over
probability vectors λ. That tiny LP (solved with ``scipy.linprog``)
lower-bounds every scheme in this repository, so tests can sandwich JPS
between it and the baselines instead of only comparing schemes to each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import optimize

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
    """
    n = require_positive(require_integer(n, "n"), "n")
    k = table.k
    # variables: λ_0..λ_{k-1}, t
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2, k + 1))
    a_ub[0, :k] = table.f
    a_ub[0, -1] = -1.0
    a_ub[1, :k] = table.g
    a_ub[1, -1] = -1.0
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    result = optimize.linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(2),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=[(0, None)] * k + [(0, None)],
        method="highs",
    )
    if not result.success:  # pragma: no cover - LP on this structure can't fail
        raise RuntimeError(f"lower-bound LP failed: {result.message}")
    return float(n * result.x[-1])


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
