"""Fig. 11 — JPS versus brute-force optimal search.

AlexNet with measured costs, and the synthetic AlexNet′ whose
communication times are resampled from the fitted convex curve
(:func:`repro.profiling.latency.smooth_cost_table`). On AlexNet′ the
Theorem 5.3 regularity condition essentially holds, so JPS should track
the optimum; on raw AlexNet small gaps appear where adjacent-layer time
differences are drastic — both effects match the paper's discussion.

Brute force is the exact optimum over cut-position *multisets* (jobs
are identical), each scheduled optimally by Johnson's rule; the table
reports the ``C(n+k-1, k-1)`` multisets it covers, which the dynamic
program :func:`repro.core.partition.optimal_multiset` searches without
visiting them one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import brute_force
from repro.core.joint import jps_line
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentEnv
from repro.profiling.latency import CostTable, smooth_cost_table

__all__ = ["Fig11Row", "DEFAULT_JOB_COUNTS", "run", "render"]

DEFAULT_JOB_COUNTS = [2, 4, 8, 12]


@dataclass(frozen=True)
class Fig11Row:
    model: str
    n: int
    jps_s: float
    bf_s: float
    gap_percent: float
    bf_search_space: int


def _rows_for(table: CostTable, label: str, job_counts: list[int]) -> list[Fig11Row]:
    rows = []
    for n in job_counts:
        j = jps_line(table, n)
        bf = brute_force(table, n)
        rows.append(
            Fig11Row(
                model=label,
                n=n,
                jps_s=j.makespan,
                bf_s=bf.makespan,
                gap_percent=(j.makespan - bf.makespan) / bf.makespan * 100.0,
                bf_search_space=int(bf.metadata["search_space"]),
            )
        )
    return rows


def run(
    env: ExperimentEnv | None = None,
    bandwidth_mbps: float = 10.0,
    job_counts: list[int] | None = None,
) -> list[Fig11Row]:
    env = env or ExperimentEnv()
    counts = job_counts or DEFAULT_JOB_COUNTS
    table = env.cost_table("alexnet", bandwidth_mbps)
    prime = smooth_cost_table(table)
    return _rows_for(table, "AlexNet", counts) + _rows_for(prime, "AlexNet'", counts)


def render(rows: list[Fig11Row]) -> str:
    body = [
        (r.model, r.n, r.jps_s * 1e3, r.bf_s * 1e3, r.gap_percent, r.bf_search_space)
        for r in rows
    ]
    return format_table(
        headers=["model", "n", "JPS (ms)", "BF (ms)", "gap (%)", "BF space"],
        rows=body,
        title="Fig. 11 — JPS vs brute-force optimum",
        float_format="{:.2f}",
    )


if __name__ == "__main__":
    print(render(run()))
