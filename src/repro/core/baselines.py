"""Comparison schemes from §6.2: LO, CO, PO, and brute force.

* **LO (local-only)** — every job runs entirely on the mobile device.
* **CO (cloud-only)** — every job uploads the raw input; the uplink is
  the only pipeline stage that matters.
* **PO (partition-only)** — the state-of-the-art single-DNN partition
  (Neurosurgeon / DADS style): one homogeneous cut minimizing a single
  job's end-to-end latency ``f + g (+ cloud rest)``, ignoring the
  multi-job pipeline.
* **BF (brute force)** — exhaustive search over cut-position multisets
  (job identity does not matter) with Johnson's rule scheduling each
  candidate; the optimum the paper compares against in Fig. 11.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from repro.core.plans import JobPlan, Schedule
from repro.core.scheduling import flow_shop_makespan, johnson_order, schedule_jobs
from repro.profiling.latency import CostTable
from repro.utils.validation import require_positive

__all__ = [
    "local_only",
    "cloud_only",
    "partition_only",
    "single_job_optimal_cut",
    "brute_force",
    "brute_force_search_space",
]


def _uniform_plans(table: CostTable, position: int, n: int) -> list[JobPlan]:
    f, g = table.stage_lengths(position)
    mobile = table.mobile_nodes_at(position) if table.graph is not None else None
    return [
        JobPlan(
            job_id=i,
            model=table.model_name,
            cut_position=position,
            compute_time=f,
            comm_time=g,
            cloud_time=table.cloud_rest(position),
            cut_label=table.positions[position],
            mobile_nodes=mobile,
        )
        for i in range(n)
    ]


def local_only(table: CostTable, n: int) -> Schedule:
    """LO: cut after the last layer; no network usage at all."""
    require_positive(n, "n")
    plans = _uniform_plans(table, table.k - 1, n)
    schedule = schedule_jobs(plans, method="LO")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="LO",
        metadata={"cut": table.positions[-1]},
    )


def cloud_only(table: CostTable, n: int) -> Schedule:
    """CO: cut after the input; upload everything."""
    require_positive(n, "n")
    plans = _uniform_plans(table, 0, n)
    schedule = schedule_jobs(plans, method="CO")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="CO",
        metadata={"cut": table.positions[0]},
    )


def single_job_optimal_cut(table: CostTable, include_cloud: bool = True) -> int:
    """The Neurosurgeon cut: minimize one job's latency f + g (+ cloud)."""
    totals = table.f + table.g
    if include_cloud:
        # the rest column: the same subtraction as CostTable.cloud_rest
        totals = totals + (table.cloud[-1] - table.cloud)
    return int(np.argmin(totals))


def partition_only(table: CostTable, n: int, include_cloud: bool = True) -> Schedule:
    """PO: the single-job optimal cut applied homogeneously to all jobs."""
    require_positive(n, "n")
    position = single_job_optimal_cut(table, include_cloud=include_cloud)
    plans = _uniform_plans(table, position, n)
    schedule = schedule_jobs(plans, method="PO")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="PO",
        metadata={"cut": table.positions[position], "cut_position": position},
    )


def brute_force_search_space(n: int, num_positions: int) -> int:
    """Size of the BF search space: multisets of size n over the positions."""
    return math.comb(n + num_positions - 1, num_positions - 1)


def brute_force(
    table: CostTable,
    n: int,
    positions: Sequence[int] | None = None,
    max_candidates: int = 2_000_000,
) -> Schedule:
    """BF: optimal partition multiset + Johnson scheduling.

    Because jobs are identical, only the multiset of cut positions
    matters, which reduces the paper's ``O(c^n)`` enumeration to
    ``C(n + c - 1, c - 1)`` candidates. ``positions`` restricts the cut
    candidates (the usual way to keep large-n searches tractable; pass
    ``None`` to search every position).
    """
    require_positive(n, "n")
    candidates = list(range(table.k)) if positions is None else sorted(set(positions))
    if not candidates:
        raise ValueError("no candidate positions to search")
    space = brute_force_search_space(n, len(candidates))
    if space > max_candidates:
        raise ValueError(
            f"brute force would evaluate {space} multisets "
            f"(n={n}, positions={len(candidates)}) > cap {max_candidates}; "
            "restrict `positions` or lower n"
        )

    stage_of = {p: table.stage_lengths(p) for p in candidates}
    best_combo: tuple[int, ...] | None = None
    best_makespan = float("inf")
    for combo in combinations_with_replacement(candidates, n):
        stages = [stage_of[p] for p in combo]
        order = johnson_order(stages)
        makespan = flow_shop_makespan([stages[i] for i in order])
        if makespan < best_makespan - 1e-15:
            best_makespan = makespan
            best_combo = combo
    assert best_combo is not None

    plans = [
        JobPlan(
            job_id=i,
            model=table.model_name,
            cut_position=p,
            compute_time=stage_of[p][0],
            comm_time=stage_of[p][1],
            cloud_time=table.cloud_rest(p),
            cut_label=table.positions[p],
        )
        for i, p in enumerate(best_combo)
    ]
    schedule = schedule_jobs(plans, method="BF")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="BF",
        metadata={"search_space": space, "cut_multiset": best_combo},
    )
