"""Comparison schemes from §6.2: LO, CO, PO, and brute force.

* **LO (local-only)** — every job runs entirely on the mobile device.
* **CO (cloud-only)** — every job uploads the raw input; the uplink is
  the only pipeline stage that matters.
* **PO (partition-only)** — the state-of-the-art single-DNN partition
  (Neurosurgeon / DADS style): one homogeneous cut minimizing a single
  job's end-to-end latency ``f + g (+ cloud rest)``, ignoring the
  multi-job pipeline.
* **BF (brute force)** — the optimum over cut-position multisets (job
  identity does not matter), each scheduled by Johnson's rule; the
  optimum the paper compares against in Fig. 11, found by the exact
  dynamic program :func:`repro.core.partition.optimal_multiset` rather
  than by enumerating the multisets.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.partition import cut_plan, optimal_multiset
from repro.core.plans import JobPlan, RunLengthJobs, Schedule
from repro.core.scheduling import flow_shop_completion_arrays, schedule_jobs
from repro.profiling.latency import CostTable
from repro.utils.validation import require_integer, require_positive

__all__ = [
    "local_only",
    "cloud_only",
    "partition_only",
    "single_job_optimal_cut",
    "brute_force",
    "brute_force_search_space",
]


def _uniform_schedule(
    table: CostTable, position: int, n: int, method: str, metadata: dict
) -> Schedule:
    """All ``n`` jobs cut at ``position``: one prototype, Johnson order is
    the identity, and the makespan is the closed form over ``n`` equal
    stages."""
    n = require_positive(require_integer(n, "n"), "n")
    plan = cut_plan(table, position)
    _, c2 = flow_shop_completion_arrays(
        np.full(n, plan.compute_time), np.full(n, plan.comm_time)
    )
    return Schedule(
        jobs=RunLengthJobs(((plan, n),)),
        makespan=float(c2[-1]),
        method=method,
        metadata=metadata,
    )


def local_only(table: CostTable, n: int) -> Schedule:
    """LO: cut after the last layer; no network usage at all."""
    return _uniform_schedule(table, table.k - 1, n, "LO", {"cut": table.positions[-1]})


def cloud_only(table: CostTable, n: int) -> Schedule:
    """CO: cut after the input; upload everything."""
    return _uniform_schedule(table, 0, n, "CO", {"cut": table.positions[0]})


def single_job_optimal_cut(table: CostTable, include_cloud: bool = True) -> int:
    """The Neurosurgeon cut: minimize one job's latency f + g (+ cloud)."""
    totals = table.f + table.g
    if include_cloud:
        # the rest column: the same subtraction as CostTable.cloud_rest
        totals = totals + (table.cloud[-1] - table.cloud)
    return int(np.argmin(totals))


def partition_only(table: CostTable, n: int, include_cloud: bool = True) -> Schedule:
    """PO: the single-job optimal cut applied homogeneously to all jobs."""
    position = single_job_optimal_cut(table, include_cloud=include_cloud)
    return _uniform_schedule(
        table,
        position,
        n,
        "PO",
        {"cut": table.positions[position], "cut_position": position},
    )


def brute_force_search_space(n: int, num_positions: int) -> int:
    """Size of the BF search space: multisets of size n over the positions."""
    return math.comb(n + num_positions - 1, num_positions - 1)


def brute_force(
    table: CostTable, n: int, positions: Sequence[int] | None = None
) -> Schedule:
    """BF: optimal partition multiset + Johnson scheduling.

    Because jobs are identical, only the multiset of cut positions
    matters, which reduces the paper's ``O(c^n)`` enumeration to the
    ``C(n + c - 1, c - 1)`` multisets reported as ``search_space``;
    :func:`~repro.core.partition.optimal_multiset` finds the best of
    them exactly without visiting them one by one, so any ``n`` is in
    reach. ``positions`` restricts the cut candidates (``None``: every
    position). The chosen multiset is scheduled by
    :func:`~repro.core.scheduling.schedule_jobs`, whose makespan the
    schedule reports.
    """
    n = require_positive(require_integer(n, "n"), "n")
    candidates = list(range(table.k)) if positions is None else sorted(set(positions))
    _, order = optimal_multiset(table, n, candidates)
    combo = tuple(sorted(order))
    plans = [
        JobPlan(
            job_id=i,
            model=table.model_name,
            cut_position=p,
            compute_time=table.stage_lengths(p)[0],
            comm_time=table.stage_lengths(p)[1],
            cloud_time=table.cloud_rest(p),
            cut_label=table.positions[p],
        )
        for i, p in enumerate(combo)
    ]
    schedule = schedule_jobs(plans, method="BF")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="BF",
        metadata={
            "search_space": brute_force_search_space(n, len(candidates)),
            "cut_multiset": combo,
        },
    )
