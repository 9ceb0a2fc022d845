"""Heterogeneous job sets — the paper's closing future-work item.

A mobile device may run inference jobs of *different* DNNs at once
(e.g. a detector plus a segmenter per camera frame). Johnson's rule
never needed homogeneity — only the partition theory did — so every
job of every model shares one 2-stage flow shop. The models' cuts are
coupled there: one model's communication-heavy jobs can hide behind
another model's computation, so splitting each model on its own leaves
time on the table. :func:`jps_heterogeneous` therefore takes the exact
optimum over every model's cut multiset at once
(:func:`repro.core.partition.optimal_multisets`, the dynamic program
behind brute force and the DAG planner), which never loses to planning
each model alone and running the groups back to back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partition import cut_plan, optimal_multisets
from repro.core.plans import JobPlan, Schedule
from repro.core.scheduling import schedule_jobs
from repro.profiling.latency import CostTable
from repro.utils.validation import require_integer, require_positive

__all__ = ["ModelJobs", "jps_heterogeneous"]


@dataclass(frozen=True)
class ModelJobs:
    """A homogeneous group within a heterogeneous job set."""

    table: CostTable
    count: int

    def __post_init__(self) -> None:
        require_positive(require_integer(self.count, "count"), "count")


def jps_heterogeneous(groups: list[ModelJobs]) -> Schedule:
    """Joint partition and scheduling of a mixed-model job set.

    The exact optimum over every group's multiset of cut positions, all
    jobs in one Johnson order. Planning time grows with the product of
    the groups' ``count + 1`` (:func:`~repro.core.partition.optimal_multisets`).
    Jobs are numbered group by group, each group's in cut order; the
    metadata gives each group's cut multiset.
    """
    if not groups:
        raise ValueError("need at least one model group")
    _, order = optimal_multisets(
        [(group.table, group.count, range(group.table.k)) for group in groups]
    )
    multisets = [
        tuple(sorted(p for m, p in order if m == index)) for index in range(len(groups))
    ]
    plans: list[JobPlan] = []
    for group, positions in zip(groups, multisets):
        first = len(plans)
        plans += [cut_plan(group.table, p, first + i) for i, p in enumerate(positions)]
    schedule = schedule_jobs(plans, method="JPS-hetero")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="JPS-hetero",
        metadata={
            "models": [group.table.model_name for group in groups],
            "cut_multisets": multisets,
        },
    )
