"""End-effect refinement on top of the two-type JPS split (ours, not the
paper's).

Prop. 4.1 shows the first scheduled job contributes its *full*
computation stage to the makespan and the last its *full* communication
stage. The two-type split optimizes the pipeline's steady state but not
these end effects; brute-force solutions (Fig. 11) visibly exploit them
by giving the final job a deeper cut (smaller g) and sometimes the first
job a shallower one (smaller f).

``refine_end_jobs`` searches the structured family

    [head job at position p_h] + [two-type interior over (l*-1, l*)]
    + [tail job at position p_t]

with ``p_h <= l*`` and ``p_t >= l*``, evaluating every candidate with
the exact Johnson-ordered makespan. The identity configuration is in
the family, so the result is never worse than the input JPS schedule.
Complexity: O(l* · (k - l*) · n) exact evaluations of O(n) each —
milliseconds at the paper's n = 100.
"""

from __future__ import annotations

from repro.core.partition import binary_search_cut
from repro.core.plans import JobPlan, Schedule
from repro.core.scheduling import flow_shop_makespan, johnson_makespan, johnson_order
from repro.profiling.latency import CostTable

__all__ = ["refine_end_jobs"]


def _plan_at(table: CostTable, job_id: int, position: int) -> JobPlan:
    f, g = table.stage_lengths(position)
    return JobPlan(
        job_id=job_id,
        model=table.model_name,
        cut_position=position,
        compute_time=f,
        comm_time=g,
        cloud_time=table.cloud_rest(position),
        cut_label=table.positions[position],
        mobile_nodes=(
            table.mobile_nodes_at(position) if table.graph is not None else None
        ),
    )


def refine_end_jobs(table: CostTable, schedule: Schedule) -> Schedule:
    """Improve a JPS schedule by re-cutting its boundary jobs.

    Returns a schedule whose makespan is <= the input's. For fewer than
    two jobs (no distinct head and tail) the input is returned as-is.
    """
    n = len(schedule.jobs)
    if n < 2:
        return schedule

    l_star = binary_search_cut(table)
    pair = [max(l_star - 1, 0), l_star]
    stage_of = [table.stage_lengths(p) for p in range(table.k)]

    best_makespan = flow_shop_makespan([p.stages for p in schedule.jobs])
    best_config: tuple[int, int, int] | None = None

    head_candidates = range(0, l_star + 1)
    tail_candidates = range(l_star, table.k)
    interior = n - 2
    for p_h in head_candidates:
        for p_t in tail_candidates:
            for n_a in range(interior + 1):
                stages = (
                    [stage_of[p_h]]
                    + [stage_of[pair[0]]] * n_a
                    + [stage_of[pair[1]]] * (interior - n_a)
                    + [stage_of[p_t]]
                )
                makespan = johnson_makespan(stages)
                if makespan < best_makespan - 1e-15:
                    best_makespan = makespan
                    best_config = (p_h, p_t, n_a)

    if best_config is None:
        return schedule

    p_h, p_t, n_a = best_config
    positions = [p_h] + [pair[0]] * n_a + [pair[1]] * (interior - n_a) + [p_t]
    plans = [_plan_at(table, job_id, pos) for job_id, pos in enumerate(positions)]
    order = johnson_order([p.stages for p in plans])
    ordered = tuple(plans[i] for i in order)
    return Schedule(
        jobs=ordered,
        makespan=best_makespan,
        method=f"{schedule.method}+refine",
        metadata={
            **schedule.metadata,
            "refined": True,
            "head_cut": table.positions[p_h],
            "tail_cut": table.positions[p_t],
        },
    )
