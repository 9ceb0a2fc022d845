"""Local search over cut multisets — an optimality probe for large n.

Brute force is exact but caps out around n ≈ 15; the LP bound is cheap
but fractional. This local search fills the gap: starting from a JPS
solution, repeatedly try single-job cut moves (shift one job's cut to
any other position, re-run Johnson's rule, keep improvements) with a
few random restarts. It is *not* part of the JPS scheme — it exists to
measure how much makespan JPS leaves on the table at n = 100, where the
paper's Fig. 11 comparison cannot reach.
"""

from __future__ import annotations

import numpy as np

from repro.core.joint import jps_line
from repro.core.plans import Schedule
from repro.core.scheduling import johnson_makespan
from repro.profiling.latency import CostTable
from repro.utils.rng import make_rng
from repro.utils.validation import require_positive

__all__ = ["local_search"]


def _evaluate(table: CostTable, counts: np.ndarray) -> float:
    """Johnson makespan of a cut multiset given as per-position counts."""
    stages = []
    for position, count in enumerate(counts):
        if count:
            stages.extend([table.stage_lengths(position)] * int(count))
    return johnson_makespan(stages)


def _counts_to_schedule(table: CostTable, counts: np.ndarray, makespan: float) -> Schedule:
    from repro.core.plans import JobPlan
    from repro.core.scheduling import schedule_jobs

    plans: list[JobPlan] = []
    job_id = 0
    for position, count in enumerate(counts):
        f, g = table.stage_lengths(position)
        for _ in range(int(count)):
            plans.append(
                JobPlan(
                    job_id=job_id,
                    model=table.model_name,
                    cut_position=position,
                    compute_time=f,
                    comm_time=g,
                    cloud_time=table.cloud_rest(position),
                    cut_label=table.positions[position],
                )
            )
            job_id += 1
    schedule = schedule_jobs(plans, method="local-search")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="local-search",
        metadata={"counts": counts.tolist()},
    )


def local_search(
    table: CostTable,
    n: int,
    restarts: int = 3,
    max_rounds: int = 50,
    seed: int | np.random.Generator | None = 0,
) -> Schedule:
    """Best-improvement local search over cut multisets.

    Neighborhood: move one job from position ``a`` to position ``b``
    (all a, b pairs with a job at ``a``). Starts from the JPS solution
    plus ``restarts`` random multisets; deterministic under a fixed
    seed. O(rounds · k² · n) Johnson evaluations.
    """
    require_positive(n, "n")
    rng = make_rng(seed)
    k = table.k

    starts: list[np.ndarray] = []
    jps_counts = np.zeros(k, dtype=int)
    for position, count in jps_line(table, n).cut_histogram().items():
        jps_counts[position] = count
    starts.append(jps_counts)
    # the end-effect-refined JPS is a distinct, often better basin
    from repro.extensions.refine import refine_end_jobs

    refined_counts = np.zeros(k, dtype=int)
    refined = refine_end_jobs(table, jps_line(table, n))
    for position, count in refined.cut_histogram().items():
        refined_counts[position] = count
    starts.append(refined_counts)
    for _ in range(restarts):
        random_counts = np.bincount(rng.integers(0, k, size=n), minlength=k)
        starts.append(random_counts.astype(int))

    best_counts: np.ndarray | None = None
    best_value = float("inf")
    for counts in starts:
        counts = counts.copy()
        value = _evaluate(table, counts)
        for _ in range(max_rounds):
            improved = False
            for a in range(k):
                if counts[a] == 0:
                    continue
                for b in range(k):
                    if a == b:
                        continue
                    counts[a] -= 1
                    counts[b] += 1
                    candidate = _evaluate(table, counts)
                    if candidate < value - 1e-15:
                        value = candidate
                        improved = True
                    else:
                        counts[a] += 1
                        counts[b] -= 1
            if not improved:
                break
        if value < best_value:
            best_value = value
            best_counts = counts
    assert best_counts is not None
    return _counts_to_schedule(table, best_counts, best_value)
