"""DNN job scheduling (paper §4): Johnson's rule and makespan formulas.

Once every job's partition is fixed, executing the jobs is a 2-machine
flow shop — machine 1 is the mobile CPU (stage length ``f``), machine 2
the uplink (stage length ``g``); the negligible cloud stage is dropped,
exactly as in the paper (the 3-stage variant lives in
:mod:`repro.extensions.flowshop3`). Johnson's rule (Alg. 1) minimizes
the makespan:

1. split jobs into the communication-heavy set ``S1 = {f < g}`` and the
   computation-heavy set ``S2 = {f >= g}``;
2. sort ``S1`` by ascending ``f`` and ``S2`` by descending ``g``;
3. run ``S1`` then ``S2``.

Everything here is exact and deterministic; the brute-force permutation
search is kept as the optimality oracle for the test-suite.

The kernels are **vectorized**: :func:`johnson_order` is one stable
``np.lexsort`` over a signed key and :func:`flow_shop_completion_times`
is the cumsum / ``maximum.accumulate`` closed form of the recurrence —
no Python loop over jobs. The scalar loops they replaced live in
:mod:`repro.faults.oracle` as the parity oracles of
``tests/test_vectorized_parity.py``; ``benchmarks/bench_kernels.py``
tracks the speedup.

:func:`schedule_jobs` orders an arbitrary job set. Two-type JPS splits
and the homogeneous baselines skip it: all jobs of one type share a
stage pair, so Johnson's stable sort of the jobs is the sort of the
(at most two) types, and their schedules hold run-length jobs
(:func:`repro.core.partition.split_jobs`,
:class:`repro.core.plans.RunLengthJobs`).
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from repro.core.plans import JobPlan, Schedule

__all__ = [
    "johnson_order",
    "johnson_order_indices",
    "flow_shop_makespan",
    "johnson_makespan",
    "flow_shop_completion_times",
    "flow_shop_completion_arrays",
    "proposition_4_1_makespan",
    "schedule_jobs",
    "best_order_brute_force",
]

Stage = tuple[float, float]


def _stage_arrays(stages: Sequence[Stage]) -> tuple[np.ndarray, np.ndarray]:
    """Split a stage sequence (or an (n, 2) array) into f and g vectors."""
    arr = np.asarray(stages, dtype=float)
    if arr.size == 0:
        empty = np.empty(0, dtype=float)
        return empty, empty
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"stages must be (f, g) pairs, got shape {arr.shape}")
    return arr[:, 0], arr[:, 1]


def johnson_order_indices(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Array-native Johnson's rule: the optimal order as an index vector.

    One stable lexsort over ``(group, signed key)`` where the
    communication-heavy set S1 (``f < g``, group 0, key ``f``) precedes
    the computation-heavy set S2 (``f >= g``, group 1, key ``-g``).
    Stability gives the deterministic original-index tiebreak, so the
    result is bit-identical to the scalar two-list construction (the
    parity oracle in :mod:`repro.faults.oracle`).
    """
    group = f >= g
    signed = np.where(group, -g, f)
    return np.lexsort((signed, group))


def johnson_order(stages: Sequence[Stage]) -> list[int]:
    """Alg. 1: the optimal job order for a 2-stage flow shop.

    Returns indices into ``stages``. Ties break deterministically on the
    original index, so equal-cost schedules are reproducible.
    """
    f, g = _stage_arrays(stages)
    if f.size == 0:
        return []
    return johnson_order_indices(f, g).tolist()


def flow_shop_completion_arrays(
    f: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Array-native completion times ``(C1, C2)`` for jobs in the given order.

    The recurrence ``C2[j] = max(C2[j-1], C1[j]) + g[j]`` unrolls to the
    closed form ``C2[j] = Gcum[j] + max_{k<=j}(C1[k] - Gcum[k-1])`` with
    ``Gcum[-1] = 0`` — a cumsum and one ``maximum.accumulate``, no Python
    loop. The closed form is algebraically identical to the recurrence;
    in floating point it differs only by summation reassociation (exactly
    equal whenever the sums are exactly representable, e.g. on the dyadic
    grids the property tests draw from).
    """
    if f.size == 0:
        empty = np.empty(0, dtype=float)
        return empty, empty
    bad = np.where((f < 0) | (g < 0))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"stage lengths must be >= 0, got ({float(f[i])}, {float(g[i])})"
        )
    c1 = np.cumsum(f)
    gcum = np.cumsum(g)
    shifted = np.empty_like(gcum)
    shifted[0] = 0.0
    shifted[1:] = gcum[:-1]
    c2 = gcum + np.maximum.accumulate(c1 - shifted)
    return c1, c2


def flow_shop_completion_times(stages: Sequence[Stage]) -> list[tuple[float, float]]:
    """Per-job (stage-1 finish, stage-2 finish) for jobs run in the given order.

    The standard permutation flow-shop recurrence::

        C1[j] = C1[j-1] + f[j]
        C2[j] = max(C2[j-1], C1[j]) + g[j]

    Stage 2 of a job cannot start before its own stage 1 completes and
    before the link is free — the pipeline constraint of §3.1. Computed
    via :func:`flow_shop_completion_arrays`; an empty sequence yields an
    empty list and a single job trivially ``[(f, f + g)]``.
    """
    f, g = _stage_arrays(stages)
    if f.size == 0:
        return []
    c1, c2 = flow_shop_completion_arrays(f, g)
    return list(zip(c1.tolist(), c2.tolist()))


def flow_shop_makespan(stages: Sequence[Stage]) -> float:
    """Makespan of jobs executed in the given order."""
    f, g = _stage_arrays(stages)
    if f.size == 0:
        return 0.0
    return float(flow_shop_completion_arrays(f, g)[1][-1])


def johnson_makespan(stages: Sequence[Stage]) -> float:
    """Optimal makespan of a job set: Johnson's order, then the exact makespan."""
    order = johnson_order(stages)
    return flow_shop_makespan([stages[i] for i in order])


def proposition_4_1_makespan(stages: Sequence[Stage]) -> float:
    """Prop. 4.1: closed-form makespan of a Johnson-ordered job sequence.

    ``f(x1) + max(sum_{i>=2} f(xi), sum_{i<=n-1} g(xi)) + g(xn)``.

    Scope (a reproduction finding, verified property-based in the test
    suite): the formula equals the exact recurrence for the *two-type*
    job sets of Theorem 5.3 (one communication-heavy and one
    computation-heavy cut), where idle time accumulates on at most one
    resource as the proposition argues. For arbitrary Johnson-ordered
    sequences it is only a **lower bound** — the exact makespan is
    ``max_j (sum_{i<=j} f_i + sum_{i>=j} g_i)`` over *all* j, and the
    formula keeps just the j = 1 and j = n terms. Counterexample with
    three distinct stage pairs: ``[(0.1, 0.2), (1, 1.1), (0.9, 0.05)]``
    (formula 2.05, true makespan 2.25). Use
    :func:`flow_shop_makespan` when exactness matters.
    """
    if not len(stages):
        return 0.0
    if len(stages) == 1:
        # degenerate pipeline: one job's stages simply run back to back
        f, g = stages[0]
        return float(f + g)
    fs = np.array([s[0] for s in stages])
    gs = np.array([s[1] for s in stages])
    return float(fs[0] + max(fs[1:].sum(), gs[:-1].sum()) + gs[-1])


def schedule_jobs(plans: Iterable[JobPlan], method: str = "johnson") -> Schedule:
    """Order ``plans`` with Johnson's rule and compute the exact makespan."""
    plan_list = list(plans)
    stages = [plan.stages for plan in plan_list]
    order = johnson_order(stages)
    ordered = tuple(plan_list[i] for i in order)
    makespan = flow_shop_makespan([p.stages for p in ordered])
    return Schedule(
        jobs=ordered,
        makespan=makespan,
        method=method,
        metadata={
            "s1_size": sum(p.is_communication_heavy for p in ordered),
            "s2_size": sum(not p.is_communication_heavy for p in ordered),
        },
    )


def best_order_brute_force(stages: Sequence[Stage], max_jobs: int = 9) -> float:
    """Minimum makespan over every permutation (test oracle only)."""
    if len(stages) > max_jobs:
        raise ValueError(
            f"brute-force order search is factorial; {len(stages)} jobs > cap {max_jobs}"
        )
    if not stages:
        return 0.0
    return min(flow_shop_makespan(list(p)) for p in permutations(stages))
