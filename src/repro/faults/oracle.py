"""Differential correctness oracle: exhaustive planning for small n.

The planning stack carries four layers of cleverness — Theorem 5.3's
two-type structure, Johnson's rule, the vectorized kernels and the
multiset dynamic program behind ``brute_force`` — each of which could
silently drift. This module is the machinery that proves they did not:
a brute-force planner that enumerates **every** cut assignment times
**every** execution order (no Johnson, no two-type assumption, no
shared code with the schemes under test) and the differential checks
that cross-examine :func:`repro.core.joint.jps_line` and
:func:`repro.core.baselines.brute_force` against it and JPS against the
scalar reference below.

It also holds the **scalar references** the production kernels replaced,
which no production module imports: :func:`johnson_order_scalar` (two
sorted lists), :func:`flow_shop_completion_times_scalar` (the
recurrence), :func:`split_exact_scalar` and
:func:`split_best_pair_scalar` (one flow-shop evaluation per candidate
split) and :func:`jps_line_scalar` (binary search, those sweeps, and
``schedule_jobs`` over eagerly built plans). The parity tests and
``benchmarks/bench_kernels.py`` compare against them.

The exhaustive makespan uses the independent critical-path identity for
a 2-machine permutation flow shop::

    C_max = max_j ( sum_{i<=j} f_i  +  sum_{i>=j} g_i )

evaluated as one vectorized pass per assignment over the whole
permutation batch — deliberately *not* the recurrence the production
kernels use, so the oracle cannot inherit their bugs.

``tests/oracles/`` hosts the harness built on top: seeded random
instances (dyadic-grid stage lengths, so scalar/vectorized parity is
bit-exact), a committed zero-mismatch corpus, and a ``--fuzz-rounds``
pytest knob for nightly-strength sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.baselines import brute_force
from repro.core.joint import SplitMode, jps_line
from repro.core.partition import (
    TwoTypeSplit,
    _split_makespan,
    binary_search_cut,
    plans_for_split,
    split_by_paper_ratio,
)
from repro.core.plans import Schedule
from repro.core.scheduling import (
    best_order_brute_force,
    flow_shop_makespan,
    johnson_order,
    schedule_jobs,
)
from repro.profiling.latency import CostTable
from repro.utils.rng import make_rng
from repro.utils.validation import require_positive

__all__ = [
    "OracleResult",
    "InstanceCheck",
    "exhaustive_optimal",
    "check_instance",
    "random_line_table",
    "johnson_order_scalar",
    "flow_shop_completion_times_scalar",
    "split_exact_scalar",
    "split_best_pair_scalar",
    "jps_line_scalar",
]

#: Absolute tolerance for makespan comparisons. The random instances
#: live on a dyadic grid, so true equalities are exact and anything
#: beyond this is a real disagreement.
TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# scalar references of the production kernels
# ----------------------------------------------------------------------
def johnson_order_scalar(stages: Sequence[tuple[float, float]]) -> list[int]:
    """Pure-Python Johnson's rule (the parity oracle for the lexsort)."""
    s1 = [i for i, (f, g) in enumerate(stages) if f < g]
    s2 = [i for i, (f, g) in enumerate(stages) if f >= g]
    s1.sort(key=lambda i: (stages[i][0], i))               # ascending f
    s2.sort(key=lambda i: (-stages[i][1], i))              # descending g
    return s1 + s2


def flow_shop_completion_times_scalar(
    stages: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    """The scalar flow-shop recurrence (the parity oracle for the closed form)."""
    completions: list[tuple[float, float]] = []
    c1 = c2 = 0.0
    for f, g in stages:
        if f < 0 or g < 0:
            raise ValueError(f"stage lengths must be >= 0, got ({f}, {g})")
        c1 += f
        c2 = max(c2, c1) + g
        completions.append((c1, c2))
    return completions


def split_exact_scalar(table: CostTable, l_star: int, n: int) -> TwoTypeSplit:
    """The exact split as a Python sweep (the oracle for ``split_exact``).

    Sweeps ``n_a`` from 0 to n, evaluating each candidate's Johnson
    makespan on its own, and keeps the first that beats the best so far
    by more than ``1e-15`` — O(n) flow-shop evaluations of O(n) each.
    """
    require_positive(n, "n")
    if l_star == 0:
        makespan = flow_shop_makespan([table.stage_lengths(0)] * n)
        return TwoTypeSplit(0, 0, 0, n, makespan)
    best: TwoTypeSplit | None = None
    for n_a in range(n + 1):
        makespan = _split_makespan(table, l_star, n_a, n - n_a)
        if best is None or makespan < best.makespan - 1e-15:
            best = TwoTypeSplit(l_star - 1, l_star, n_a, n - n_a, makespan)
    assert best is not None
    return best


def split_best_pair_scalar(table: CostTable, n: int) -> TwoTypeSplit:
    """The best pair split as a Python sweep (the oracle for ``split_best_pair``).

    For each position ``b``: all ``n`` jobs at ``b``, then for each
    ``a < b`` every mixed split ``n_a = 1..n-1``, each evaluated on its
    own in Johnson order; keeps the first candidate that beats the best
    so far by more than ``1e-15`` — O(k^2 · n) flow-shop evaluations.
    """
    require_positive(n, "n")
    best: TwoTypeSplit | None = None
    for b in range(table.k):
        stage_b = table.stage_lengths(b)
        makespan = flow_shop_makespan([stage_b] * n)
        if best is None or makespan < best.makespan - 1e-15:
            best = TwoTypeSplit(b, b, 0, n, makespan)
        for a in range(b):
            stage_a = table.stage_lengths(a)
            for n_a in range(1, n):
                stages = [stage_a] * n_a + [stage_b] * (n - n_a)
                order = johnson_order(stages)
                makespan = flow_shop_makespan([stages[i] for i in order])
                if makespan < best.makespan - 1e-15:
                    best = TwoTypeSplit(a, b, n_a, n - n_a, makespan)
    assert best is not None
    return best


def jps_line_scalar(
    table: CostTable, n: int, split: str | SplitMode = "exact"
) -> Schedule:
    """JPS on a line table, composed the scalar way (the oracle for ``jps_line``).

    Alg. 2's binary search, the split (:func:`split_exact_scalar` for
    ``exact``, :func:`split_best_pair_scalar` for ``pair``), then
    Johnson's rule over one eagerly built ``JobPlan`` per job — the same
    document as :func:`repro.core.joint.jps_line`, job order, ids and
    metadata included, up to the host-timed ``scheduler_overhead_s``.
    """
    started = perf_counter()
    mode = SplitMode.coerce(split)
    l_star = binary_search_cut(table)
    if mode is SplitMode.RATIO:
        chosen = split_by_paper_ratio(table, l_star, n)
    elif mode is SplitMode.EXACT:
        chosen = split_exact_scalar(table, l_star, n)
    else:
        chosen = split_best_pair_scalar(table, n)
    schedule = schedule_jobs(plans_for_split(table, chosen), method="JPS")
    return Schedule(
        jobs=schedule.jobs,
        makespan=schedule.makespan,
        method="JPS",
        metadata={
            "l_star": l_star,
            "split": mode.value,
            "n_a": chosen.n_a,
            "n_b": chosen.n_b,
            "cut_a": table.positions[chosen.position_a],
            "cut_b": table.positions[chosen.position_b],
            "scheduler_overhead_s": perf_counter() - started,
        },
    )


# ----------------------------------------------------------------------
# exhaustive optimum
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OracleResult:
    """The exhaustive optimum over assignments x orders."""

    makespan: float
    assignment: tuple[int, ...]       # cut position per job, in execution order
    evaluations: int                  # orders examined across all assignments


def _order_makespans(stage_rows: np.ndarray) -> np.ndarray:
    """Critical-path makespans of a (P, n, 2) batch of stage sequences."""
    f = stage_rows[:, :, 0]
    g = stage_rows[:, :, 1]
    cum_f = np.cumsum(f, axis=1)
    suffix_g = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
    return (cum_f + suffix_g).max(axis=1)


def exhaustive_optimal(
    table: CostTable,
    n: int,
    positions: "list[int] | None" = None,
    max_evaluations: int = 5_000_000,
) -> OracleResult:
    """Minimum makespan over all cut assignments x all execution orders.

    Job identity does not matter, so assignments reduce to multisets of
    cut positions; orders do matter to an oracle that refuses to trust
    Johnson's rule, so every distinct permutation of every multiset is
    priced. Factorial times combinatorial — keep ``n`` small (<= 6) and
    the position set narrow (<= 8); ``max_evaluations`` guards against
    accidental blow-ups.
    """
    require_positive(n, "n")
    candidates = list(range(table.k)) if positions is None else sorted(set(positions))
    if not candidates:
        raise ValueError("no candidate positions to search")
    stage_of = {p: table.stage_lengths(p) for p in candidates}

    best = float("inf")
    best_assignment: tuple[int, ...] | None = None
    evaluations = 0
    for combo in combinations_with_replacement(candidates, n):
        orders = sorted(set(permutations(combo)))
        evaluations += len(orders)
        if evaluations > max_evaluations:
            raise ValueError(
                f"exhaustive search exceeded {max_evaluations} order evaluations "
                f"(n={n}, positions={len(candidates)}); shrink the instance"
            )
        rows = np.array(
            [[stage_of[p] for p in order] for order in orders], dtype=float
        )
        makespans = _order_makespans(rows)
        index = int(np.argmin(makespans))
        if makespans[index] < best - TOLERANCE:
            best = float(makespans[index])
            best_assignment = orders[index]
    assert best_assignment is not None
    return OracleResult(
        makespan=best, assignment=best_assignment, evaluations=evaluations
    )


@dataclass(frozen=True)
class InstanceCheck:
    """One instance's differential verdict."""

    n: int
    k: int
    jps_makespan: float
    reference_makespan: float         # jps_line_scalar's
    oracle_makespan: float
    gap: float                        # jps - oracle, >= 0 when all is well
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_instance(table: CostTable, n: int) -> InstanceCheck:
    """Cross-examine JPS against its scalar reference and the exhaustive oracle.

    A *mismatch* is a genuine correctness violation, not a gap:
    :func:`~repro.core.joint.jps_line` disagreeing with
    :func:`jps_line_scalar` (makespan or any job), JPS claiming a
    makespan below the exhaustive optimum (impossible if both are
    right), Johnson's order being beaten on JPS's own cut choice, or
    :func:`~repro.core.baselines.brute_force` missing the exhaustive
    optimum. A positive ``gap`` alone is legitimate — end effects let
    the optimum beat the two-type structure on some instances (cf.
    Fig. 11).
    """
    planned = jps_line(table, n)
    reference = jps_line_scalar(table, n)
    oracle = exhaustive_optimal(table, n)
    mismatches: list[str] = []
    if planned.makespan != reference.makespan or tuple(planned.jobs) != tuple(
        reference.jobs
    ):
        mismatches.append(
            f"jps_line diverged from jps_line_scalar: "
            f"{planned.makespan!r} vs {reference.makespan!r}"
        )
    if planned.makespan < oracle.makespan - TOLERANCE:
        mismatches.append(
            f"jps beat the exhaustive optimum ({planned.makespan!r} < "
            f"{oracle.makespan!r}) — the oracle or the makespan math is broken"
        )
    johnson_best = best_order_brute_force([j.stages for j in planned.jobs])
    if johnson_best < planned.makespan - TOLERANCE:
        mismatches.append(
            f"Johnson order suboptimal for JPS's own assignment: "
            f"{johnson_best!r} < {planned.makespan!r}"
        )
    optimum = brute_force(table, n).makespan
    if abs(optimum - oracle.makespan) > TOLERANCE:
        mismatches.append(
            f"brute_force missed the exhaustive optimum: "
            f"{optimum!r} vs {oracle.makespan!r}"
        )
    return InstanceCheck(
        n=n,
        k=table.k,
        jps_makespan=planned.makespan,
        reference_makespan=reference.makespan,
        oracle_makespan=oracle.makespan,
        gap=planned.makespan - oracle.makespan,
        mismatches=tuple(mismatches),
    )


def random_line_table(
    seed: "int | np.random.Generator", k: int, grid: int = 1024
) -> CostTable:
    """A random valid line cost table on a dyadic grid.

    ``f`` non-decreasing from 0, ``g`` non-increasing to 0 (the LO
    position exists, as on every real model), cloud identically 0 so the
    2-stage oracle and the planner price the same problem. All values
    are multiples of ``1/grid`` — exactly representable, so scalar and
    vectorized plans must agree bit-for-bit, not just approximately.
    """
    require_positive(k, "k")
    rng = make_rng(seed)
    f_steps = rng.integers(0, 257, size=k - 1) if k > 1 else np.empty(0, dtype=int)
    f = np.concatenate([[0.0], np.cumsum(f_steps)]) / grid
    g_raw = np.sort(rng.integers(1, 1025, size=k - 1))[::-1] if k > 1 else []
    g = np.concatenate([np.asarray(g_raw, dtype=float), [0.0]]) / grid
    return CostTable(
        model_name=f"oracle-random-k{k}",
        positions=tuple(f"l{i}" for i in range(k)),
        f=f,
        g=g,
        cloud=np.zeros(k),
    )
