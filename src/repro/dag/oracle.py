"""Brute-force differential oracle for the true DAG partitioner.

Mirrors :mod:`repro.faults.oracle` (the PR-5 line oracle) for general
DAGs: enumerate **all** ``2^m`` node assignments with bitmasks, keep the
valid cuts (downward-closed, sources on the device), price each with its
own per-tail loops, and score every job assignment × execution order
with the critical-path identity

    ``C_max = max_j ( sum_{i<=j} f_i + sum_{i>=j} g_i )``

— an algebraic form of the two-stage flow-shop makespan that shares no
code with the simulator recurrence or the partitioner, so agreement is
evidence, not tautology. Instances from :func:`random_dag` use dyadic
node times, integer byte volumes, and power-of-two channel rates, making
every float sum exact and oracle-vs-partitioner comparison bit-exact.

The job count is clamped so the enumeration (multisets of Pareto cuts ×
their permutations) stays under ``max_evaluations``; the clamped count
is reported and :func:`check_dag_instance` runs the partitioner at the
same count, keeping the comparison apples-to-apples. The partitioner
itself enumerates nothing: its scheduler,
:func:`repro.core.partition.optimal_multiset`, is a dynamic program, so
agreement here checks it against a search that shares none of its
pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from math import comb, factorial
from typing import Callable, Mapping

import numpy as np

from repro.dag.graph import Dag
from repro.dag.partition import (
    _validate_plan_cuts,
    duplication_schedule,
    partition_dag,
)
from repro.utils.validation import require_positive

__all__ = [
    "TOLERANCE",
    "DagInstance",
    "DagOracleResult",
    "DagInstanceCheck",
    "random_dag",
    "dag_exhaustive_optimal",
    "check_dag_instance",
]

#: Makespan agreement tolerance; dyadic-grid instances land exactly on 0.
TOLERANCE = 1e-9

#: Node count past which 2^m enumeration is refused outright.
MAX_ORACLE_NODES = 16


def random_dag(rng: np.random.Generator, num_nodes: int, name: str = "oracle-dag") -> Dag:
    """A random single-source/single-sink DAG with integer byte volumes.

    Nodes ``v00..v{m-1}`` are created in topological order; every node
    after the source draws 1–3 predecessors among earlier nodes, and any
    dangling non-final node is wired into the sink so the graph admits
    the Fig.-9 path conversion. Volumes are integers in ``[1, 1024]`` —
    on the dyadic parameter grid every downstream float sum is exact.
    """
    require_positive(num_nodes - 1, "num_nodes - 1")
    dag = Dag(name=name)
    names = [f"v{i:02d}" for i in range(num_nodes)]
    for node in names:
        dag.add_node(node)
    for i in range(1, num_nodes):
        fan_in = int(rng.integers(1, min(i, 3) + 1))
        for j in sorted(rng.choice(i, size=fan_in, replace=False).tolist()):
            dag.add_edge(names[j], names[i], volume=float(rng.integers(1, 1025)))
    for i in range(1, num_nodes - 1):
        if dag.out_degree(names[i]) == 0:
            dag.add_edge(names[i], names[-1], volume=float(rng.integers(1, 1025)))
    return dag


@dataclass(frozen=True)
class DagInstance:
    """A self-contained oracle instance on the dyadic parameter grid.

    ``node_time`` maps node id to mobile seconds (multiples of 1/1024,
    the source pinned to 0 like the line tables' input pseudo-layer) and
    ``seconds_per_byte`` is a power of two, so makespans compare with
    ``==`` across the oracle, the partitioner, and the corpus JSON.
    """

    dag: Dag
    node_time: Mapping[str, float]
    seconds_per_byte: float
    n: int

    def node_cost(self, node_id: str) -> float:
        return self.node_time[node_id]

    def upload_time(self, num_bytes: float) -> float:
        return num_bytes * self.seconds_per_byte


@dataclass(frozen=True)
class DagOracleResult:
    """Exhaustive optimum: makespan, witness assignment, search size."""

    makespan: float
    assignment: tuple[frozenset[str], ...]
    n_used: int
    evaluations: int
    num_closed_sets: int
    num_pareto: int


def _closed_masks(dag: Dag) -> tuple[list[str], list[int]]:
    """All downward-closed node sets containing every source, as bitmasks."""
    order = dag.topological_order()
    index = {v: i for i, v in enumerate(order)}
    pred_mask = [0] * len(order)
    for v in order:
        for p in dag.predecessors(v):
            pred_mask[index[v]] |= 1 << index[p]
    source_mask = 0
    for v in dag.sources():
        source_mask |= 1 << index[v]
    masks = []
    for mask in range(1 << len(order)):
        if mask & source_mask != source_mask:
            continue
        remaining = mask
        valid = True
        while remaining:
            low = remaining & -remaining
            if pred_mask[low.bit_length() - 1] & ~mask:
                valid = False
                break
            remaining ^= low
        if valid:
            masks.append(mask)
    return order, masks


def dag_exhaustive_optimal(
    dag: Dag,
    node_time: Mapping[str, float],
    upload_time: Callable[[float], float],
    n: int,
    max_evaluations: int = 5_000_000,
) -> DagOracleResult:
    """Ground-truth optimum over all cuts × assignments × orders.

    Enumerates every valid bitmask cut with its own per-tail pricing
    loops (shared tensors counted once per crossing tail), prunes
    (f, g)-dominated cuts — safe because the makespan identity is
    monotone in both stage lengths — and scores every multiset of
    surviving cuts under every distinct execution order with the
    critical-path identity. ``n`` is clamped down until the enumeration
    fits ``max_evaluations``; the result records the count actually used.
    """
    require_positive(n, "n")
    if len(dag) > MAX_ORACLE_NODES:
        raise ValueError(
            f"oracle enumerates 2^m assignments; {len(dag)} nodes > {MAX_ORACLE_NODES}"
        )
    order, masks = _closed_masks(dag)
    index = {v: i for i, v in enumerate(order)}
    times = [float(node_time[v]) for v in order]
    successors = [
        [(index[s], dag.volume(v, s)) for s in dag.successors(v)] for v in order
    ]

    priced: list[tuple[float, float, int]] = []
    for mask in masks:
        f = 0.0
        transfer = 0.0
        for i, v in enumerate(order):
            if not mask >> i & 1:
                continue
            f += times[i]
            crossing = [vol for j, vol in successors[i] if not mask >> j & 1]
            if crossing:
                transfer += max(crossing)
        g = upload_time(transfer) if transfer > 0 else 0.0
        priced.append((f, g, mask))

    priced.sort(key=lambda t: (t[0], t[1], t[2]))
    pareto: list[tuple[float, float, int]] = []
    best_g = float("inf")
    for f, g, mask in priced:
        if g < best_g:
            pareto.append((f, g, mask))
            best_g = g

    n_used = n
    while n_used > 1 and comb(len(pareto) + n_used - 1, n_used) * factorial(
        n_used
    ) > max_evaluations:
        n_used -= 1

    best = float("inf")
    best_order: tuple[tuple[float, float, int], ...] = ()
    evaluations = 0
    for combo in combinations_with_replacement(pareto, n_used):
        orders = sorted(set(permutations(combo)))
        evaluations += len(orders)
        if evaluations > max_evaluations:
            raise ValueError(
                f"exhaustive DAG search exceeded {max_evaluations} evaluations"
            )
        rows = np.array(orders)
        spans = (
            np.cumsum(rows[:, :, 0], axis=1)
            + np.cumsum(rows[:, ::-1, 1], axis=1)[:, ::-1]
        ).max(axis=1)
        winner = int(spans.argmin())
        if spans[winner] < best:
            best = float(spans[winner])
            best_order = orders[winner]

    assignment = tuple(
        frozenset(v for i, v in enumerate(order) if int(mask) >> i & 1)
        for _, _, mask in best_order
    )
    return DagOracleResult(
        makespan=best,
        assignment=assignment,
        n_used=n_used,
        evaluations=evaluations,
        num_closed_sets=len(masks),
        num_pareto=len(pareto),
    )


@dataclass(frozen=True)
class DagInstanceCheck:
    """One differential comparison: partitioner vs oracle vs duplication."""

    nodes: int
    edges: int
    n: int
    exact: bool
    partition_makespan: float
    duplication_makespan: float
    oracle_makespan: float | None
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def improvement(self) -> float:
        """How much the true partitioner beats the Fig.-9 baseline."""
        return self.duplication_makespan - self.partition_makespan


def check_dag_instance(
    instance: DagInstance,
    exact_limit: int = 10,
    max_evaluations: int = 5_000_000,
) -> DagInstanceCheck:
    """Run the three-way differential on one instance.

    On instances with ``<= exact_limit`` nodes the partitioner (whole
    cut space + exact multiset scheduler) must match the
    brute-force oracle bit-for-bit; on every instance it must price no
    worse than the Fig.-9 duplication baseline, and each emitted plan's
    cut must be executable (downward-closed, sources mobile).
    """
    dag = instance.dag
    exact = len(dag) <= exact_limit
    oracle = None
    n_used = instance.n
    if exact:
        oracle = dag_exhaustive_optimal(
            dag,
            instance.node_time,
            instance.upload_time,
            instance.n,
            max_evaluations=max_evaluations,
        )
        n_used = oracle.n_used
    partitioned = partition_dag(dag, instance.node_cost, instance.upload_time, n_used)
    baseline = duplication_schedule(dag, instance.node_cost, instance.upload_time, n_used)

    mismatches = list(_validate_plan_cuts(dag, partitioned))
    if oracle is not None and abs(partitioned.makespan - oracle.makespan) > TOLERANCE:
        mismatches.append(
            f"partitioner {partitioned.makespan!r} != oracle {oracle.makespan!r}"
        )
    if partitioned.makespan > baseline.makespan + TOLERANCE:
        mismatches.append(
            f"partitioner {partitioned.makespan!r} prices worse than "
            f"duplication {baseline.makespan!r}"
        )
    return DagInstanceCheck(
        nodes=len(dag),
        edges=dag.num_edges(),
        n=n_used,
        exact=exact,
        partition_makespan=partitioned.makespan,
        duplication_makespan=baseline.makespan,
        oracle_makespan=None if oracle is None else oracle.makespan,
        mismatches=tuple(mismatches),
    )
