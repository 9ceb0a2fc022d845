"""True DAG partitioning: price the real cut, not the Fig.-9 duplication.

The paper's Alg. 3 forces a general DAG into independent paths by
duplicating every shared node (Fig. 9), which over-ships shared tensors
(a tensor feeding two branches is uploaded once per path that crosses
the cut) and over-counts duplicated work. This module partitions the
*original* DAG instead: each node is assigned to mobile or cloud, a
valid assignment is a downward-closed node set containing every source
(the input tensor originates on the device), and the upload stage is
priced by :func:`repro.dag.cuts.cut_transfer_bytes` — each crossing
tensor shipped **once**.

The candidates are the graph's whole cut space.
:func:`dag_pareto_cuts` takes it from
:func:`repro.dag.cuts.frontier_pareto_cuts` — per separator block, the
entry's closure plus one prefix per entry → exit path, the rows that
are not downward-closed dropped, priced in batch (the ideals of each
block, as in *Efficient Algorithms for Device Placement of DNN Graph
Operators*) — and from the closure BFS
:func:`repro.dag.cuts.enumerate_closed_sets` on the graphs that builder
cannot take, chosen from the graph's shape. Either way the space is
exhaustive, and :func:`repro.core.partition.optimal_multiset` schedules
the jobs on it exactly — the best multiset of Pareto cuts, Johnson
ordered — so the partitioner is provably optimal under the two-stage
pipeline model (locked against the brute-force oracle in
``repro.dag.oracle``).

The Fig.-9 baseline is kept as :func:`duplication_schedule` for
differential comparison. Its (repaired) mobile set is one of the cuts,
so some Pareto cut moves no more bytes at no more compute, and the
true partitioner never prices worse than the duplication transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.partition import optimal_multiset
from repro.core.plans import JobPlan, Schedule
from repro.dag.cuts import (
    Cut,
    _fits_block_rows,
    cut_transfer_bytes,
    enumerate_closed_sets,
    frontier_pareto_cuts,
    is_downward_closed,
    make_cut,
    prune_dominated,
)
from repro.dag.graph import Dag
from repro.dag.transform import to_independent_paths
from repro.profiling.latency import CostTable
from repro.utils.validation import require_positive

__all__ = [
    "NodeCost",
    "UploadModel",
    "dag_pareto_cuts",
    "DagCutTable",
    "cut_columns",
    "dag_cut_table",
    "unique_cut_labels",
    "dag_schedule_from_table",
    "partition_dag",
    "duplication_mobile_set",
    "duplication_schedule",
]

#: Per-node mobile compute time (seconds).
NodeCost = Callable[[str], float]
#: Upload time (seconds) of a payload in bytes. Must be non-decreasing.
UploadModel = Callable[[float], float]


def dag_pareto_cuts(dag: Dag, node_time: NodeCost) -> list[Cut]:
    """Pareto-optimal cuts of a general DAG under true (shared-once) pricing.

    Every downward-closed set holding the sources is a candidate, priced
    with per-tail deduplicated transfer bytes, and dominance is pruned
    on (compute time, transfer bytes) — both bandwidth-independent, so
    one enumeration serves every channel. The candidates come from
    :func:`repro.dag.cuts.frontier_pareto_cuts` when the graph's shape
    lets it take them, else from
    :func:`repro.dag.cuts.enumerate_closed_sets`. Returns the cuts sorted
    by increasing compute time, labelled by :func:`make_cut`'s default.
    """
    if _fits_block_rows(dag):
        return [make_cut(dag, cut.mobile) for cut in frontier_pareto_cuts(dag, node_time)]
    pool = enumerate_closed_sets(dag)
    compute_of = {mobile: sum(node_time(v) for v in mobile) for mobile in pool}
    return prune_dominated([make_cut(dag, mobile) for mobile in pool], compute_of)


# ----------------------------------------------------------------------
# cost tables over DAG cuts
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class DagCutTable:
    """A line-shaped cost table synthesized from Pareto-optimal graph cuts.

    Position ``i`` of ``table`` is backed by ``cuts[i]``, so the binary
    search, two-type split, and the engine's pricing kernels consume
    cut-backed plans unchanged and a schedule built on the table can be
    executed on the real graph. Frontier tables and true-DAG tables
    share this record and one cut-space builder; they differ only in
    their position labels.
    """

    table: CostTable
    cuts: tuple[Cut, ...]


def unique_cut_labels(cuts: Sequence[Cut]) -> tuple[str, ...]:
    """Cut labels, disambiguated (two closed sets can share a frontier)."""
    seen: dict[str, int] = {}
    labels: list[str] = []
    for cut in cuts:
        count = seen.get(cut.label, 0)
        seen[cut.label] = count + 1
        labels.append(cut.label if count == 0 else f"{cut.label}#{count + 1}")
    return tuple(labels)


def cut_columns(
    dag: Dag,
    cuts: Sequence[Cut],
    node_time: NodeCost,
    cloud_time: NodeCost | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bandwidth-independent ``(f, payload, cloud)`` columns of a cut list.

    ``f`` sums the node mobile times over each ``cut.mobile``; the
    payload is the cut's deduplicated crossing bytes, 0 for the
    all-mobile cut (nothing leaves the device); ``cloud`` is the cloud
    time of each cut's mobile part in running-max form — that time is
    not exactly monotone across Pareto cuts, and the running max keeps
    :class:`CostTable`'s invariant — and identically 0 when
    ``cloud_time`` is None (the two-stage model). The engine's frontier
    and DAG structures and :func:`dag_cut_table` all price through here.
    """
    f = np.array([sum(node_time(v) for v in cut.mobile) for cut in cuts])
    payloads = np.array(
        [0.0 if len(cut.mobile) == len(dag) else float(cut.transfer_bytes) for cut in cuts]
    )
    if cloud_time is None:
        return f, payloads, np.zeros(len(cuts))
    total = sum(cloud_time(v) for v in dag.node_ids)
    rests = np.array([total - sum(cloud_time(v) for v in cut.mobile) for cut in cuts])
    return f, payloads, np.maximum.accumulate(rests.max() - rests)


def dag_cut_table(
    dag: Dag,
    node_time: NodeCost,
    upload_time: UploadModel,
    cloud_time: NodeCost | None = None,
    name: str | None = None,
) -> DagCutTable:
    """Price the Pareto cut space of a DAG into a :class:`CostTable`.

    The columns come from :func:`cut_columns`; ``g`` is the upload time
    of each payload (exactly 0 when nothing crosses — the fully-local
    cut).
    """
    cuts = dag_pareto_cuts(dag, node_time)
    f, payloads, cloud = cut_columns(dag, cuts, node_time, cloud_time)
    table = CostTable(
        model_name=f"{name or dag.name}/dag",
        positions=unique_cut_labels(cuts),
        f=f,
        g=np.array([upload_time(b) if b > 0 else 0.0 for b in payloads]),
        cloud=cloud,
        graph=None,
    )
    return DagCutTable(table=table, cuts=tuple(cuts))


# ----------------------------------------------------------------------
# scheduling over a DAG cut table
# ----------------------------------------------------------------------
def _plans_at_positions(
    table: CostTable, positions: Sequence[int], model: str, cuts: tuple[Cut, ...]
) -> tuple[JobPlan, ...]:
    return tuple(
        JobPlan(
            job_id=i,
            model=model,
            cut_position=p,
            compute_time=table.stage_lengths(p)[0],
            comm_time=table.stage_lengths(p)[1],
            cloud_time=table.cloud_rest(p),
            cut_label=table.positions[p],
            mobile_nodes=cuts[p].mobile,
        )
        for i, p in enumerate(positions)
    )


def dag_schedule_from_table(
    table: CostTable,
    cuts: tuple[Cut, ...],
    n: int,
    model: str | None = None,
) -> Schedule:
    """Schedule ``n`` jobs on a priced DAG cut table (method ``JPS-dag``).

    The jobs take the optimal multiset of the table's cuts
    (:func:`repro.core.partition.optimal_multiset`), in Johnson order.
    Both engine planning paths and :func:`partition_dag` route through
    here, so plan/batch output stays consistent.
    """
    makespan, positions = optimal_multiset(table, n)
    jobs = _plans_at_positions(table, positions, model or table.model_name, cuts)
    return Schedule(
        jobs=jobs,
        makespan=makespan,
        method="JPS-dag",
        metadata={
            "structure": "dag",
            "num_pareto_cuts": table.k,
            "s1_size": sum(p.is_communication_heavy for p in jobs),
            "s2_size": sum(not p.is_communication_heavy for p in jobs),
        },
    )


def partition_dag(
    dag: Dag,
    node_time: NodeCost,
    upload_time: UploadModel,
    n: int,
    cloud_time: NodeCost | None = None,
    name: str | None = None,
) -> Schedule:
    """True-DAG JPS: partition ``n`` jobs of a general DAG, price the real cut.

    The entry point the oracle harness locks down. The cut space is
    exhaustive, so it holds the repaired Fig.-9 duplication cut, and the
    returned makespan is never worse than :func:`duplication_schedule` on
    the same instance — the dominance the differential tests assert on
    100% of random DAGs.
    """
    require_positive(n, "n")
    dct = dag_cut_table(dag, node_time, upload_time, cloud_time=cloud_time, name=name)
    return dag_schedule_from_table(dct.table, dct.cuts, n, model=name or dag.name)


# ----------------------------------------------------------------------
# the Fig.-9 duplication baseline
# ----------------------------------------------------------------------
def _path_prefix_length(
    path: tuple[str, ...],
    node_time: NodeCost,
    upload_time: UploadModel,
    volumes: list[float],
) -> int:
    """Alg. 2 on one path: length of the mobile prefix it picks.

    Per-path tables are not g-monotone inside branches, so positions are
    first restricted to strict running minima of the upload volume (the
    §3.2 clustering argument applied to the path, as in
    :func:`repro.core.general.clustered_view`), then the leftmost kept
    position with ``f >= g`` wins.
    """
    f = 0.0
    cumulative: list[float] = []
    for v in path:
        f += node_time(v)
        cumulative.append(f)
    g = [upload_time(vol) if vol > 0 else 0.0 for vol in volumes]
    keep: list[int] = []
    best = float("inf")
    for i, value in enumerate(g):
        if value < best:
            keep.append(i)
            best = value
    if keep[-1] != len(path) - 1:
        keep.append(len(path) - 1)
    for i in keep:
        if cumulative[i] >= g[i]:
            return i + 1
    return len(path)


def _repair_closed(dag: Dag, nodes: Iterable[str]) -> frozenset[str]:
    """Largest downward-closed subset of ``nodes`` (plus all sources).

    A node survives only if every ancestor is also present — the same
    repair :func:`repro.core.general.alg3_consistent_plans` applies to
    Alg. 3's union-of-path-prefixes to make it physically executable.
    """
    pool = set(nodes) | set(dag.sources())
    return frozenset(v for v in pool if dag.ancestors(v) <= pool)


def duplication_mobile_set(
    dag: Dag,
    node_time: NodeCost,
    upload_time: UploadModel,
    max_paths: int = 4096,
) -> frozenset[str]:
    """The Fig.-9 pipeline's global cut, repaired to a valid DAG cut.

    Converts to independent paths, runs Alg. 2 on each, unions the
    per-path mobile prefixes, and keeps the largest downward-closed
    subset — the executable cut behind the paper's per-path decisions.
    Raises :class:`~repro.dag.topology.PathExplosionError` when the path
    set explodes and ``ValueError`` on multi-source/sink graphs,
    mirroring the conversion itself.
    """
    converted = to_independent_paths(dag, max_paths=max_paths)
    union: set[str] = set()
    for path in converted.paths:
        volumes = [dag.volume(a, b) for a, b in zip(path, path[1:])] + [0.0]
        union.update(path[: _path_prefix_length(path, node_time, upload_time, volumes)])
    return _repair_closed(dag, union)


def _duplicated_upload(
    dag: Dag,
    paths: tuple[tuple[str, ...], ...],
    upload_time: UploadModel,
    mobile: frozenset[str],
) -> tuple[float, float]:
    """(upload seconds, shipped bytes) of a cut under per-path duplication.

    The cut projected onto a path is always a prefix (downward closure),
    and each path ships its own copy of the leaving tensor — the Fig.-9
    accounting. Every crossing edge is the leaving edge of at least one
    path, so this never undercounts the true per-tail-deduplicated
    pricing: the duplication baseline is pessimistic by construction.
    """
    seconds = 0.0
    shipped = 0.0
    for path in paths:
        depth = 0
        for v in path:
            if v not in mobile:
                break
            depth += 1
        if 0 < depth < len(path):
            volume = dag.volume(path[depth - 1], path[depth])
            shipped += volume
            seconds += upload_time(volume) if volume > 0 else 0.0
    return seconds, shipped


def duplication_schedule(
    dag: Dag,
    node_time: NodeCost,
    upload_time: UploadModel,
    n: int,
    name: str | None = None,
    max_paths: int = 4096,
) -> Schedule:
    """The Fig.-9 duplication-transform plan cost (method ``JPS-paths-dup``).

    ``n`` identical jobs at the per-path Alg.-2 cut, with the upload
    stage priced per duplicated path — shared crossing tensors shipped
    once *per path*, exactly the over-shipping the true partitioner
    eliminates. Mobile compute is deduplicated (each shared layer runs
    once), which only makes the baseline harder to beat. Metadata
    carries both accountings so the gap is measurable:
    ``duplicated_upload_bytes`` vs ``true_upload_bytes``.
    """
    require_positive(n, "n")
    converted = to_independent_paths(dag, max_paths=max_paths)
    mobile = duplication_mobile_set(dag, node_time, upload_time, max_paths=max_paths)
    f = sum(node_time(v) for v in mobile)
    g, shipped = _duplicated_upload(dag, converted.paths, upload_time, mobile)
    true_bytes = cut_transfer_bytes(dag, mobile)
    display = name or dag.name
    label = f"dup:{len(mobile)}/{len(dag)}"
    jobs = tuple(
        JobPlan(
            job_id=i,
            model=display,
            cut_position=-1,
            compute_time=f,
            comm_time=g,
            cut_label=label,
            mobile_nodes=mobile,
            group="paths-dup",
        )
        for i in range(n)
    )
    makespan = f + g + (n - 1) * max(f, g)
    return Schedule(
        jobs=jobs,
        makespan=makespan,
        method="JPS-paths-dup",
        metadata={
            "structure": "paths-dup",
            "num_paths": converted.num_paths,
            "duplicated_upload_bytes": shipped,
            "true_upload_bytes": true_bytes,
            "over_shipped_bytes": shipped - true_bytes,
        },
    )


def _validate_plan_cuts(dag: Dag, schedule: Schedule) -> list[str]:
    """Sanity hooks for the property tests: every plan's cut is executable."""
    problems: list[str] = []
    sources = set(dag.sources())
    for job in schedule.jobs:
        mobile = job.mobile_nodes or frozenset()
        if not sources <= mobile:
            problems.append(f"job {job.job_id}: cut drops a source node")
        if not is_downward_closed(dag, mobile):
            problems.append(f"job {job.job_id}: cut has a cloud->mobile back-edge")
    return problems
