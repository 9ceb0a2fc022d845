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

Candidate generation has two regimes:

* **exact closure enumeration** — BFS over the lattice of downward-closed
  sets (single-node extensions). Complete whenever the lattice fits in
  ``max_states``; with the exact scheduling menu this makes the
  partitioner provably optimal under the two-stage pipeline model
  (locked against the brute-force oracle in ``repro.dag.oracle``).
* **contiguous-split DP + critical-path refinement** — when the lattice
  is too large, seed with every prefix of the topological order (the
  contiguous-split DP of *Efficient Algorithms for Device Placement of
  DNN Graph Operators*: exact on graphs where an optimal cut is a
  topo-prefix, e.g. single-entry/single-exit chains of blocks) and
  locally expand the Pareto frontier, exploring nodes on the
  compute-weighted critical path first (*It's the Critical Path!*).

Scheduling reuses the two-stage flow-shop machinery: either an exact
menu search (every multiset of Pareto cuts, Johnson-ordered — optimal
for a fixed cut set) or the line-table two-cut split plus a best-uniform
floor. The Fig.-9 baseline is kept as :func:`duplication_schedule` for
differential comparison; :func:`partition_dag` seeds its (repaired)
mobile set into the candidate pool, so the true partitioner never
prices worse than the duplication transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.partition import binary_search_cut, split_exact
from repro.core.plans import JobPlan, Schedule
from repro.core.scheduling import johnson_order_scalar
from repro.dag.cuts import Cut, cut_transfer_bytes, is_downward_closed, make_cut, prune_dominated
from repro.dag.graph import Dag
from repro.dag.metrics import critical_path
from repro.dag.topology import PathExplosionError
from repro.dag.transform import to_independent_paths
from repro.profiling.latency import CostTable
from repro.utils.validation import require_positive

__all__ = [
    "NodeCost",
    "UploadModel",
    "topo_prefix_sets",
    "enumerate_closed_sets",
    "refine_closed_sets",
    "dag_pareto_cuts",
    "DagCutTable",
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

#: Closed-set enumeration budget: 4096 states cover every DAG with
#: <= 12 nodes exhaustively (2^12 sets) and most sparser larger ones.
DEFAULT_MAX_STATES = 4096

#: Exact-menu scheduling budget: multisets of Pareto cuts evaluated.
DEFAULT_MAX_ASSIGNMENTS = 100_000

#: Strict-improvement threshold shared with the split optimizers.
_IMPROVEMENT = 1e-15


# ----------------------------------------------------------------------
# candidate closed sets
# ----------------------------------------------------------------------
def topo_prefix_sets(dag: Dag) -> list[frozenset[str]]:
    """Every prefix of the topological order that contains all sources.

    Prefixes of a topological order are downward-closed by construction,
    and Kahn's queue lists every source before any derived node, so the
    valid prefixes are exactly lengths ``#sources .. |V|``. This is the
    candidate set of the contiguous-split DP: optimal whenever some
    optimal cut is order-contiguous (always true for lines; for general
    DAGs it is the seed the refinement pass improves on).
    """
    order = dag.topological_order()
    first = len(dag.sources())
    return [frozenset(order[:length]) for length in range(first, len(order) + 1)]


def enumerate_closed_sets(
    dag: Dag, max_states: int = DEFAULT_MAX_STATES
) -> tuple[list[frozenset[str]], bool]:
    """BFS over the lattice of downward-closed sets containing all sources.

    Each state expands by adding one *eligible* node (all predecessors
    already inside), so every downward-closed superset of the source set
    is reachable. Returns ``(sets, exhaustive)``: when the lattice fits
    in ``max_states`` the enumeration is complete and ``exhaustive`` is
    True; otherwise the truncated set list is only a sample and the
    caller should fall back to :func:`refine_closed_sets`.
    """
    require_positive(max_states, "max_states")
    position = dag._topological_position()
    base = frozenset(dag.sources())
    seen: dict[frozenset[str], None] = {base: None}
    queue: list[frozenset[str]] = [base]
    cursor = 0
    while cursor < len(queue):
        current = queue[cursor]
        cursor += 1
        eligible = sorted(
            (
                v
                for v in dag.node_ids
                if v not in current
                and all(p in current for p in dag.predecessors(v))
            ),
            key=position.__getitem__,
        )
        for v in eligible:
            grown = current | {v}
            if grown in seen:
                continue
            if len(seen) >= max_states:
                return list(seen), False
            seen[grown] = None
            queue.append(grown)
    return list(seen), True


def _repair_closed(dag: Dag, nodes: Iterable[str]) -> frozenset[str]:
    """Largest downward-closed subset of ``nodes`` (plus all sources).

    A node survives only if every ancestor is also present — the same
    repair :func:`repro.core.general.alg3_consistent_plans` applies to
    Alg. 3's union-of-path-prefixes to make it physically executable.
    """
    pool = set(nodes) | set(dag.sources())
    return frozenset(v for v in pool if dag.ancestors(v) <= pool)


def refine_closed_sets(
    dag: Dag,
    node_time: NodeCost,
    seeds: Iterable[frozenset[str]],
    max_states: int = DEFAULT_MAX_STATES,
) -> list[frozenset[str]]:
    """Critical-path-guided local search over downward-closed sets.

    Starting from ``seeds`` (topo prefixes, the repaired duplication
    set, ...), repeatedly expand every (compute, transfer-bytes)
    Pareto-optimal set by one-node additions and removals until no new
    Pareto set appears or ``max_states`` distinct sets were examined.
    Nodes on the compute-weighted critical path are tried first: moving
    the cut along the heaviest chain is what shifts the compute/upload
    trade-off fastest, so those neighbors survive the budget cut.
    """
    require_positive(max_states, "max_states")
    position = dag._topological_position()
    on_critical = set(critical_path(dag, node_time)[0])
    sources = set(dag.sources())

    def neighbor_rank(v: str) -> tuple[int, int]:
        return (0 if v in on_critical else 1, position[v])

    costs: dict[frozenset[str], tuple[float, float]] = {}

    def cost(mobile: frozenset[str]) -> tuple[float, float]:
        if mobile not in costs:
            costs[mobile] = (
                sum(node_time(v) for v in mobile),
                cut_transfer_bytes(dag, mobile),
            )
        return costs[mobile]

    for seed in seeds:
        if len(costs) >= max_states:
            break
        cost(seed)

    while True:
        ranked = sorted(costs, key=lambda m: (*costs[m], sorted(m)))
        pareto: list[frozenset[str]] = []
        best_bytes = float("inf")
        for mobile in ranked:
            if costs[mobile][1] < best_bytes:
                pareto.append(mobile)
                best_bytes = costs[mobile][1]
        grew = False
        for mobile in pareto:
            additions = sorted(
                (
                    v
                    for v in dag.node_ids
                    if v not in mobile
                    and all(p in mobile for p in dag.predecessors(v))
                ),
                key=neighbor_rank,
            )
            removals = sorted(
                (
                    v
                    for v in mobile
                    if v not in sources
                    and not any(s in mobile for s in dag.successors(v))
                ),
                key=neighbor_rank,
            )
            for v in additions:
                candidate = mobile | {v}
                if candidate not in costs:
                    if len(costs) >= max_states:
                        return list(costs)
                    cost(candidate)
                    grew = True
            for v in removals:
                candidate = mobile - {v}
                if candidate not in costs:
                    if len(costs) >= max_states:
                        return list(costs)
                    cost(candidate)
                    grew = True
        if not grew:
            return list(costs)


def dag_pareto_cuts(
    dag: Dag,
    node_time: NodeCost,
    max_states: int = DEFAULT_MAX_STATES,
    extra_sets: Sequence[Iterable[str]] = (),
) -> tuple[list[Cut], dict]:
    """Pareto-optimal cuts of a general DAG under true (shared-once) pricing.

    Enumerates downward-closed candidate sets (exact closure BFS when it
    fits in ``max_states``, topo-prefix DP + critical-path refinement
    otherwise), prices each with per-tail deduplicated transfer bytes,
    and prunes dominance on (compute time, transfer bytes) — both
    bandwidth-independent, so one enumeration serves every channel.
    ``extra_sets`` are repaired to their largest downward-closed subset
    and added to the pool (used to seed the Fig.-9 baseline's cut, which
    guarantees the result never prices worse than the duplication
    transform). Returns the cuts sorted by increasing compute time plus
    an info dict (``mode``, ``states``).
    """
    repaired = [_repair_closed(dag, s) for s in extra_sets]
    candidates, exhaustive = enumerate_closed_sets(dag, max_states)
    if exhaustive:
        mode = "exact-closure"
        pool = dict.fromkeys(candidates)
        pool.update(dict.fromkeys(repaired))
    else:
        mode = "refined"
        seeds = topo_prefix_sets(dag) + repaired
        pool = dict.fromkeys(refine_closed_sets(dag, node_time, seeds, max_states))
    compute_of = {
        mobile: sum(node_time(v) for v in mobile) for mobile in pool
    }
    cuts = [make_cut(dag, mobile) for mobile in pool]
    surviving = prune_dominated(cuts, compute_of)
    surviving.sort(key=lambda c: compute_of[c.mobile])
    return surviving, {"mode": mode, "states": len(pool)}


# ----------------------------------------------------------------------
# cost tables over DAG cuts
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class DagCutTable:
    """A line-shaped cost table synthesized from true DAG cuts.

    The same shape as :class:`repro.core.joint.FrontierTable` — position
    ``i`` of ``table`` is backed by ``cuts[i]`` — so the binary search,
    two-type split, and the engine's pricing kernels consume DAG plans
    unchanged. ``mode`` records how the cut space was generated
    (``"exact-closure"`` or ``"refined"``), ``states`` how many closed
    sets were examined.
    """

    table: CostTable
    cuts: tuple[Cut, ...]
    mode: str
    states: int

    def cut_at(self, position: int) -> Cut:
        return self.cuts[position]


def unique_cut_labels(cuts: Sequence[Cut]) -> tuple[str, ...]:
    """Cut labels, disambiguated (two closed sets can share a frontier)."""
    seen: dict[str, int] = {}
    labels: list[str] = []
    for cut in cuts:
        count = seen.get(cut.label, 0)
        seen[cut.label] = count + 1
        labels.append(cut.label if count == 0 else f"{cut.label}#{count + 1}")
    return tuple(labels)


def dag_cut_table(
    dag: Dag,
    node_time: NodeCost,
    upload_time: UploadModel,
    cloud_time: NodeCost | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    extra_sets: Sequence[Iterable[str]] = (),
    name: str | None = None,
) -> DagCutTable:
    """Price the Pareto cut space of a DAG into a :class:`CostTable`.

    ``f`` is the summed mobile time of each cut's node set, ``g`` the
    upload time of its deduplicated crossing bytes (exactly 0 when
    nothing crosses — the fully-local cut), ``cloud`` the usual
    running-max rendition of the remaining cloud work (identically 0
    when ``cloud_time`` is None, matching the 2-stage model).
    """
    cuts, info = dag_pareto_cuts(
        dag, node_time, max_states=max_states, extra_sets=extra_sets
    )
    f = np.array([sum(node_time(v) for v in c.mobile) for c in cuts])
    g = np.array(
        [upload_time(c.transfer_bytes) if c.transfer_bytes > 0 else 0.0 for c in cuts]
    )
    if cloud_time is None:
        cloud = np.zeros(len(cuts))
    else:
        total = sum(cloud_time(v) for v in dag.node_ids)
        rests = np.array(
            [total - sum(cloud_time(v) for v in c.mobile) for c in cuts]
        )
        cloud = np.maximum.accumulate(rests.max() - rests)
    table = CostTable(
        model_name=f"{name or dag.name}/dag",
        positions=unique_cut_labels(cuts),
        f=f,
        g=g,
        cloud=cloud,
        graph=None,
    )
    return DagCutTable(table=table, cuts=tuple(cuts), mode=info["mode"], states=info["states"])


# ----------------------------------------------------------------------
# scheduling over a DAG cut table
# ----------------------------------------------------------------------
def _johnson_makespan(stages: list[tuple[float, float]]) -> tuple[float, list[int]]:
    """Johnson-optimal makespan of a fixed job set (scalar recurrence)."""
    order = johnson_order_scalar(stages)
    c1 = c2 = 0.0
    for i in order:
        f, g = stages[i]
        c1 += f
        c2 = max(c2, c1) + g
    return c2, order


def _exact_menu(
    table: CostTable, n: int
) -> tuple[float, tuple[int, ...]]:
    """Optimal cut assignment over every multiset of table positions.

    Johnson's rule is makespan-optimal for any fixed 2-stage job set, so
    sweeping all ``C(k+n-1, n)`` multisets of Pareto positions with a
    Johnson evaluation each *is* the exact optimum over assignments —
    the same search space as the brute-force oracle, minus the redundant
    permutations. Returns the best makespan and the chosen positions in
    execution (Johnson) order.
    """
    stage_of = [table.stage_lengths(p) for p in range(table.k)]
    best = float("inf")
    best_positions: tuple[int, ...] = ()
    for combo in combinations_with_replacement(range(table.k), n):
        stages = [stage_of[p] for p in combo]
        makespan, order = _johnson_makespan(stages)
        if makespan < best - _IMPROVEMENT:
            best = makespan
            best_positions = tuple(combo[i] for i in order)
    return best, best_positions


def _uniform_floor(table: CostTable, n: int) -> tuple[float, int]:
    """Best single-position assignment: all ``n`` jobs on one cut.

    For identical jobs the flow-shop makespan has the closed form
    ``f + g + (n-1) * max(f, g)``. Sweeping every position is the floor
    that completes the duplication-dominance argument: the seeded
    baseline cut (or its Pareto dominator) is always a candidate here.
    """
    best = float("inf")
    best_position = 0
    for p in range(table.k):
        f, g = table.stage_lengths(p)
        makespan = f + g + (n - 1) * max(f, g)
        if makespan < best - _IMPROVEMENT:
            best = makespan
            best_position = p
    return best, best_position


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
    schedule: str = "auto",
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
    model: str | None = None,
    extra_metadata: dict | None = None,
) -> Schedule:
    """Schedule ``n`` jobs on a priced DAG cut table (method ``JPS-dag``).

    ``schedule``: ``"exact"`` runs the exact multiset menu (optimal,
    budgeted by ``max_assignments``), ``"two-cut"`` the Theorem-5.3
    split on the line-shaped table taken to the minimum with the
    best-uniform floor, ``"auto"`` picks exact whenever the menu fits
    the budget. Both engine planning paths and :func:`partition_dag`
    route through here, so plan/batch output stays consistent.
    """
    require_positive(n, "n")
    if schedule not in ("auto", "exact", "two-cut"):
        raise ValueError(
            f"unknown schedule mode {schedule!r} (use 'auto', 'exact' or 'two-cut')"
        )
    menu_size = comb(table.k + n - 1, n)
    if schedule == "exact" and menu_size > max_assignments:
        raise ValueError(
            f"exact menu needs {menu_size} assignments > budget {max_assignments}; "
            "use schedule='auto' or raise max_assignments"
        )
    display = model or table.model_name
    chosen = schedule
    if chosen == "auto":
        chosen = "exact" if menu_size <= max_assignments else "two-cut"

    if chosen == "exact":
        makespan, positions = _exact_menu(table, n)
    else:
        l_star = binary_search_cut(table)
        split = split_exact(table, l_star, n)
        split_positions = [
            split.position_a if i < split.n_a else split.position_b
            for i in range(n)
        ]
        stages = [table.stage_lengths(p) for p in split_positions]
        makespan, order = _johnson_makespan(stages)
        positions = tuple(split_positions[i] for i in order)
        uniform_makespan, uniform_position = _uniform_floor(table, n)
        if uniform_makespan < makespan - _IMPROVEMENT:
            makespan = uniform_makespan
            positions = (uniform_position,) * n

    jobs = _plans_at_positions(table, positions, display, cuts)
    return Schedule(
        jobs=jobs,
        makespan=makespan,
        method="JPS-dag",
        metadata={
            "structure": "dag",
            "schedule": chosen,
            "num_pareto_cuts": table.k,
            "s1_size": sum(p.is_communication_heavy for p in jobs),
            "s2_size": sum(not p.is_communication_heavy for p in jobs),
            **(extra_metadata or {}),
        },
    )


def partition_dag(
    dag: Dag,
    node_time: NodeCost,
    upload_time: UploadModel,
    n: int,
    cloud_time: NodeCost | None = None,
    schedule: str = "auto",
    max_states: int = DEFAULT_MAX_STATES,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
    name: str | None = None,
) -> Schedule:
    """True-DAG JPS: partition ``n`` jobs of a general DAG, price the real cut.

    The entry point the oracle harness locks down. The candidate pool is
    seeded with the (repaired) Fig.-9 duplication cut whenever the path
    conversion is feasible, so the returned makespan is never worse than
    :func:`duplication_schedule` on the same instance — the dominance the
    differential tests assert on 100% of random DAGs.
    """
    require_positive(n, "n")
    extra_sets: list[frozenset[str]] = []
    try:
        extra_sets.append(duplication_mobile_set(dag, node_time, upload_time))
    except (ValueError, PathExplosionError):
        # multi-source/sink graphs or exploding path sets have no Fig.-9
        # conversion to dominate; the true partitioner still applies
        pass
    dct = dag_cut_table(
        dag,
        node_time,
        upload_time,
        cloud_time=cloud_time,
        max_states=max_states,
        extra_sets=extra_sets,
        name=name,
    )
    return dag_schedule_from_table(
        dct.table,
        dct.cuts,
        n,
        schedule=schedule,
        max_assignments=max_assignments,
        model=name or dag.name,
        extra_metadata={"cut_mode": dct.mode, "closed_states": dct.states},
    )


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
