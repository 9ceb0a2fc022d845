"""General-structure DNN partition and scheduling — the paper's Alg. 3.

Pipeline:

1. Convert the DAG into independent source→sink paths (Fig. 9 node
   duplication; :func:`repro.dag.transform.to_independent_paths`).
2. Partition each path individually with Alg. 2 on its own cost table.
3. Schedule all (job, path) units with the *modified* Johnson's rule:
   the order is computed from nominal per-path stage lengths (duplicated
   layers counted in full), but at execution time a layer shared by
   several paths of the same job runs only once — the first path that
   reaches it pays for it.

GoogLeNet's faithful conversion explodes (4^9 global paths), so above
``max_paths`` we fall back to *representative paths*: one default
branch per parallel block plus one variant path per alternative branch
(Σ instead of Π growth, every layer still covered). The substitution is
recorded in the schedule metadata and in DESIGN.md.

``alg3_consistent_plans`` additionally repairs each job's union of path
prefixes into a downward-closed set, yielding a physically executable
global cut — used to quantify how much the paper's per-path accounting
diverges from an executable plan (ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partition import binary_search_cut
from repro.core.plans import JobPlan, Schedule
from repro.core.scheduling import johnson_order
from repro.dag.cuts import make_cut
from repro.dag.graph import Dag
from repro.dag.topology import PathExplosionError, parallel_blocks, separators
from repro.dag.transform import to_independent_paths
from repro.net.channel import Channel
from repro.nn.network import Network
from repro.profiling.device import DeviceModel
from repro.profiling.latency import (
    CostTable,
    LayerPredictor,
    node_mobile_time,
    path_cost_table,
)
from repro.utils.validation import require_integer, require_positive

__all__ = [
    "PathPlan",
    "clustered_view",
    "representative_paths",
    "alg3_partition",
    "alg3_schedule",
    "alg3_schedule_from_plans",
    "alg3_consistent_plans",
]


@dataclass(frozen=True)
class PathPlan:
    """Alg. 2's decision for one independent path."""

    path_index: int
    path: tuple[str, ...]
    cut_index: int                 # index into `path` (cut after this node)
    mobile_prefix: tuple[str, ...]
    nominal_compute: float         # f with duplicated layers counted in full
    comm_time: float               # upload of the cut tensor


def clustered_view(table: CostTable) -> tuple[CostTable, list[int]]:
    """Restrict a path table to positions where g is a strict running min.

    Inside an Inception branch the tensor volume can rise and fall, so a
    raw path table violates the monotone-g precondition of the binary
    search. Dominated positions (bigger upload *and* more computation
    than an earlier one) are dropped — the §3.2 virtual-block argument
    applied to the path. Returns the view and the kept original indices.
    """
    keep: list[int] = []
    best = float("inf")
    for index in range(table.k):
        if table.g[index] < best:
            keep.append(index)
            best = float(table.g[index])
    if keep[-1] != table.k - 1:
        keep.append(table.k - 1)
    view = CostTable(
        model_name=f"{table.model_name}/view",
        positions=tuple(table.positions[i] for i in keep),
        f=table.f[keep],
        g=table.g[keep],
        cloud=table.cloud[keep],
        graph=None,
    )
    return view, keep


def representative_paths(dag: Dag) -> tuple[tuple[str, ...], ...]:
    """Σ-growth path cover for DAGs whose full path set explodes.

    A *default* route picks the first branch of every parallel block;
    each alternative branch contributes one variant path that follows
    the default route elsewhere. Every node appears in at least one
    path, and every branch-local cut position of every block remains
    reachable by Alg. 2 on some path.
    """
    seps = separators(dag)
    blocks = parallel_blocks(dag)
    default_route: dict[str, tuple[str, ...]] = {
        b.entry: b.branches[0] for b in blocks
    }

    def build(overrides: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
        route: list[str] = []
        for sep, block in zip(seps, blocks):
            route.append(sep)
            branch = overrides.get(block.entry, default_route[block.entry])
            route.extend(branch)
        route.append(seps[-1])
        return tuple(route)

    paths = [build({})]
    for block in blocks:
        for branch in block.branches[1:]:
            paths.append(build({block.entry: branch}))
    # drop duplicates while preserving order (blocks with one branch add none)
    seen: set[tuple[str, ...]] = set()
    unique = []
    for p in paths:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return tuple(unique)


def alg3_partition(
    network: Network,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    predictor: LayerPredictor | None = None,
    max_paths: int = 2048,
) -> tuple[list[PathPlan], dict]:
    """Steps 1–5 of Alg. 3: convert to paths, cut each with Alg. 2."""
    graph = network.graph
    info: dict = {"conversion": "faithful"}
    try:
        converted = to_independent_paths(graph, max_paths=max_paths)
        paths = converted.paths
    except PathExplosionError:
        paths = representative_paths(graph)
        info = {"conversion": "representative", "reason": f"> {max_paths} paths"}
    info["num_paths"] = len(paths)

    plans: list[PathPlan] = []
    for index, path in enumerate(paths):
        table = path_cost_table(network, path, mobile, cloud, channel, predictor)
        view, kept = clustered_view(table)
        l_star_view = binary_search_cut(view)
        # Alg. 2 returns the pair (l*-1, l*); for the single cut per path we
        # keep the side with the smaller |f - g| imbalance.
        candidates = [l_star_view]
        if l_star_view > 0:
            candidates.append(l_star_view - 1)
        chosen_view = min(
            candidates, key=lambda i: abs(float(view.f[i]) - float(view.g[i]))
        )
        cut_index = kept[chosen_view]
        plans.append(
            PathPlan(
                path_index=index,
                path=path,
                cut_index=cut_index,
                mobile_prefix=path[: cut_index + 1],
                nominal_compute=float(table.f[cut_index]),
                comm_time=float(table.g[cut_index]),
            )
        )
    return plans, info


def alg3_schedule(
    network: Network,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    n: int,
    predictor: LayerPredictor | None = None,
    max_paths: int = 2048,
) -> Schedule:
    """Alg. 3 end to end for ``n`` identical jobs.

    Johnson's rule orders the n×P (job, path) units by their *nominal*
    stage lengths; execution then charges each original layer once per
    job (the "duplicated nodes are only counted once" modification),
    replaying the flow-shop recurrence with the deduplicated stage
    lengths to obtain the real makespan.
    """
    n = require_positive(require_integer(n, "n"), "n")
    path_plans, info = alg3_partition(
        network, mobile, cloud, channel, predictor, max_paths
    )
    return alg3_schedule_from_plans(network, mobile, path_plans, info, n, predictor)


def alg3_schedule_from_plans(
    network: Network,
    mobile: DeviceModel,
    path_plans: list[PathPlan],
    info: dict,
    n: int,
    predictor: LayerPredictor | None = None,
) -> Schedule:
    """Alg. 3 steps 6+ on precomputed path cuts.

    Split out of :func:`alg3_schedule` so the planning engine can cache
    the expensive partition phase (path conversion + per-path Alg. 2)
    and replay only the Johnson ordering + deduplicated flow-shop
    recurrence per job count.
    """
    n = require_positive(require_integer(n, "n"), "n")
    graph = network.graph
    layer_time = {
        v: node_mobile_time(graph.payload(v), mobile, predictor) for v in graph.node_ids
    }

    units: list[tuple[int, PathPlan]] = [
        (job, plan) for job in range(n) for plan in path_plans
    ]
    nominal_stages = [(p.nominal_compute, p.comm_time) for _, p in units]
    order = johnson_order(nominal_stages)

    executed: dict[int, set[str]] = {job: set() for job in range(n)}
    jobs: list[JobPlan] = []
    for rank in order:
        job, plan = units[rank]
        fresh = [v for v in plan.mobile_prefix if v not in executed[job]]
        executed[job].update(plan.mobile_prefix)
        compute = sum(layer_time[v] for v in fresh)
        jobs.append(
            JobPlan(
                job_id=job,
                model=network.name,
                cut_position=plan.cut_index,
                compute_time=compute,
                comm_time=plan.comm_time,
                cut_label=f"path{plan.path_index}:{plan.path[plan.cut_index]}",
                group=f"path{plan.path_index}",
            )
        )

    # replay the 2-stage recurrence with deduplicated compute stages
    c1 = c2 = 0.0
    for job in jobs:
        c1 += job.compute_time
        c2 = max(c2, c1) + job.comm_time
    return Schedule(
        jobs=tuple(jobs),
        makespan=c2,
        method="JPS-paths",
        # `jobs` holds n x P (job, path) units, so Schedule.average_completion
        # divides by the unit count; divide makespan by metadata["n"] for the
        # per-inference-job average.
        metadata={**info, "units": len(units), "n": n},
    )


def alg3_consistent_plans(
    network: Network,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    predictor: LayerPredictor | None = None,
    max_paths: int = 2048,
) -> JobPlan:
    """A physically executable global cut derived from Alg. 3's path cuts.

    Takes the union of the per-path mobile prefixes and keeps its
    largest downward-closed subset (a node survives only if *all* its
    predecessors survive), then prices the resulting real cut. Returns
    the per-job plan; scheduling n copies is the caller's one-liner.
    """
    path_plans, _ = alg3_partition(network, mobile, cloud, channel, predictor, max_paths)
    graph = network.graph
    union: set[str] = set()
    for plan in path_plans:
        union.update(plan.mobile_prefix)

    kept: set[str] = set()
    for v in graph.topological_order():
        if v in union and all(p in kept for p in graph.predecessors(v)):
            kept.add(v)

    cut = make_cut(graph, kept, label="alg3-consistent")
    compute = sum(
        node_mobile_time(graph.payload(v), mobile, predictor) for v in kept
    )
    comm = channel.uplink_time(cut.transfer_bytes) if len(kept) != len(graph) else 0.0
    return JobPlan(
        job_id=0,
        model=network.name,
        cut_position=-1,
        compute_time=compute,
        comm_time=comm,
        cut_label=cut.label,
        mobile_nodes=cut.mobile,
    )
