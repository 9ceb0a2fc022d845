"""JPS — the paper's joint partition-and-scheduling scheme.

For line-structure (or linearizable) DNNs this is Alg. 2 + Theorem 5.3:
binary-search the crossing layer, split the n jobs across the two
adjacent candidate cuts, Johnson-schedule the result.

For general-structure DNNs two modes exist:

* ``frontier`` — exact enumeration of the series-parallel cut space,
  Pareto-pruned; the survivors, ordered by increasing ``f``, behave
  exactly like a line-structure cost table (``g`` strictly decreasing),
  so the *same* binary search and two-type split apply. This is the
  strongest scheme in the repo and an upper baseline for Alg. 3.
* ``paths`` — the paper's Alg. 3 heuristic (:mod:`repro.core.general`).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.core.partition import (
    TwoTypeSplit,
    searchsorted_cut,
    split_best_pair,
    split_by_paper_ratio,
    split_exact,
    split_jobs,
)
from repro.core.plans import RunLengthJobs, Schedule
from repro.dag.cuts import Cut, enumerate_frontier_cuts, prune_dominated
from repro.net.channel import Channel
from repro.nn.network import Network
from repro.profiling.device import DeviceModel
from repro.profiling.latency import (
    CostTable,
    LayerPredictor,
    cut_costs,
    line_cost_table,
    node_mobile_time,
)

__all__ = [
    "Structure",
    "SplitMode",
    "jps_line",
    "FrontierTable",
    "frontier_table",
    "attach_frontier_cuts",
    "jps_frontier",
    "jps_dag",
    "jps",
]

if hasattr(enum, "StrEnum"):  # Python >= 3.11
    _StrEnum = enum.StrEnum
else:  # pragma: no cover - 3.10 fallback, identical semantics

    class _StrEnum(str, enum.Enum):
        def __str__(self) -> str:
            return str(self.value)


class _CoercibleEnum(_StrEnum):
    """StrEnum that coerces raw strings with a helpful ``ValueError``."""

    @classmethod
    def coerce(cls, value: "str | _CoercibleEnum") -> "_CoercibleEnum":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            label = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
            valid = ", ".join(repr(m.value) for m in cls)
            raise ValueError(f"unknown {label} {value!r} (use {valid})") from None

    @classmethod
    def values(cls) -> list[str]:
        """The raw string values, for argparse ``choices=``."""
        return [m.value for m in cls]


class Structure(_CoercibleEnum):
    """How :func:`jps` treats the network's graph structure."""

    AUTO = "auto"
    LINE = "line"
    FRONTIER = "frontier"
    DAG = "dag"
    PATHS = "paths"


class SplitMode(_CoercibleEnum):
    """Two-type job allocation rule over the crossing layers (l*-1, l*)."""

    RATIO = "ratio"
    EXACT = "exact"
    PAIR = "pair"


def jps_line(table: CostTable, n: int, split: str | SplitMode = "exact") -> Schedule:
    """JPS on a line-structure cost table.

    ``split`` selects the two-type allocation over (l*-1, l*):
    ``"ratio"`` is the paper's floor-ratio rule (Alg. 2 line 9) —
    faithful but degenerate when the true ratio is below 1 (the floor
    collapses to a single cut layer); ``"exact"`` prices every integer
    split over the same two layers and is the default; ``"pair"`` takes
    the best two-type mix over all position pairs. The ablation bench
    quantifies the gap.

    The crossing is one :func:`searchsorted_cut` and the exact split the
    row-blocked matrix kernel of :func:`split_exact`; the schedule holds
    one prototype job per cut type (:func:`split_jobs`) and the split's
    own makespan, so a plan does no per-job work. Output is identical to
    the scalar composition kept as
    :func:`repro.faults.oracle.jps_line_scalar` (the parity property
    tests lock this).
    """
    started = perf_counter()
    mode = SplitMode.coerce(split)
    l_star = searchsorted_cut(table)
    if mode is SplitMode.RATIO:
        chosen: TwoTypeSplit = split_by_paper_ratio(table, l_star, n)
    elif mode is SplitMode.EXACT:
        chosen = split_exact(table, l_star, n)
    else:
        # beyond the paper: the best two-type mix over all position pairs,
        # needed when adjacent-layer time differences are drastic (VGG-16)
        chosen = split_best_pair(table, n)
    jobs = split_jobs(table, chosen)
    overhead = perf_counter() - started
    return Schedule(
        jobs=jobs,
        makespan=chosen.makespan,
        method="JPS",
        metadata={
            "l_star": l_star,
            "split": mode.value,
            "n_a": chosen.n_a,
            "n_b": chosen.n_b,
            "cut_a": table.positions[chosen.position_a],
            "cut_b": table.positions[chosen.position_b],
            "scheduler_overhead_s": overhead,
        },
    )


@dataclass(frozen=True, eq=False)
class FrontierTable:
    """A line-shaped cost table synthesized from Pareto-optimal DAG cuts.

    ``cuts[i]`` is the actual cut behind table position ``i``, so a
    schedule built on the table can be executed on the real graph.
    """

    table: CostTable
    cuts: tuple[Cut, ...]


def frontier_table(
    network: Network,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    predictor: LayerPredictor | None = None,
    max_cuts: int = 100_000,
) -> FrontierTable:
    """Exact cut space of a series-parallel DAG as a line cost table."""
    cuts = enumerate_frontier_cuts(network.graph, max_cuts=max_cuts)
    costs = cut_costs(network, cuts, mobile, cloud, channel, predictor)
    compute_of = {mobile_set: fgc[0] for mobile_set, fgc in costs.items()}
    surviving = prune_dominated(cuts, compute_of)
    surviving.sort(key=lambda c: compute_of[c.mobile])

    f = np.array([costs[c.mobile][0] for c in surviving])
    g = np.array([costs[c.mobile][1] for c in surviving])
    # Cloud time of the mobile part is not exactly monotone across Pareto
    # cuts; the running max keeps CostTable's invariant while shifting the
    # (negligible) cloud estimate by < one layer's cloud time.
    rests = np.array([costs[c.mobile][2] for c in surviving])
    cloud_of_mobile = np.maximum.accumulate(rests.max() - rests)
    table = CostTable(
        model_name=f"{network.name}/frontier",
        positions=tuple(c.label for c in surviving),
        f=f,
        g=g,
        cloud=cloud_of_mobile,
        graph=None,
    )
    return FrontierTable(table=table, cuts=tuple(surviving))


def attach_frontier_cuts(
    model_name: str, schedule: Schedule, cuts: tuple[Cut, ...]
) -> Schedule:
    """A :func:`jps_line` schedule on a cut-backed table, as ``JPS-frontier``.

    Re-attaches each job type's concrete graph cut (``cuts[position]``)
    and the network's own name — the table's ``/frontier`` suffix is
    internal — once per prototype of the run-length jobs.
    """
    jobs = RunLengthJobs(
        (replace(plan, model=model_name, mobile_nodes=cuts[plan.cut_position].mobile), count)
        for plan, count in schedule.jobs.runs
    )
    return Schedule(
        jobs=jobs,
        makespan=schedule.makespan,
        method="JPS-frontier",
        metadata={**schedule.metadata, "num_pareto_cuts": len(cuts)},
    )


def jps_frontier(
    network: Network,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    n: int,
    split: str | SplitMode = "exact",
    predictor: LayerPredictor | None = None,
) -> Schedule:
    """Exact-cut-space JPS for general (series-parallel) DNNs."""
    frontier = frontier_table(network, mobile, cloud, channel, predictor)
    schedule = jps_line(frontier.table, n, split=split)
    return attach_frontier_cuts(network.name, schedule, frontier.cuts)


def jps_dag(
    network: Network,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    n: int,
    predictor: LayerPredictor | None = None,
    schedule: str = "auto",
    max_states: int = 4096,
) -> Schedule:
    """True-DAG JPS on a profiled network (method ``JPS-dag``).

    Derives per-node device times and the channel's upload curve, then
    delegates to :func:`repro.dag.partition.partition_dag`: downward-
    closed cuts priced with shared tensors shipped once, candidate space
    from exact closure enumeration (or topo-prefix DP + critical-path
    refinement past ``max_states``), seeded with the Fig.-9 duplication
    cut so it never prices worse than the path transform. Works on *any*
    DAG — including non-series-parallel graphs the frontier enumeration
    cannot handle. See ``docs/dag.md``.
    """
    from repro.dag.partition import partition_dag

    graph = network.graph
    mobile_time = {
        v: node_mobile_time(graph.payload(v), mobile, predictor) for v in graph.node_ids
    }
    cloud_time = {v: node_mobile_time(graph.payload(v), cloud) for v in graph.node_ids}
    return partition_dag(
        graph,
        mobile_time.__getitem__,
        channel.uplink_time,
        n,
        cloud_time=cloud_time.__getitem__,
        schedule=schedule,
        max_states=max_states,
        name=network.name,
    )


def jps(
    network: Network,
    mobile: DeviceModel,
    cloud: DeviceModel,
    channel: Channel,
    n: int,
    structure: str | Structure = "auto",
    split: str | SplitMode = "exact",
    predictor: LayerPredictor | None = None,
) -> Schedule:
    """Entry point: dispatch on network structure.

    ``structure``: ``"line"`` forces linearization (virtual-block
    clustering), ``"frontier"`` uses the exact series-parallel cut
    space, ``"dag"`` the true-DAG partitioner (any graph shape, shared
    tensors priced once — see ``docs/dag.md``), ``"paths"`` runs the
    paper's Alg. 3, and ``"auto"`` picks ``line`` for networks that
    cluster into lines (AlexNet, MobileNet-v2, ResNet-18), ``frontier``
    for other series-parallel graphs (GoogLeNet), and ``dag`` for
    non-series-parallel graphs the frontier enumeration cannot cover.
    Raw strings are accepted and coerced to :class:`Structure` /
    :class:`SplitMode`.
    """
    chosen = Structure.coerce(structure)
    if chosen is Structure.AUTO:
        from repro.dag.topology import is_series_parallel
        from repro.dag.transform import collapse_clusterable_blocks

        clustered = collapse_clusterable_blocks(network.graph)
        if clustered.is_line():
            chosen = Structure.LINE
        elif is_series_parallel(network.graph):
            chosen = Structure.FRONTIER
        else:
            chosen = Structure.DAG
    if chosen is Structure.LINE:
        table = line_cost_table(network, mobile, cloud, channel, predictor)
        return jps_line(table, n, split=split)
    if chosen is Structure.FRONTIER:
        return jps_frontier(network, mobile, cloud, channel, n, split, predictor)
    if chosen is Structure.DAG:
        return jps_dag(network, mobile, cloud, channel, n, predictor)
    from repro.core.general import alg3_schedule

    return alg3_schedule(network, mobile, cloud, channel, n, predictor=predictor)
