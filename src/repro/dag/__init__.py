"""DAG substrate: computation graphs, topology queries, cuts, transforms.

The true-DAG partitioner (:mod:`repro.dag.partition`) and its
brute-force differential oracle (:mod:`repro.dag.oracle`) are exported
lazily (PEP 562): they import pricing machinery from
``repro.core``/``repro.profiling``, which itself imports the DAG
substrate, so eager re-export here would close an import cycle.
"""

from repro.dag.cuts import (
    Cut,
    cut_transfer_bytes,
    enumerate_closed_sets,
    enumerate_frontier_cuts,
    is_downward_closed,
    make_cut,
    prune_dominated,
)
from repro.dag.graph import CycleError, Dag, Edge
from repro.dag.metrics import (
    DuplicationMetrics,
    GraphMetrics,
    critical_path,
    duplication_metrics,
    graph_metrics,
    to_dot,
)
from repro.dag.topology import (
    ParallelBlock,
    PathExplosionError,
    count_paths,
    enumerate_paths,
    is_series_parallel,
    parallel_blocks,
    separators,
)
from repro.dag.transform import (
    IndependentPaths,
    VirtualBlock,
    cluster_line_cut_points,
    collapse_clusterable_blocks,
    expand_members,
    linearize,
    should_cluster_block,
    to_independent_paths,
)

#: Lazily re-exported names -> owning submodule (see module docstring).
_LAZY_EXPORTS = {
    "DagCutTable": "repro.dag.partition",
    "dag_cut_table": "repro.dag.partition",
    "dag_pareto_cuts": "repro.dag.partition",
    "dag_schedule_from_table": "repro.dag.partition",
    "duplication_mobile_set": "repro.dag.partition",
    "duplication_schedule": "repro.dag.partition",
    "partition_dag": "repro.dag.partition",
    "DagInstance": "repro.dag.oracle",
    "DagInstanceCheck": "repro.dag.oracle",
    "DagOracleResult": "repro.dag.oracle",
    "check_dag_instance": "repro.dag.oracle",
    "dag_exhaustive_optimal": "repro.dag.oracle",
    "random_dag": "repro.dag.oracle",
}

__all__ = [
    "Cut",
    "CycleError",
    "Dag",
    "DuplicationMetrics",
    "Edge",
    "GraphMetrics",
    "IndependentPaths",
    "ParallelBlock",
    "PathExplosionError",
    "VirtualBlock",
    "cluster_line_cut_points",
    "collapse_clusterable_blocks",
    "count_paths",
    "critical_path",
    "cut_transfer_bytes",
    "duplication_metrics",
    "enumerate_closed_sets",
    "enumerate_frontier_cuts",
    "enumerate_paths",
    "expand_members",
    "graph_metrics",
    "is_downward_closed",
    "is_series_parallel",
    "linearize",
    "make_cut",
    "parallel_blocks",
    "prune_dominated",
    "separators",
    "should_cluster_block",
    "to_dot",
    "to_independent_paths",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
