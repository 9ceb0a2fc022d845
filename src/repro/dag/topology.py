"""Topology queries on DNN DAGs: paths, separators, series-parallel blocks.

Three queries drive the partition machinery:

* **path enumeration** — Alg. 3 of the paper converts a general DAG into
  independent source→sink paths (Fig. 9); each path is then partitioned
  like a line-structure DNN.
* **separators** — nodes every source→sink path passes through. Cutting
  *after* a separator is the only way to cut a general DAG with a single
  layer index, and separators delimit the parallel blocks used by the
  exact frontier-cut enumerator (:mod:`repro.dag.cuts`).
* **parallel blocks** — the sub-DAGs between consecutive separators.
  Inside a block, source→sink paths are independent branches (e.g. the
  four branches of a GoogLeNet Inception module).

Path counts are computed with exact integer dynamic programming (Python
bigints), so separator detection is correct even for graphs whose path
count overflows ``float64`` (full GoogLeNet has ~4^9 global paths).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.dag.graph import Dag

__all__ = [
    "PathExplosionError",
    "ParallelBlock",
    "count_paths",
    "enumerate_paths",
    "separators",
    "parallel_blocks",
]


class PathExplosionError(RuntimeError):
    """Raised when path enumeration would exceed the caller's cap."""


def _single_endpoints(dag: Dag) -> tuple[str, str]:
    sources = dag.sources()
    sinks = dag.sinks()
    if len(sources) != 1 or len(sinks) != 1:
        raise ValueError(
            f"{dag.name!r} must have exactly one source and one sink "
            f"(got {len(sources)} sources, {len(sinks)} sinks); "
            "DNN computation graphs have a single input and output layer"
        )
    return sources[0], sinks[0]


def count_paths(dag: Dag) -> int:
    """Exact number of source→sink paths (single-source/sink DAGs)."""
    source, sink = _single_endpoints(dag)
    counts: dict[str, int] = {source: 1}
    for v in dag.topological_order():
        c = counts.get(v, 0)
        if c == 0 and v != source:
            continue  # unreachable from the source
        for w in dag.successors(v):
            counts[w] = counts.get(w, 0) + c
    return counts.get(sink, 0)


def enumerate_paths(dag: Dag, max_paths: int | None = None) -> list[list[str]]:
    """All source→sink paths, each as a list of node ids.

    Raises :class:`PathExplosionError` when the exact path count exceeds
    ``max_paths`` — checked *before* enumeration so callers never pay for
    a doomed traversal.
    """
    total = count_paths(dag)
    if max_paths is not None and total > max_paths:
        raise PathExplosionError(
            f"{dag.name!r} has {total} source→sink paths, exceeding cap {max_paths}"
        )
    source, sink = _single_endpoints(dag)
    return list(_paths(dag, source, sink))


def iter_paths(dag: Dag) -> Iterator[list[str]]:
    """Lazily yield source→sink paths (no cap; caller controls consumption)."""
    source, sink = _single_endpoints(dag)
    yield from _paths(dag, source, sink)


def _paths(dag: Dag, start: str, stop: str) -> Iterator[list[str]]:
    """Every ``start``→``stop`` path, depth first in successor order.

    Each path is a fresh list of node ids from ``start`` to ``stop``.
    A stack of successor iterators stands in for recursion, so a deep
    graph never meets the interpreter's recursion limit and no
    self-referencing closure is left for the cycle collector.
    """
    path = [start]
    if start == stop:
        yield path
        return
    pending = [iter(dag.successors(start))]
    while pending:
        node = next(pending[-1], None)
        if node is None:
            pending.pop()
            path.pop()
        elif node == stop:
            yield path + [node]
        else:
            path.append(node)
            pending.append(iter(dag.successors(node)))


def separators(dag: Dag) -> list[str]:
    """Nodes through which *every* source→sink path passes, in topo order.

    A node ``v`` is a separator iff ``paths(source→v) * paths(v→sink)``
    equals the total path count. The source and sink are always
    separators. For a line-structure DAG every node is a separator.
    """
    source, sink = _single_endpoints(dag)
    order = dag.topological_order()

    fwd: dict[str, int] = {source: 1}
    for v in order:
        c = fwd.get(v, 0)
        for w in dag.successors(v):
            fwd[w] = fwd.get(w, 0) + c

    bwd: dict[str, int] = {sink: 1}
    for v in reversed(order):
        c = bwd.get(v, 0)
        for u in dag.predecessors(v):
            bwd[u] = bwd.get(u, 0) + c

    total = fwd.get(sink, 0)
    if total == 0:
        raise ValueError(f"{dag.name!r}: sink unreachable from source")
    return [v for v in order if fwd.get(v, 0) * bwd.get(v, 0) == total]


@dataclass(frozen=True)
class ParallelBlock:
    """The sub-DAG strictly between two consecutive separators.

    ``branches`` are the entry→exit paths with the endpoints stripped;
    each branch is a chain of interior node ids. A block with a single
    empty branch is just the edge ``entry -> exit``.
    """

    entry: str
    exit: str
    branches: tuple[tuple[str, ...], ...]

    @property
    def is_trivial(self) -> bool:
        """True when the block is a single direct edge (no interior nodes)."""
        return all(len(b) == 0 for b in self.branches)

    def interior_nodes(self) -> set[str]:
        return {v for branch in self.branches for v in branch}


def parallel_blocks(dag: Dag, max_paths_per_block: int = 4096) -> list[ParallelBlock]:
    """Decompose a single-source/sink DAG into blocks between separators.

    The concatenation ``sep_0, block_0, sep_1, block_1, ..., sep_m`` covers
    every node exactly once (separators as the joints). For graphs that are
    series-parallel — every model in :mod:`repro.nn.zoo` is — the branches
    within each block are vertex-disjoint chains, which
    :func:`repro.dag.cuts.enumerate_frontier_cuts` relies on.

    ``max_paths_per_block`` bounds per-block path enumeration; blocks in
    real DNNs have a handful of branches (4 for Inception, 2 for residual
    blocks), so the default is generous.
    """
    seps = separators(dag)
    blocks: list[ParallelBlock] = []
    for entry, exit_ in zip(seps, seps[1:]):
        # every path from entry to exit_ crosses no other separator (there
        # is none strictly between consecutive separators)
        branches: list[tuple[str, ...]] = []
        for path in _paths(dag, entry, exit_):
            branches.append(tuple(path[1:-1]))  # the endpoints are separators
            if len(branches) > max_paths_per_block:
                raise PathExplosionError(
                    f"block {entry!r}->{exit_!r} exceeds {max_paths_per_block} branches"
                )
        blocks.append(ParallelBlock(entry=entry, exit=exit_, branches=tuple(branches)))
    return blocks


def is_series_parallel(dag: Dag, max_paths_per_block: int = 4096) -> bool:
    """True if every parallel block's branches are vertex-disjoint chains.

    This is the structural precondition for the exact frontier-cut
    enumerator. Residual blocks, Inception modules, and MobileNet
    bottlenecks all satisfy it; an arbitrary DAG need not.
    """
    try:
        blocks = parallel_blocks(dag, max_paths_per_block=max_paths_per_block)
    except (PathExplosionError, ValueError):
        return False
    for block in blocks:
        seen: set[str] = set()
        for branch in block.branches:
            for v in branch:
                if v in seen:
                    return False
                seen.add(v)
            # each branch must be a chain inside the block
            for a, b in zip(branch, branch[1:]):
                if not dag.has_edge(a, b):
                    return False
        if seen != block.interior_nodes():
            return False
    return True
