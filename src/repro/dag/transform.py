"""Graph transformations from §3.2 and §5.3 of the paper.

* **Virtual-block clustering** (§3.2): layers after which the offloading
  volume does not shrink are merged with their successors, so the
  communication function ``g`` of the clustered line DAG is strictly
  decreasing — the monotonicity every theorem in §5 relies on. This is
  how the paper turns MobileNet-v2 (bottleneck residual modules, Fig. 10)
  and ResNet into line-structure DAGs.
* **Fig.-9 node-duplication conversion**: a general DAG becomes a set of
  *independent paths* by duplicating every node with in/out degree > 1.
  Alg. 3 then partitions each path like a line-structure DNN, and the
  modified scheduler counts duplicated layers only once at execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dag.cuts import _block_cut_bytes, _closure_up_to, cut_transfer_bytes
from repro.dag.graph import Dag
from repro.dag.topology import (
    ParallelBlock,
    PathExplosionError,
    count_paths,
    enumerate_paths,
    parallel_blocks,
)

__all__ = [
    "VirtualBlock",
    "cluster_line_cut_points",
    "should_cluster_block",
    "collapse_clusterable_blocks",
    "linearize",
    "IndependentPaths",
    "to_independent_paths",
]


@dataclass(frozen=True)
class VirtualBlock:
    """Payload of a clustered node: the original members in topo order."""

    members: tuple[str, ...]
    payloads: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a virtual block must contain at least one member")
        if len(self.members) != len(self.payloads):
            raise ValueError("members and payloads length mismatch")


def expand_members(dag: Dag, node_id: str) -> tuple[str, ...]:
    """Original node ids behind ``node_id`` (itself, unless a VirtualBlock)."""
    payload = dag.payload(node_id)
    if isinstance(payload, VirtualBlock):
        return payload.members
    return (node_id,)


def cluster_line_cut_points(volumes: list[float]) -> list[int]:
    """Indices after which cutting a line DAG can be optimal.

    ``volumes[i]`` is the upload volume when cutting after layer ``i``
    (0-based). A position survives iff its volume is a strict running
    minimum: cutting later *and* uploading at least as much is dominated
    (more mobile compute, no communication savings — exactly the paper's
    virtual-block argument). The final position always survives: it is
    the unique cut with the full network on the mobile side.
    """
    if not volumes:
        return []
    keep: list[int] = []
    best = float("inf")
    for i, volume in enumerate(volumes):
        if volume < 0:
            raise ValueError(f"volumes must be >= 0, got {volume!r} at index {i}")
        if volume < best:
            keep.append(i)
            best = volume
    last = len(volumes) - 1
    if not keep or keep[-1] != last:
        keep.append(last)
    return keep


def _cluster_line(dag: Dag) -> Dag:
    """Merge line-DAG layers so edge volumes are strictly decreasing."""
    order = dag.line_order()
    volumes = [
        dag.volume(a, b) for a, b in zip(order, order[1:])
    ] + [0.0]  # cutting after the last layer uploads (negligible) results
    keep = cluster_line_cut_points(volumes)

    clustered = Dag(name=f"{dag.name}/clustered")
    start = 0
    block_ids: list[str] = []
    for boundary in keep:
        members: list[str] = []
        payloads: list[Any] = []
        for m in order[start : boundary + 1]:
            payload = dag.payload(m)
            if isinstance(payload, VirtualBlock):  # flatten nested blocks
                members.extend(payload.members)
                payloads.extend(payload.payloads)
            else:
                members.append(m)
                payloads.append(payload)
        block_id = members[-1] if len(members) == 1 else f"block:{members[0]}..{members[-1]}"
        clustered.add_node(
            block_id, VirtualBlock(members=tuple(members), payloads=tuple(payloads))
        )
        block_ids.append(block_id)
        start = boundary + 1
    for (a, b), boundary in zip(zip(block_ids, block_ids[1:]), keep):
        clustered.add_edge(a, b, volumes[boundary])
    return clustered


def should_cluster_block(dag: Dag, block: ParallelBlock) -> bool:
    """True if every cut inside ``block`` is dominated by the entry cut.

    Any interior cut computes strictly more than "cut after entry" on the
    mobile device, so it is dominated as soon as it also uploads at least
    as many bytes. We therefore cluster iff the *minimum* interior
    transfer volume is >= the entry cut's volume. This reproduces the
    paper's case analysis: MobileNet-v2 bottleneck modules (whose bypass
    edge forces every interior cut to re-upload the entry tensor) are
    clustered; deep GoogLeNet Inception modules (whose 1x1 reductions
    shrink branch tensors below the entry volume) are not.
    """
    if block.is_trivial:
        return False
    base = _closure_up_to(dag, block.entry)
    entry_bytes = cut_transfer_bytes(dag, base)
    # the all-full combination is "cut before exit", which has *less*
    # mobile compute than any cut containing exit and is a genuine
    # alternative, but it is still interior to the block for our purpose.
    return bool(_block_cut_bytes(dag, block, base).min() >= entry_bytes)


def collapse_clusterable_blocks(dag: Dag) -> Dag:
    """Rebuild ``dag`` with every clusterable parallel block as one node.

    Non-clusterable blocks (e.g. deep Inception modules) are kept intact,
    so the result may still be a general DAG. Apply :func:`linearize` to
    force a line structure regardless.
    """
    return _collapse(dag, predicate=should_cluster_block, name_suffix="clustered")


def linearize(dag: Dag) -> Dag:
    """Collapse *every* non-trivial parallel block, yielding a line DAG.

    Used by the baselines that can only handle line structures, and as
    the paper's treatment of ResNet/MobileNet. Information is lost when a
    block that should not be clustered is collapsed — that is precisely
    the gap Alg. 3 and the frontier enumerator recover.
    """
    collapsed = _collapse(dag, predicate=lambda _d, b: not b.is_trivial, name_suffix="line")
    line = _cluster_line(_flatten_blocks(collapsed))
    return line


def _collapse(dag: Dag, predicate, name_suffix: str) -> Dag:
    blocks = parallel_blocks(dag)
    result = Dag(name=f"{dag.name}/{name_suffix}")
    order = dag.topological_order()

    # Decide, per block, whether it collapses; build the new node list.
    collapsing = [b for b in blocks if not b.is_trivial and predicate(dag, b)]
    absorbed: dict[str, ParallelBlock] = {}
    for b in collapsing:
        for v in b.interior_nodes() | {b.exit}:
            absorbed[v] = b

    new_id_of: dict[str, str] = {}
    for v in order:
        if v in absorbed:
            block = absorbed[v]
            if v != block.exit:
                continue  # interior nodes appear inside the exit's virtual block
            members = tuple(
                m for m in order if m in block.interior_nodes() or m == block.exit
            )
            payloads = tuple(dag.payload(m) for m in members)
            node_id = f"block:{block.entry}->{block.exit}"
            result.add_node(node_id, VirtualBlock(members=members, payloads=payloads))
            new_id_of[v] = node_id
            for m in members:
                new_id_of[m] = node_id
        else:
            result.add_node(v, dag.payload(v))
            new_id_of[v] = v

    added: set[tuple[str, str]] = set()
    for edge in dag.edges():
        a, b = new_id_of[edge.tail], new_id_of[edge.head]
        if a == b or (a, b) in added:
            continue
        added.add((a, b))
        result.add_edge(a, b, edge.volume)
    return result


def _flatten_blocks(dag: Dag) -> Dag:
    """Re-expose a collapsed chain as a plain line DAG (payloads preserved)."""
    if dag.is_line():
        return dag
    # After collapsing every non-trivial block the graph must be a line;
    # anything else means the input was not series-parallel.
    raise ValueError(
        f"{dag.name!r} did not linearize; the graph is not series-parallel"
    )


@dataclass(frozen=True)
class IndependentPaths:
    """Result of the Fig.-9 conversion.

    ``paths`` hold *original* node ids (duplicates share ids across
    paths, which is what lets the scheduler count each layer once), and
    ``duplicated`` is the converted DAG whose nodes are
    ``(path_index, original_id)`` pairs — kept mostly for inspection and
    for validating the conversion against the paper's figure.
    """

    source_name: str
    paths: tuple[tuple[str, ...], ...]
    duplicated: Dag

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def multiplicity(self, node_id: str) -> int:
        """How many paths contain ``node_id`` (its duplication count)."""
        return sum(node_id in path for path in self.paths)


def to_independent_paths(dag: Dag, max_paths: int = 4096) -> IndependentPaths:
    """Fig.-9 conversion: duplicate shared nodes until paths are disjoint.

    Duplicating every out-degree>1 / in-degree>1 node in topological
    order, as the paper describes, terminates with one connected
    component per source→sink path of the original DAG; we construct that
    fixed point directly from the path set. Raises
    :class:`PathExplosionError` when the path count exceeds ``max_paths``
    (full GoogLeNet: use block-local decomposition instead, see
    :mod:`repro.core.general`).
    """
    total = count_paths(dag)
    if total > max_paths:
        raise PathExplosionError(
            f"{dag.name!r} expands to {total} independent paths (cap {max_paths})"
        )
    paths = enumerate_paths(dag, max_paths=max_paths)
    duplicated = Dag(name=f"{dag.name}/paths")
    for index, path in enumerate(paths):
        for node in path:
            duplicated.add_node(f"p{index}:{node}", dag.payload(node))
        for tail, head in zip(path, path[1:]):
            duplicated.add_edge(
                f"p{index}:{tail}", f"p{index}:{head}", dag.volume(tail, head)
            )
    return IndependentPaths(
        source_name=dag.name,
        paths=tuple(tuple(p) for p in paths),
        duplicated=duplicated,
    )
