"""Directed acyclic graph used to model DNN computation graphs (§3.1).

Each node represents a *layer* (partition granularity is layer-wise, not
neuron-wise) and carries an arbitrary payload — in practice an
:mod:`repro.nn.layers` instance. Each edge carries the *communication
volume* in bytes: the size of the tensor produced by the tail layer and
consumed by the head layer. Cutting an edge means that tensor must be
offloaded to the cloud.

The implementation is a small adjacency-list structure rather than a
``networkx`` graph: scheduling code iterates node neighborhoods inside
tight loops, and keeping the representation minimal (plain dicts and
lists with deterministic insertion order) makes both performance and
reproducibility easy to reason about. ``networkx`` is still used in the
test-suite as an independent oracle for graph invariants.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Dag", "Edge", "CycleError"]


class CycleError(ValueError):
    """Raised when an operation requires acyclicity and the graph has a cycle."""


@dataclass(frozen=True)
class Edge:
    """A directed edge ``tail -> head`` carrying ``volume`` bytes."""

    tail: str
    head: str
    volume: float = 0.0

    def __post_init__(self) -> None:
        if not self.volume >= 0:  # also rejects NaN
            raise ValueError(
                f"edge {self.tail!r} -> {self.head!r}: volume must be >= 0, "
                f"got {self.volume!r}"
            )


@dataclass
class Dag:
    """A DAG with string node ids, node payloads, and byte-weighted edges.

    Nodes and edges iterate in insertion order, which keeps every
    downstream algorithm (topological sort, path enumeration, schedule
    tie-breaking) deterministic for a given construction sequence.

    The topological order is computed once per graph version:
    :meth:`add_node` and :meth:`add_edge` drop the memoized order. The
    mobile node sets of :meth:`prefix_members` are memoized the same way
    (:meth:`set_payload` drops them too: a payload names its members).
    """

    name: str = "dag"
    _payloads: dict[str, Any] = field(default_factory=dict, repr=False)
    _succ: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _pred: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _volumes: dict[tuple[str, str], float] = field(default_factory=dict, repr=False)
    _order: list[str] | None = field(default=None, init=False, repr=False, compare=False)
    _position: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # (topological order, position -> mobile node set) for prefix_members
    _prefixes: tuple[tuple[str, ...], dict[int, frozenset[str]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, payload: Any = None) -> str:
        """Add a node; returns the id so builders can chain calls."""
        if not isinstance(node_id, str) or not node_id:
            raise TypeError(f"node id must be a non-empty string, got {node_id!r}")
        if node_id in self._payloads:
            raise ValueError(f"duplicate node id {node_id!r}")
        self._payloads[node_id] = payload
        self._succ[node_id] = []
        self._pred[node_id] = []
        self._order = self._position = self._prefixes = None
        return node_id

    def add_edge(self, tail: str, head: str, volume: float = 0.0) -> None:
        """Add edge ``tail -> head`` with ``volume`` bytes of traffic."""
        for endpoint in (tail, head):
            if endpoint not in self._payloads:
                raise KeyError(f"unknown node {endpoint!r}")
        if tail == head:
            raise CycleError(f"self-loop on {tail!r}")
        if (tail, head) in self._volumes:
            raise ValueError(f"duplicate edge {tail!r} -> {head!r}")
        if not volume >= 0:  # also rejects NaN
            raise ValueError(
                f"edge {tail!r} -> {head!r}: volume must be >= 0, got {volume!r}"
            )
        self._succ[tail].append(head)
        self._pred[head].append(tail)
        self._volumes[(tail, head)] = float(volume)
        self._order = self._position = self._prefixes = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> list[str]:
        """Node ids in insertion order."""
        return list(self._payloads)

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._payloads

    def payload(self, node_id: str) -> Any:
        """Return the payload attached to ``node_id``."""
        try:
            return self._payloads[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    def set_payload(self, node_id: str, payload: Any) -> None:
        """Replace the payload attached to an existing node."""
        if node_id not in self._payloads:
            raise KeyError(f"unknown node {node_id!r}")
        self._payloads[node_id] = payload
        self._prefixes = None

    def successors(self, node_id: str) -> list[str]:
        """Direct successors of ``node_id`` in edge-insertion order."""
        try:
            return list(self._succ[node_id])
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    def predecessors(self, node_id: str) -> list[str]:
        """Direct predecessors of ``node_id`` in edge-insertion order."""
        try:
            return list(self._pred[node_id])
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    def out_degree(self, node_id: str) -> int:
        return len(self._succ[node_id])

    def in_degree(self, node_id: str) -> int:
        return len(self._pred[node_id])

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges in insertion order."""
        for (tail, head), volume in self._volumes.items():
            yield Edge(tail, head, volume)

    def num_edges(self) -> int:
        return len(self._volumes)

    def has_edge(self, tail: str, head: str) -> bool:
        return (tail, head) in self._volumes

    def volume(self, tail: str, head: str) -> float:
        """Bytes transferred along edge ``tail -> head``."""
        try:
            return self._volumes[(tail, head)]
        except KeyError:
            raise KeyError(f"no edge {tail!r} -> {head!r}") from None

    def sources(self) -> list[str]:
        """Nodes with no predecessors (DNN inputs)."""
        return [v for v in self._payloads if not self._pred[v]]

    def sinks(self) -> list[str]:
        """Nodes with no successors (DNN outputs)."""
        return [v for v in self._payloads if not self._succ[v]]

    # ------------------------------------------------------------------
    # core algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; deterministic (insertion-order tie-break).

        Raises :class:`CycleError` if the graph contains a cycle, so any
        caller holding a topological order may assume acyclicity. The
        order is memoized until the next :meth:`add_node`/:meth:`add_edge`;
        each call returns a fresh list.
        """
        return list(self._topological_order())

    def _topological_order(self) -> list[str]:
        """The memoized order itself; shared, so callers must not mutate it."""
        if self._order is not None:
            return self._order
        in_deg = {v: len(self._pred[v]) for v in self._payloads}
        ready = [v for v in self._payloads if in_deg[v] == 0]
        order: list[str] = []
        cursor = 0
        while cursor < len(ready):
            v = ready[cursor]
            cursor += 1
            order.append(v)
            for w in self._succ[v]:
                in_deg[w] -= 1
                if in_deg[w] == 0:
                    ready.append(w)
        if len(order) != len(self._payloads):
            stuck = sorted(v for v, d in in_deg.items() if d > 0)
            raise CycleError(f"graph contains a cycle through {stuck[:5]}")
        self._order = order
        return order

    def _topological_position(self) -> dict[str, int]:
        """Node -> index in the memoized topological order."""
        if self._position is None:
            self._position = {v: i for i, v in enumerate(self._topological_order())}
        return self._position

    def prefix_members(self, positions: tuple[str, ...], position: int) -> frozenset[str]:
        """Original node ids of ``positions[: position + 1]``.

        A node whose payload is a virtual block stands for its members,
        so the set addresses the original network's layers: the mobile
        side of a cut after ``positions[position]`` on a clustered line.
        When ``positions`` is the topological order (a line's cut
        positions) each set is built once per graph version.
        """
        if self._prefixes is None:
            self._prefixes = (tuple(self._topological_order()), {})
        order, sets = self._prefixes
        if positions != order:
            return self._expand(positions[: position + 1])
        members = sets.get(position)
        if members is None:
            members = sets[position] = self._expand(order[: position + 1])
        return members

    def _expand(self, node_ids: Iterable[str]) -> frozenset[str]:
        from repro.dag.transform import expand_members  # deferred: transform imports graph

        return frozenset(m for v in node_ids for m in expand_members(self, v))

    def ancestors(self, node_id: str) -> set[str]:
        """All strict ancestors of ``node_id`` (nodes with a path to it)."""
        if node_id not in self._payloads:
            raise KeyError(f"unknown node {node_id!r}")
        seen: set[str] = set()
        stack = list(self._pred[node_id])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self._pred[v])
        return seen

    def descendants(self, node_id: str) -> set[str]:
        """All strict descendants of ``node_id``."""
        if node_id not in self._payloads:
            raise KeyError(f"unknown node {node_id!r}")
        seen: set[str] = set()
        stack = list(self._succ[node_id])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self._succ[v])
        return seen

    def is_line(self) -> bool:
        """True if the DAG is a simple chain (every degree <= 1)."""
        if not self._payloads:
            return False
        return all(
            len(self._succ[v]) <= 1 and len(self._pred[v]) <= 1 for v in self._payloads
        ) and len(self._volumes) == len(self._payloads) - 1

    def line_order(self) -> list[str]:
        """Node order of a line-structure DAG; raises if not a line."""
        if not self.is_line():
            raise ValueError(f"{self.name!r} is not a line-structure DAG")
        return self.topological_order()

    def cut_volume(self, mobile_nodes: Iterable[str]) -> float:
        """Total bytes crossing from ``mobile_nodes`` to the rest.

        ``mobile_nodes`` must be closed under predecessors (a *downward
        closed* set) for the value to correspond to a valid partition;
        this method does not enforce closure — see
        :func:`repro.dag.cuts.is_downward_closed`.
        """
        mobile = set(mobile_nodes)
        unknown = mobile - set(self._payloads)
        if unknown:
            raise KeyError(f"unknown nodes in cut: {sorted(unknown)[:5]}")
        return sum(
            volume
            for (tail, head), volume in self._volumes.items()
            if tail in mobile and head not in mobile
        )

    def copy(self, name: str | None = None) -> "Dag":
        """Structural copy sharing payload objects."""
        clone = Dag(name=name or self.name)
        for node_id, payload in self._payloads.items():
            clone.add_node(node_id, payload)
        for (tail, head), volume in self._volumes.items():
            clone.add_edge(tail, head, volume)
        return clone

    def validate(self) -> None:
        """Check structural invariants; raises on violation.

        * acyclic (via :meth:`topological_order`)
        * at least one source and one sink
        * adjacency lists and volume map are mutually consistent
        """
        self.topological_order()
        if not self.sources():
            raise ValueError(f"{self.name!r} has no source node")
        if not self.sinks():
            raise ValueError(f"{self.name!r} has no sink node")
        for (tail, head) in self._volumes:
            if head not in self._succ[tail] or tail not in self._pred[head]:
                raise ValueError(f"inconsistent adjacency for edge {tail!r}->{head!r}")
        edge_count = sum(len(s) for s in self._succ.values())
        if edge_count != len(self._volumes):
            raise ValueError("adjacency lists and volume map disagree on edge count")
