"""Cut semantics and exact frontier-cut enumeration.

A *cut* of a DNN DAG is a downward-closed node set ``M`` (closed under
predecessors): layers in ``M`` run on the mobile device, the rest on the
cloud. The tensors that must be uploaded are the outputs of the nodes in
``M`` that feed at least one node outside ``M``.

Two details matter and are easy to get wrong:

* **A tensor is uploaded once, not once per edge.** A residual block's
  entry output feeds both the bypass edge and the branch, but cutting
  after the entry transfers that tensor a single time. Transfer volume is
  therefore summed over distinct *tail nodes* of the cut, not over cut
  edges.
* **Only downward-closed sets are valid.** Otherwise a mobile layer would
  need an input computed on the cloud, which the three-stage execution
  model (mobile compute → upload → cloud compute) cannot express.

For series-parallel DAGs — all models in :mod:`repro.nn.zoo` —
:func:`enumerate_frontier_cuts` enumerates the *complete* cut space:
every downward-closed set is "after separator ``s``" or "inside one
parallel block with a chosen position per branch". This exact enumerator
is the oracle against which the paper's per-path heuristic (Alg. 3) is
evaluated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from repro.dag.graph import Dag
from repro.dag.topology import ParallelBlock, parallel_blocks

__all__ = [
    "Cut",
    "is_downward_closed",
    "cut_edge_tails",
    "cut_transfer_bytes",
    "enumerate_frontier_cuts",
    "prune_dominated",
]

#: Rows per numpy pass of the block batch pricer (:func:`_block_cut_bytes`);
#: bounds its boolean matrices to a few MB however wide the block.
_BATCH_ROWS = 4096


@dataclass(frozen=True)
class Cut:
    """A partition of the DAG: ``mobile`` runs locally, the rest offloads.

    ``frontier`` are the distinct tail nodes whose output tensors cross
    the cut; ``transfer_bytes`` is the total upload volume (each tail
    counted once). ``label`` is a human-readable description used in
    traces and reports.
    """

    mobile: frozenset[str]
    frontier: tuple[str, ...]
    transfer_bytes: float
    label: str = ""

    def __post_init__(self) -> None:
        if not self.transfer_bytes >= 0:  # also rejects NaN
            raise ValueError(f"transfer_bytes must be >= 0, got {self.transfer_bytes!r}")


def is_downward_closed(dag: Dag, mobile: Iterable[str]) -> bool:
    """True if ``mobile`` is closed under predecessors in ``dag``."""
    mobile_set = frozenset(mobile)
    pred = dag._pred
    try:
        return all(mobile_set.issuperset(pred[v]) for v in mobile_set)
    except KeyError as exc:
        raise KeyError(f"unknown node {exc.args[0]!r}") from None


def cut_edge_tails(dag: Dag, mobile: Iterable[str]) -> list[str]:
    """Distinct tail nodes of edges crossing out of ``mobile`` (topo order).

    These are the layers whose output tensors must be serialized and
    uploaded. Order follows the DAG's deterministic topological order so
    that cut labels and trace output are stable.
    """
    mobile_set = frozenset(mobile)
    succ = dag._succ
    try:
        tails = [tail for tail in mobile_set if not mobile_set.issuperset(succ[tail])]
    except KeyError as exc:
        raise KeyError(f"unknown node {exc.args[0]!r}") from None
    tails.sort(key=dag._topological_position().__getitem__)
    return tails


def cut_transfer_bytes(dag: Dag, mobile: Iterable[str]) -> float:
    """Bytes uploaded for the cut ``mobile``; each tail tensor counted once.

    For a tail with several crossing edges the per-edge volumes describe
    the same tensor, so the maximum (they are equal for well-formed
    layer graphs) is charged a single time.
    """
    mobile_set = frozenset(mobile)
    return _tail_bytes(dag, mobile_set, cut_edge_tails(dag, mobile_set))


def make_cut(dag: Dag, mobile: Iterable[str], label: str = "") -> Cut:
    """Build a validated :class:`Cut` from a downward-closed node set."""
    mobile_set = frozenset(mobile)
    if not is_downward_closed(dag, mobile_set):
        raise ValueError(f"cut {label or sorted(mobile_set)[:4]} is not downward-closed")
    frontier = tuple(cut_edge_tails(dag, mobile_set))
    return Cut(
        mobile=mobile_set,
        frontier=frontier,
        transfer_bytes=_tail_bytes(dag, mobile_set, frontier),
        label=label or ("empty" if not mobile_set else f"after:{'+'.join(frontier)}"),
    )


def _tail_bytes(dag: Dag, mobile: frozenset[str], tails: Iterable[str]) -> float:
    """Price already-found crossing ``tails`` (in topological order).

    A left-to-right sum, from 0.0, of each tail's largest crossing
    volume: the reference the batch pricer below reproduces bit for bit.
    """
    succ, volumes = dag._succ, dag._volumes
    total = 0.0
    for tail in tails:
        total += max(volumes[tail, head] for head in succ[tail] if head not in mobile)
    return total


def _closure_up_to(dag: Dag, node: str) -> frozenset[str]:
    """``node`` and all its ancestors — the mobile set of "cut after node"."""
    return frozenset(dag.ancestors(node) | {node})


def _block_cut_sets(
    dag: Dag, block: ParallelBlock, base: frozenset[str]
) -> Iterator[frozenset[str]]:
    """All cuts threading through ``block``: one position per branch.

    Position ``p`` on a branch keeps its first ``p`` interior nodes on the
    mobile side. The all-zero combination duplicates "cut after entry"
    and is skipped (the caller already emitted it). Sets are yielded
    lazily, in :func:`itertools.product` order, so a caller's cap fires
    before a wide block is materialized.
    """
    ranges = [range(len(branch) + 1) for branch in block.branches]
    for combo in product(*ranges):
        if all(p == 0 for p in combo):
            continue
        mobile = set(base)
        for branch, position in zip(block.branches, combo):
            mobile.update(branch[:position])
        yield frozenset(mobile)


def _block_cut_bytes(dag: Dag, block: ParallelBlock, base: frozenset[str]) -> np.ndarray:
    """:func:`cut_transfer_bytes` of every :func:`_block_cut_sets` set, in order.

    Each cut is a boolean row over the nodes that can matter: ``base``
    OR one prefix mask per branch, rows in :func:`itertools.product`
    order with the all-zero row dropped. An edge crosses where
    ``row[tail] & ~row[head]``; each tail's largest crossing volume comes
    from ``np.maximum.reduceat`` over the edges grouped by tail in
    topological order (0.0 where none crosses, which adds nothing), and
    the bytes from a sequential ``np.cumsum`` from 0.0 — the scalar
    loop's summation order, so every value equals the scalar one bit for
    bit. ``np.sum`` would add pairwise and could differ in the last bit.
    Rows are priced ``_BATCH_ROWS`` at a time.
    """
    succ, volumes = dag._succ, dag._volumes
    reach = set(base).union(*block.branches)  # every node some row puts on mobile
    ordered = sorted(reach, key=dag._topological_position().__getitem__)
    # only edges out of a reachable tail into a node outside ``base`` can cross
    edges = [(t, h) for t in ordered for h in succ[t] if h not in base]
    column: dict[str, int] = {}
    for t, h in edges:
        column.setdefault(t, len(column))
        column.setdefault(h, len(column))
    tail_col = np.array([column[t] for t, _ in edges], dtype=np.intp)
    head_col = np.array([column[h] for _, h in edges], dtype=np.intp)
    edge_bytes = np.array([volumes[e] for e in edges], dtype=float)
    starts = np.flatnonzero(np.diff(tail_col, prepend=-1))

    base_row = np.zeros(len(column), dtype=bool)
    base_row[[c for v, c in column.items() if v in base]] = True
    prefixes = []
    for branch in block.branches:
        masks = np.zeros((len(branch) + 1, len(column)), dtype=bool)
        for p, v in enumerate(branch):
            masks[p + 1 :, column[v]] = True  # v's branch successor is never in base
        prefixes.append(masks)

    sizes = tuple(len(branch) + 1 for branch in block.branches)
    combos = prod(sizes)
    result = np.empty(combos - 1)
    for start in range(1, combos, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, combos)
        digits = np.unravel_index(np.arange(start, stop), sizes)
        rows = base_row | prefixes[0][digits[0]]
        for masks, position in zip(prefixes[1:], digits[1:]):
            rows |= masks[position]
        crossing = rows[:, tail_col] & ~rows[:, head_col]
        per_tail = np.zeros((stop - start, len(starts) + 1))
        np.maximum.reduceat(
            np.where(crossing, edge_bytes, 0.0), starts, axis=1, out=per_tail[:, 1:]
        )
        result[start - 1 : stop - 1] = np.cumsum(per_tail, axis=1)[:, -1]
    return result


def enumerate_frontier_cuts(
    dag: Dag, max_cuts: int = 100_000, include_empty: bool = False
) -> list[Cut]:
    """Every downward-closed cut of a series-parallel DAG.

    The enumeration walks separators in topological order, emitting the
    "after separator" cut for each, plus every per-branch-position
    combination inside each parallel block. Duplicate mobile sets are
    coalesced. Raises :class:`ValueError` once ``max_cuts`` distinct cuts
    have been produced — a guard against graphs that are not actually
    series-parallel.

    The cloud-only scheme is the cut *after the Input node* (zero
    compute, raw-input upload), which the separator walk already emits.
    ``include_empty`` additionally adds the literal empty set; it is
    non-physical for DNN jobs (the input tensor originates on the
    mobile device and its upload cannot be skipped) and exists only for
    structural tests.
    """
    seen: dict[frozenset[str], str] = {}

    def _record(mobile: frozenset[str], label: str) -> None:
        if mobile not in seen:
            if len(seen) >= max_cuts:
                raise ValueError(
                    f"{dag.name!r}: more than {max_cuts} frontier cuts; "
                    "graph is too branchy for exact enumeration"
                )
            seen[mobile] = label

    if include_empty:
        _record(frozenset(), "cloud-only")

    blocks = parallel_blocks(dag)
    for block in blocks:
        base = _closure_up_to(dag, block.entry)
        _record(base, f"after:{block.entry}")
        if not block.is_trivial:
            for mobile in _block_cut_sets(dag, block, base):
                _record(mobile, f"inside:{block.entry}->{block.exit}")
    # the final separator is the sink: cut after it = local-only
    order = dag.topological_order()
    _record(frozenset(order), f"after:{order[-1]}")

    return [make_cut(dag, mobile, label) for mobile, label in seen.items()]


def prune_dominated(
    cuts: Iterable[Cut], compute_cost: dict[frozenset[str], float]
) -> list[Cut]:
    """Drop cuts dominated in (compute time, transfer bytes).

    Cut ``A`` dominates ``B`` when ``f(A) <= f(B)`` and ``g(A) <= g(B)``
    with at least one strict inequality. The survivors form the Pareto
    frontier, which is all any makespan-minimizing scheme can ever pick
    from. ``compute_cost`` maps each cut's mobile set to its mobile
    computation time ``f``.
    """
    items = sorted(
        cuts, key=lambda c: (compute_cost[c.mobile], c.transfer_bytes, sorted(c.mobile))
    )
    survivors: list[Cut] = []
    best_bytes = float("inf")
    for cut in items:
        if cut.transfer_bytes < best_bytes:
            survivors.append(cut)
            best_bytes = cut.transfer_bytes
        # equal f ties: the sort already placed the smaller-g first, and a
        # later cut with equal f and equal g is a duplicate in cost space.
    return survivors
