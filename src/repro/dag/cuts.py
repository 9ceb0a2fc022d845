"""Cut semantics and the exact cut-space enumerators.

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

Every cut of a one-source, one-sink DAG is "after separator ``s``" or
"inside the parallel block after ``s``, with one prefix per entry → exit
path" (the paths hold every interior node, and a downward-closed set
meets each path in a prefix). :func:`frontier_pareto_cuts` prices those
candidates in batch and keeps the Pareto set; it is the one cut-space
builder for frontier and DAG plans. On series-parallel DAGs — all zoo
models but inception-v4 — the paths are disjoint chains and every
candidate is a distinct cut, which :func:`enumerate_frontier_cuts`
lists one by one as the reference. :func:`enumerate_closed_sets` is the
closure BFS for the graphs the builder cannot take.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import product
from math import isfinite, prod

import numpy as np

from repro.dag.graph import Dag
from repro.dag.topology import ParallelBlock, parallel_blocks, separators

__all__ = [
    "Cut",
    "is_downward_closed",
    "cut_edge_tails",
    "cut_transfer_bytes",
    "enumerate_closed_sets",
    "enumerate_frontier_cuts",
    "frontier_pareto_cuts",
    "prune_dominated",
]

#: Rows per numpy pass of the block batch pricer (:func:`_block_cut_bytes`);
#: bounds its boolean matrices to a few MB however wide the block.
_BATCH_ROWS = 4096

#: Distinct cuts past which enumeration gives up: a guard against graphs
#: too branchy to enumerate.
_MAX_FRONTIER_CUTS = 100_000

#: Entry → exit paths per block past which :func:`parallel_blocks` gives up.
_MAX_BLOCK_PATHS = 4096


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


def _combo_set(base: frozenset[str], block: ParallelBlock, combo) -> frozenset[str]:
    """The mobile set of one branch-position ``combo`` of ``block``.

    Position ``p`` on a branch keeps its first ``p`` interior nodes on
    the mobile side. The set is built by the same operations whoever
    asks, so its iteration order (and every float summed over it) is
    the same for the enumeration and the batch builder.
    """
    mobile = set(base)
    for branch, position in zip(block.branches, combo):
        mobile.update(branch[: int(position)])
    return frozenset(mobile)


def _block_cut_sets(
    dag: Dag, block: ParallelBlock, base: frozenset[str]
) -> Iterator[frozenset[str]]:
    """All cuts threading through ``block``: one position per branch.

    The all-zero combination duplicates "cut after entry" and is skipped
    (the caller already emitted it). Sets are yielded lazily, in
    :func:`itertools.product` order, so a caller's cap fires before a
    wide block is materialized.
    """
    ranges = [range(len(branch) + 1) for branch in block.branches]
    for combo in product(*ranges):
        if all(p == 0 for p in combo):
            continue
        yield _combo_set(base, block, combo)


class _BlockRows:
    """Every cut of one parallel block as a boolean row over the nodes that matter.

    Row ``i`` is ``base`` OR one prefix mask per branch, the branch
    positions being ``np.unravel_index(i, sizes)`` — :func:`itertools.product`
    order, so row 0 is ``base`` itself and row ``i >= 1`` is the
    ``i``-th :func:`_block_cut_sets` set. Columns cover ``base``, the
    block's interior and every head of an edge that can cross; ``base``
    nodes feeding only ``base`` are left out, being on the mobile side
    in every row.
    """

    def __init__(self, dag: Dag, block: ParallelBlock, base: frozenset[str]) -> None:
        succ, volumes = dag._succ, dag._volumes
        reach = set(base).union(*block.branches)  # every node some row puts on mobile
        ordered = sorted(reach, key=dag._topological_position().__getitem__)
        # only edges out of a reachable tail into a node outside ``base`` can cross
        edges = [(t, h) for t in ordered for h in succ[t] if h not in base]
        column: dict[str, int] = {}
        for t, h in edges:
            column.setdefault(t, len(column))
            column.setdefault(h, len(column))
        self.column = column
        self.tail_col = np.array([column[t] for t, _ in edges], dtype=np.intp)
        self.head_col = np.array([column[h] for _, h in edges], dtype=np.intp)
        self.edge_bytes = np.array([volumes[e] for e in edges], dtype=float)
        self.starts = np.flatnonzero(np.diff(self.tail_col, prepend=-1))

        self.base_row = np.zeros(len(column), dtype=bool)
        self.base_row[[c for v, c in column.items() if v in base]] = True
        self.prefixes = []
        for branch in block.branches:
            masks = np.zeros((len(branch) + 1, len(column)), dtype=bool)
            for p, v in enumerate(branch):
                masks[p + 1 :, column[v]] = True  # v's branch successor is never in base
            self.prefixes.append(masks)
        self.sizes = tuple(len(branch) + 1 for branch in block.branches)
        self.count = _block_rows(block)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start..stop-1`` as one boolean matrix."""
        digits = np.unravel_index(np.arange(start, stop), self.sizes)
        rows = self.base_row | self.prefixes[0][digits[0]]
        for masks, position in zip(self.prefixes[1:], digits[1:]):
            rows |= masks[position]
        return rows

    def transfer_bytes(self, rows: np.ndarray) -> np.ndarray:
        """:func:`cut_transfer_bytes` of each row, bit for bit.

        An edge crosses where ``row[tail] & ~row[head]``; each tail's
        largest crossing volume comes from ``np.maximum.reduceat`` over
        the edges grouped by tail in topological order (0.0 where none
        crosses, which adds nothing), and the bytes from a sequential
        ``np.cumsum`` from 0.0 — the scalar loop's summation order.
        ``np.sum`` would add pairwise and could differ in the last bit.
        """
        crossing = rows[:, self.tail_col] & ~rows[:, self.head_col]
        per_tail = np.zeros((len(rows), len(self.starts) + 1))
        np.maximum.reduceat(
            np.where(crossing, self.edge_bytes, 0.0), self.starts, axis=1, out=per_tail[:, 1:]
        )
        return np.cumsum(per_tail, axis=1)[:, -1]

    def closed(self, rows: np.ndarray) -> np.ndarray:
        """True for each row that holds every predecessor of its nodes.

        A predecessor of an interior node is in ``base`` or on a branch
        (every path into the block passes its entry), so the edges that
        can cross also cover every edge a row could break.
        """
        return ~(rows[:, self.head_col] & ~rows[:, self.tail_col]).any(axis=1)


def _block_rows(block: ParallelBlock) -> int:
    """Rows of :class:`_BlockRows` for ``block``, from its branch lengths alone."""
    return prod(len(branch) + 1 for branch in block.branches)


def _block_cut_bytes(dag: Dag, block: ParallelBlock, base: frozenset[str]) -> np.ndarray:
    """:func:`cut_transfer_bytes` of every :func:`_block_cut_sets` set, in order.

    Rows 1.. of :class:`_BlockRows`, priced ``_BATCH_ROWS`` at a time.
    """
    batch = _BlockRows(dag, block, base)
    result = np.empty(batch.count - 1)
    for start in range(1, batch.count, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, batch.count)
        result[start - 1 : stop - 1] = batch.transfer_bytes(batch.rows(start, stop))
    return result


def enumerate_frontier_cuts(
    dag: Dag, max_cuts: int = _MAX_FRONTIER_CUTS, include_empty: bool = False
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
                _too_many_cuts(dag, max_cuts)
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


def frontier_pareto_cuts(dag: Dag, node_time: Callable[[str], float]) -> list[Cut]:
    """The Pareto cuts of a one-source, one-sink DAG, priced in batch.

    Each separator block's candidates are :class:`_BlockRows` rows, the
    entry's closure plus one prefix per entry → exit path, ``_BATCH_ROWS``
    at a time: bytes priced exactly, compute as ``rows @ times``, the
    ``_MAX_FRONTIER_CUTS`` cap checked on the rows. Where a block's paths
    overlap (off series-parallel graphs), a row can miss a predecessor
    and two rows can name one set: rows that are not downward-closed are
    dropped and the first of equal rows in product order counts, so the
    candidates are exactly the graph's cuts. On a series-parallel graph
    this returns ``prune_dominated(enumerate_frontier_cuts(dag),
    compute)`` with ``compute[c.mobile] = sum(node_time(v) for v in
    c.mobile)``: the same cuts and labels, each mobile set iterating in
    the same order, and the same errors.

    The matrix product adds in another order than the set sum, so a
    candidate is ruled out only when another moves no more bytes and
    computes less by more than ``_dominance_gap`` — then its exact sum
    is strictly larger too, and :func:`prune_dominated` would drop it.
    Only the remaining candidates become :class:`Cut` objects, through
    :func:`make_cut` and the enumeration's own set construction, and
    :func:`prune_dominated` decides among them on the exact sums.
    """
    max_cuts = _MAX_FRONTIER_CUTS
    times = {v: node_time(v) for v in dag.node_ids}
    blocks = parallel_blocks(dag, _MAX_BLOCK_PATHS)
    order = dag.topological_order()
    sources: list[tuple[ParallelBlock, frozenset[str], tuple[int, ...]]] = []
    owners, combos, f_parts, byte_parts = [], [], [], []
    total = len(blocks) + 1  # every "after" cut, the all-local one included
    if total > max_cuts:
        _too_many_cuts(dag, max_cuts)
    for index, block in enumerate(blocks):
        base = _closure_up_to(dag, block.entry)
        base_time = sum(times[v] for v in base)
        owners.append(np.array([index]))
        combos.append(np.array([0]))
        f_parts.append(np.array([base_time]))
        byte_parts.append(np.array([cut_transfer_bytes(dag, base)]))
        if block.is_trivial:
            sources.append((block, base, (1,)))
            continue
        batch = _BlockRows(dag, block, base)
        sources.append((block, base, batch.sizes))
        interior = block.interior_nodes()
        overlapping = len(interior) < sum(map(len, block.branches))
        if not overlapping:
            total += batch.count - 1
        if total > max_cuts:
            _too_many_cuts(dag, max_cuts)
        interior_times = np.zeros(len(batch.column))
        for v in interior:
            interior_times[batch.column[v]] = times[v]
        seen: set[bytes] = set()
        for start in range(1, batch.count, _BATCH_ROWS):
            rows = batch.rows(start, min(start + _BATCH_ROWS, batch.count))
            kept = np.arange(len(rows))
            if overlapping:
                kept = np.flatnonzero(batch.closed(rows))
                kept = kept[_first_rows(rows[kept], seen)]
                rows = rows[kept]
                total += len(kept)
                if total > max_cuts:
                    _too_many_cuts(dag, max_cuts)
            owners.append(np.full(len(rows), index))
            combos.append(start + kept)
            f_parts.append(base_time + rows @ interior_times)
            byte_parts.append(batch.transfer_bytes(rows))
    owners.append(np.array([-1]))
    combos.append(np.array([0]))
    f_parts.append(np.array([sum(times.values())]))
    byte_parts.append(np.zeros(1))

    f = np.concatenate(f_parts)
    nbytes = np.concatenate(byte_parts)
    owner = np.concatenate(owners)
    combo = np.concatenate(combos)
    gap = _dominance_gap(times.values())
    survivors = np.arange(len(f))
    if isfinite(gap):
        by_f = np.argsort(f, kind="stable")
        fewest_bytes = np.minimum.accumulate(nbytes[by_f])
        below = np.searchsorted(f[by_f], f - gap, side="left")
        dominated = (below > 0) & (fewest_bytes[below - 1] <= nbytes)
        survivors = survivors[~dominated]

    cuts = [
        make_cut(dag, frozenset(order), f"after:{order[-1]}")
        if owner[i] < 0
        else _candidate(dag, sources, owner[i], combo[i])
        for i in survivors.tolist()
    ]
    compute = {cut.mobile: sum(times[v] for v in cut.mobile) for cut in cuts}
    return prune_dominated(cuts, compute)


def _fits_block_rows(dag: Dag) -> bool:
    """Whether :func:`frontier_pareto_cuts` takes ``dag``, judged from its shape.

    It needs one source and one sink, at most ``_MAX_BLOCK_PATHS``
    entry → exit paths in every block (a separator's incoming paths are
    the previous separator's times the block's) and at most
    ``_MAX_FRONTIER_CUTS`` rows in all, before any row is built.
    """
    if len(dag.sources()) != 1 or len(dag.sinks()) != 1:
        return False
    order = dag.topological_order()
    paths = dict.fromkeys(order, 0)
    paths[order[0]] = 1
    for v in order:
        for w in dag.successors(v):
            paths[w] += paths[v]
    joints = separators(dag)
    if any(paths[b] > _MAX_BLOCK_PATHS * paths[a] for a, b in zip(joints, joints[1:])):
        return False
    rows = sum(_block_rows(block) for block in parallel_blocks(dag, _MAX_BLOCK_PATHS))
    return rows + 1 <= _MAX_FRONTIER_CUTS


def enumerate_closed_sets(dag: Dag) -> list[frozenset[str]]:
    """Every downward-closed set holding all sources, by BFS over their lattice.

    Each state grows by one *eligible* node (all predecessors already
    inside), so every such set is reached. The cut space of the graphs
    :func:`frontier_pareto_cuts` cannot take: several sources or sinks,
    a block with too many paths, too many rows. Raises
    :class:`ValueError` past ``_MAX_FRONTIER_CUTS`` sets.
    """
    max_cuts = _MAX_FRONTIER_CUTS
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
            if len(seen) >= max_cuts:
                _too_many_cuts(dag, max_cuts)
            seen[grown] = None
            queue.append(grown)
    return queue


def _candidate(
    dag: Dag,
    sources: list[tuple[ParallelBlock, frozenset[str], tuple[int, ...]]],
    index: int,
    combo: int,
) -> Cut:
    """:func:`make_cut` of row ``combo`` of block ``index``, as the enumeration builds it."""
    block, base, sizes = sources[index]
    if combo == 0:
        return make_cut(dag, base, f"after:{block.entry}")
    mobile = _combo_set(base, block, np.unravel_index(combo, sizes))
    return make_cut(dag, mobile, f"inside:{block.entry}->{block.exit}")


def _first_rows(rows: np.ndarray, seen: set[bytes]) -> np.ndarray:
    """Indices of the rows not in ``seen`` (nor earlier in ``rows``); adds them."""
    kept = []
    for i, key in enumerate(np.packbits(rows, axis=1)):
        key = key.tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(i)
    return np.array(kept, dtype=np.intp)


def _too_many_cuts(dag: Dag, max_cuts: int) -> None:
    raise ValueError(
        f"{dag.name!r}: more than {max_cuts} frontier cuts; "
        "graph is too branchy for exact enumeration"
    )


def _dominance_gap(times: Iterable[float]) -> float:
    """A compute difference that no summation order can reverse.

    Any order of summing at most ``n`` of the node times lands within
    ``(n - 1) * u * sum(|t|)`` of the real sum (``u`` the unit roundoff,
    ``eps / 2``), so a batch sum and a set sum of one cut differ by less
    than ``2 * n * u * sum(|t|)``. Two cuts whose batch sums differ by
    more than twice that keep their order in exact sums; the gap is
    twice that again, which also covers rounding in the comparison.
    NaN or infinite times give a non-finite gap, and nothing is ruled out.
    """
    values = list(times)
    return 4.0 * (len(values) + 2) * float(np.finfo(float).eps) * sum(map(abs, values))


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
