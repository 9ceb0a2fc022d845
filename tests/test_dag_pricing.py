"""The batch cut pricers against the scalar cut pricing they replace.

``should_cluster_block`` prices every interior cut of a parallel block
through ``repro.dag.cuts._block_cut_bytes``; ``cut_transfer_bytes`` on
the matching ``_block_cut_sets`` set is the reference, compared to the
bit with ``float.hex``. The engine's frontier cut space comes from
``frontier_pareto_cuts``; ``prune_dominated`` over
``enumerate_frontier_cuts`` is its reference, compared cut for cut, in
each mobile set's iteration order and in every ``cut_columns`` bit.
"""

import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.cuts import (
    _MAX_FRONTIER_CUTS,
    _block_cut_bytes,
    _block_cut_sets,
    cut_transfer_bytes,
    enumerate_frontier_cuts,
    frontier_pareto_cuts,
    make_cut,
    prune_dominated,
)
from repro.dag.graph import Dag
from repro.dag.partition import cut_columns
from repro.dag.topology import is_series_parallel, parallel_blocks
from repro.dag.transform import should_cluster_block
from repro.nn.zoo import MODELS, get_model
from repro.profiling.device import gtx1080_server, raspberry_pi_4
from repro.profiling.latency import node_mobile_time
from tests.oracles.harness import oracle_pareto_front

#: Blocks with more interior cuts than this are checked on every
#: ``STRIDE``-th cut only (three inception-v4 blocks have ~24k each).
FULL_CHECK_LIMIT = 20_000
STRIDE = 7

#: ``should_cluster_block`` per non-trivial block, in topological order:
#: ``C`` clusters the block, ``K`` keeps it. Models absent here have no
#: non-trivial block.
CLUSTERING = {
    "squeezenet": "CCCCCCCC",
    "multitask-perception": "K",
    "mobilenet-v2": "CCCCCCCCCC",
    "resnet18": "CCCCCCCC",
    "googlenet": "CCKKKKCKK",
    "inception-v4": "KKKKKKKKKKKKKKKKKKK",
    "mini-inception": "CK",
    "branchy-dnn": "CC",
}


def _interior(dag: Dag):
    for block in parallel_blocks(dag):
        if not block.is_trivial:
            yield block, frozenset(dag.ancestors(block.entry) | {block.entry})


def _assert_batch_matches_scalar(dag: Dag, block, base) -> None:
    batch = _block_cut_bytes(dag, block, base)
    stride = STRIDE if len(batch) > FULL_CHECK_LIMIT else 1
    positions = range(0, len(batch), stride)
    sets = list(islice(_block_cut_sets(dag, block, base), 0, None, stride))
    assert len(sets) == len(positions)
    for index, mobile in zip(positions, sets):
        expected = cut_transfer_bytes(dag, mobile)
        assert float(batch[index]).hex() == expected.hex(), (dag.name, block.entry, index)


@pytest.fixture(scope="module")
def zoo_graphs() -> dict[str, Dag]:
    return {name: get_model(name).graph for name in MODELS}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_bytes_equal_scalar_bytes_on_every_zoo_block(zoo_graphs, name):
    dag = zoo_graphs[name]
    for block, base in _interior(dag):
        _assert_batch_matches_scalar(dag, block, base)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_clustering_decisions_are_pinned(zoo_graphs, name):
    dag = zoo_graphs[name]
    decisions = "".join(
        "C" if should_cluster_block(dag, block) else "K" for block, _ in _interior(dag)
    )
    assert decisions == CLUSTERING.get(name, "")


def test_zero_volume_tail_stays_on_the_frontier(zoo_graphs):
    """multitask-perception's ``det.flatten`` ships 0 bytes but still crosses."""
    dag = zoo_graphs["multitask-perception"]
    [(block, base)] = _interior(dag)
    seen = False
    for mobile in _block_cut_sets(dag, block, base):
        if "det.flatten" in mobile and any(
            head not in mobile for head in dag.successors("det.flatten")
        ):
            assert "det.flatten" in make_cut(dag, mobile).frontier
            seen = True
    assert seen
    _assert_batch_matches_scalar(dag, block, base)


def test_signed_zero_volumes_price_like_the_scalar_loop():
    """The scalar sum starts at 0.0, so -0.0 volumes still price +0.0."""
    dag = Dag(name="signed-zero")
    for v in ("in", "b", "out"):
        dag.add_node(v)
    dag.add_edge("in", "b", -0.0)
    dag.add_edge("in", "out", -0.0)
    dag.add_edge("b", "out", -0.0)
    [(block, base)] = _interior(dag)
    assert cut_transfer_bytes(dag, {"in", "b"}).hex() == "0x0.0p+0"
    _assert_batch_matches_scalar(dag, block, base)


# ----------------------------------------------------------------------
# random series-parallel graphs
# ----------------------------------------------------------------------
volumes = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(0, 4).map(float),
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
)


@st.composite
def series_parallel(draw) -> Dag:
    """A chain of blocks; each block has 1-4 branches of 1-4 nodes.

    A block may also get one empty branch: the direct entry -> exit
    edge of a residual block. Volumes mix signed zeros, small integers
    and arbitrary floats, so the summation order is visible in the bits.
    """
    dag = Dag(name="sp")
    entry = dag.add_node("n0")
    for b in range(draw(st.integers(1, 3))):
        exit_ = dag.add_node(f"x{b}")
        lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        if draw(st.booleans()):
            lengths.insert(draw(st.integers(0, len(lengths))), 0)
        for r, length in enumerate(lengths):
            chain = [dag.add_node(f"b{b}.{r}.{i}") for i in range(length)]
            for tail, head in zip([entry, *chain], [*chain, exit_]):
                dag.add_edge(tail, head, draw(volumes))
        entry = exit_
    return dag


@settings(max_examples=200, deadline=None)
@given(series_parallel())
def test_batch_bytes_equal_scalar_bytes_on_random_series_parallel_graphs(dag):
    for block, base in _interior(dag):
        _assert_batch_matches_scalar(dag, block, base)
        for mobile in _block_cut_sets(dag, block, base):
            # tails come from the crossing edges, whatever bytes they carry
            crossing = {
                tail
                for tail in mobile
                if any(head not in mobile for head in dag.successors(tail))
            }
            cut = make_cut(dag, mobile)
            assert set(cut.frontier) == crossing
            assert len(cut.frontier) == len(crossing)


# ----------------------------------------------------------------------
# the batched frontier builder == prune_dominated(enumerate_frontier_cuts)
# ----------------------------------------------------------------------
def _reference_frontier(dag: Dag, node_time, max_cuts: int = _MAX_FRONTIER_CUTS):
    candidates = enumerate_frontier_cuts(dag, max_cuts=max_cuts)
    compute = {c.mobile: sum(node_time(v) for v in c.mobile) for c in candidates}
    return prune_dominated(candidates, compute)


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


def _assert_same_frontier(dag: Dag, node_time, cloud_time=None) -> list:
    reference = _reference_frontier(dag, node_time)
    batched = frontier_pareto_cuts(dag, node_time)
    assert batched == reference  # mobile sets, frontiers, bytes and labels
    assert [list(c.mobile) for c in batched] == [list(c.mobile) for c in reference]
    assert _hex(c.transfer_bytes for c in batched) == _hex(
        c.transfer_bytes for c in reference
    )
    ours = cut_columns(dag, batched, node_time, cloud_time)
    theirs = cut_columns(dag, reference, node_time, cloud_time)
    for column, expected in zip(ours, theirs):
        assert _hex(column) == _hex(expected)
    return batched


@pytest.mark.parametrize("name", sorted(MODELS))
def test_frontier_builder_matches_the_reference_on_every_zoo_model(zoo_graphs, name):
    """Node times as the engine prices them; inception-v4 is not
    series-parallel, yet its frontier enumeration runs (14k candidates)."""
    dag = zoo_graphs[name]
    mobile, cloud = raspberry_pi_4(), gtx1080_server()
    mobile_time = {v: node_mobile_time(dag.payload(v), mobile) for v in dag.node_ids}
    cloud_time = {v: node_mobile_time(dag.payload(v), cloud) for v in dag.node_ids}
    _assert_same_frontier(dag, mobile_time.__getitem__, cloud_time.__getitem__)


def forked() -> Dag:
    """Not series-parallel: two entry -> exit paths share ``a``.

    ``a`` forks into ``b`` and ``c``, so the block's branches are
    ``(a, b)``, ``(a, c)`` and ``(x,)``: several branch positions name one
    set, and every set is still downward-closed.
    """
    dag = Dag(name="forked")
    for v in ("s", "a", "b", "c", "x", "t"):
        dag.add_node(v)
    for tail, head, volume in (
        ("s", "a", 8.0), ("s", "x", 2.0), ("a", "b", 1.0), ("a", "c", 1.0),
        ("b", "t", 1.0), ("c", "t", 0.5), ("x", "t", 1.0),
    ):
        dag.add_edge(tail, head, volume)
    return dag


def test_frontier_builder_matches_the_reference_off_series_parallel():
    dag = forked()
    assert not is_series_parallel(dag)
    times = {"s": 0.0, "a": 1.0, "b": 0.5, "c": 0.25, "x": 0.125, "t": 1.0}
    cuts = _assert_same_frontier(dag, times.__getitem__)
    assert [sorted(c.mobile) for c in cuts] == [
        ["s"], ["a", "s"], ["a", "s", "x"], ["a", "b", "c", "s", "t", "x"]
    ]
    # 17 interior positions name 9 distinct sets
    assert len(enumerate_frontier_cuts(dag)) == 11


def test_frontier_builder_drops_the_rows_make_cut_rejects():
    """Branches ``(a, c)`` and ``(b, c)`` join at ``c``: ``{s, a, c}`` lacks ``b``.

    The series-parallel reference refuses the graph; the builder drops
    the rows that are not downward-closed and returns the Pareto front
    of the graph's whole cut space.
    """
    dag = Dag(name="joined")
    for v in ("s", "a", "b", "c", "x", "t"):
        dag.add_node(v)
    for tail, head, volume in (
        ("s", "a", 8.0), ("s", "b", 8.0), ("s", "x", 8.0), ("a", "c", 1.0),
        ("b", "c", 2.0), ("c", "t", 0.5), ("x", "t", 1.0),
    ):
        dag.add_edge(tail, head, volume)
    with pytest.raises(ValueError, match="is not downward-closed"):
        enumerate_frontier_cuts(dag)
    times = {"s": 0.0, "a": 0.5, "b": 0.25, "c": 1.0, "x": 0.125, "t": 2.0}
    cuts = frontier_pareto_cuts(dag, times.__getitem__)
    assert [(sorted(c.mobile), c.transfer_bytes.hex()) for c in cuts] == (
        oracle_pareto_front(dag, times.__getitem__)
    )
    assert any(c.label == "inside:s->t" for c in cuts)


@pytest.mark.parametrize("graph", ["googlenet", "forked"])
def test_frontier_builder_cap_raises_the_same_error(zoo_graphs, graph, monkeypatch):
    """The builder's cap is the module's ``_MAX_FRONTIER_CUTS``, lowered here."""
    dag = forked() if graph == "forked" else zoo_graphs[graph]
    times = {v: 1.0 for v in dag.node_ids}.__getitem__
    count = len(enumerate_frontier_cuts(dag))
    monkeypatch.setattr("repro.dag.cuts._MAX_FRONTIER_CUTS", count)
    assert frontier_pareto_cuts(dag, times) == _reference_frontier(
        dag, times, max_cuts=count
    )
    for cap in (0, 1, count // 2, count - 1):
        with pytest.raises(ValueError) as expected:
            enumerate_frontier_cuts(dag, max_cuts=cap)
        monkeypatch.setattr("repro.dag.cuts._MAX_FRONTIER_CUTS", cap)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            frontier_pareto_cuts(dag, times)


#: Node times from a small pool. Equal sums tie exactly, and sums such as
#: 0.1 + 0.2 + 0.3 or 1 + 2**-53 + 2**-53 round differently in different
#: orders, so the batch and set sums of one cut can disagree in the last
#: bit. Both the dominance margin and ``prune_dominated``'s tie order are
#: exercised: without the margin, most hash seeds fail here.
tie_prone_times = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.0**-53, 2.0**-52])


@settings(max_examples=200, deadline=None)
@given(dag=series_parallel(), data=st.data())
def test_frontier_builder_matches_the_reference_on_tie_heavy_graphs(dag, data):
    times = {v: data.draw(tie_prone_times, label=v) for v in dag.node_ids}
    _assert_same_frontier(dag, times.__getitem__, times.__getitem__)
