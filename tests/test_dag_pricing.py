"""The block batch pricer against the scalar cut pricing it replaces.

``should_cluster_block`` prices every interior cut of a parallel block
through ``repro.dag.cuts._block_cut_bytes``; ``cut_transfer_bytes`` on
the matching ``_block_cut_sets`` set is the reference, compared to the
bit with ``float.hex``.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.cuts import _block_cut_bytes, _block_cut_sets, cut_transfer_bytes, make_cut
from repro.dag.graph import Dag
from repro.dag.topology import parallel_blocks
from repro.dag.transform import should_cluster_block
from repro.nn.zoo import MODELS, get_model

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
