"""Cut semantics and frontier enumeration."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.cuts import (
    Cut,
    cut_edge_tails,
    cut_transfer_bytes,
    enumerate_frontier_cuts,
    is_downward_closed,
    make_cut,
    prune_dominated,
)
from repro.dag.graph import Dag


def residual() -> Dag:
    """entry -> (conv chain | bypass) -> add -> tail."""
    g = Dag(name="residual")
    for v in ("in", "entry", "c1", "c2", "add", "tail"):
        g.add_node(v)
    g.add_edge("in", "entry", 100)
    g.add_edge("entry", "c1", 50)
    g.add_edge("c1", "c2", 80)
    g.add_edge("entry", "add", 50)  # bypass carries entry's tensor
    g.add_edge("c2", "add", 60)
    g.add_edge("add", "tail", 40)
    return g


def test_downward_closed_detection():
    g = residual()
    assert is_downward_closed(g, {"in", "entry"})
    assert is_downward_closed(g, set())
    assert not is_downward_closed(g, {"c1"})  # missing entry
    assert not is_downward_closed(g, {"in", "entry", "add"})  # missing c2


def test_cut_edge_tails_distinct():
    g = residual()
    # cutting after entry: both crossing edges share the tail 'entry'
    assert cut_edge_tails(g, {"in", "entry"}) == ["entry"]
    assert cut_edge_tails(g, {"in", "entry", "c1"}) == ["entry", "c1"]


def test_transfer_bytes_counts_shared_tensor_once():
    g = residual()
    # entry feeds both c1 (50) and add (50): one tensor, charged once
    assert cut_transfer_bytes(g, {"in", "entry"}) == 50
    # cut {in, entry, c1}: entry->add (50) + c1->c2 (80)
    assert cut_transfer_bytes(g, {"in", "entry", "c1"}) == 130


def test_make_cut_validates_closure():
    g = residual()
    cut = make_cut(g, {"in", "entry"}, label="after-entry")
    assert cut.transfer_bytes == 50
    assert cut.frontier == ("entry",)
    with pytest.raises(ValueError, match="downward-closed"):
        make_cut(g, {"c1"})


def test_cut_rejects_negative_bytes():
    with pytest.raises(ValueError):
        Cut(mobile=frozenset(), frontier=(), transfer_bytes=-1)


def test_cut_rejects_nan_bytes():
    with pytest.raises(ValueError, match="transfer_bytes must be >= 0, got nan"):
        Cut(mobile=frozenset({"a"}), frontier=("a",), transfer_bytes=math.nan)


def test_unknown_nodes_are_named():
    g = residual()
    with pytest.raises(KeyError, match="unknown node 'zz'"):
        is_downward_closed(g, {"zz"})
    with pytest.raises(KeyError, match="unknown node 'zz'"):
        cut_transfer_bytes(g, {"zz"})


def test_enumerate_frontier_cuts_residual():
    g = residual()
    cuts = enumerate_frontier_cuts(g)
    mobiles = {c.mobile for c in cuts}
    # after in, after entry, entry+c1, entry+c1+c2, after add, after tail
    assert frozenset({"in"}) in mobiles
    assert frozenset({"in", "entry"}) in mobiles
    assert frozenset({"in", "entry", "c1"}) in mobiles
    assert frozenset({"in", "entry", "c1", "c2"}) in mobiles
    assert frozenset(g.node_ids) in mobiles
    assert len(cuts) == 6
    for cut in cuts:
        assert is_downward_closed(g, cut.mobile)


def test_enumerate_include_empty_flag():
    g = residual()
    cuts = enumerate_frontier_cuts(g, include_empty=True)
    assert frozenset() in {c.mobile for c in cuts}


def test_enumerate_cut_cap():
    g = residual()
    with pytest.raises(ValueError, match="more than 2"):
        enumerate_frontier_cuts(g, max_cuts=2)


def test_cut_cap_fires_before_a_wide_block_is_built():
    """8 branches of 4 nodes: 5**8 interior cuts, but the cap is 100."""
    g = Dag(name="wide")
    g.add_node("in")
    g.add_node("out")
    for b in range(8):
        chain = [g.add_node(f"b{b}.{i}") for i in range(4)]
        for tail, head in zip(["in", *chain], [*chain, "out"]):
            g.add_edge(tail, head, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 100 frontier cuts"):
            enumerate_frontier_cuts(g, max_cuts=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_exhaustive_cut_space_tiny():
    g = residual()
    order = g.topological_order()
    expected = set()
    for mask in range(2 ** len(order)):
        mobile = frozenset(v for i, v in enumerate(order) if mask >> i & 1)
        if mobile and is_downward_closed(g, mobile):
            expected.add(mobile)
    cuts = enumerate_frontier_cuts(g)
    assert {c.mobile for c in cuts} == expected


def test_prune_dominated_keeps_pareto_front():
    cuts = [
        Cut(mobile=frozenset({"a"}), frontier=("a",), transfer_bytes=100, label="A"),
        Cut(mobile=frozenset({"a", "b"}), frontier=("b",), transfer_bytes=60, label="B"),
        Cut(mobile=frozenset({"a", "c"}), frontier=("c",), transfer_bytes=120, label="C"),
        Cut(mobile=frozenset({"a", "b", "c"}), frontier=("d",), transfer_bytes=60, label="D"),
    ]
    costs = {
        frozenset({"a"}): 1.0,
        frozenset({"a", "b"}): 2.0,
        frozenset({"a", "c"}): 3.0,      # dominated by B: more f, more g
        frozenset({"a", "b", "c"}): 4.0,  # dominated by B: more f, equal g
    }
    survivors = prune_dominated(cuts, costs)
    assert [c.label for c in survivors] == ["A", "B"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=1, max_size=20))
def test_prune_dominated_property(pairs):
    """Survivors form a strict Pareto staircase covering every dropped cut."""
    cuts = [
        Cut(mobile=frozenset({f"n{i}"}), frontier=(), transfer_bytes=g, label=str(i))
        for i, (_, g) in enumerate(pairs)
    ]
    costs = {frozenset({f"n{i}"}): f for i, (f, _) in enumerate(pairs)}
    survivors = prune_dominated(cuts, costs)
    points = [(costs[c.mobile], c.transfer_bytes) for c in survivors]
    # sorted by f ascending, g strictly decreasing -> no survivor dominates another
    assert points == sorted(points, key=lambda p: p[0])
    assert all(b[1] < a[1] for a, b in zip(points, points[1:]))
    # every input cut is weakly dominated by some survivor
    for c in cuts:
        point = (costs[c.mobile], c.transfer_bytes)
        assert any(s[0] <= point[0] and s[1] <= point[1] for s in points)
