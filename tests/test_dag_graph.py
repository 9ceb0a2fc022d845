"""Dag structure: construction, invariants, traversals."""

import math

import networkx as nx
import pytest

from repro.dag.graph import CycleError, Dag, Edge


def diamond() -> Dag:
    g = Dag(name="diamond")
    for v in "abcd":
        g.add_node(v)
    g.add_edge("a", "b", 10)
    g.add_edge("a", "c", 10)
    g.add_edge("b", "d", 5)
    g.add_edge("c", "d", 7)
    return g


def test_add_node_rejects_duplicates_and_bad_ids():
    g = Dag()
    g.add_node("x")
    with pytest.raises(ValueError, match="duplicate"):
        g.add_node("x")
    with pytest.raises(TypeError):
        g.add_node("")
    with pytest.raises(TypeError):
        g.add_node(3)  # type: ignore[arg-type]


def test_add_edge_validations():
    g = Dag()
    g.add_node("a")
    g.add_node("b")
    with pytest.raises(KeyError):
        g.add_edge("a", "missing")
    with pytest.raises(CycleError):
        g.add_edge("a", "a")
    g.add_edge("a", "b", 1.0)
    with pytest.raises(ValueError, match="duplicate edge"):
        g.add_edge("a", "b", 2.0)
    with pytest.raises(ValueError, match="volume"):
        g.add_edge("b", "a", -1.0)


def test_add_edge_rejects_nan_volume():
    g = Dag()
    g.add_node("a")
    g.add_node("b")
    with pytest.raises(ValueError, match="'a' -> 'b': volume must be >= 0, got nan"):
        g.add_edge("a", "b", math.nan)
    assert g.num_edges() == 0 and g.successors("a") == []


def test_edge_rejects_nan_volume():
    with pytest.raises(ValueError, match="'a' -> 'b': volume must be >= 0, got nan"):
        Edge("a", "b", math.nan)


def test_payload_roundtrip():
    g = Dag()
    g.add_node("a", payload={"x": 1})
    assert g.payload("a") == {"x": 1}
    g.set_payload("a", 42)
    assert g.payload("a") == 42
    with pytest.raises(KeyError):
        g.payload("nope")
    with pytest.raises(KeyError):
        g.set_payload("nope", 0)


def test_adjacency_and_degrees():
    g = diamond()
    assert g.successors("a") == ["b", "c"]
    assert g.predecessors("d") == ["b", "c"]
    assert g.out_degree("a") == 2
    assert g.in_degree("d") == 2
    assert g.volume("c", "d") == 7
    with pytest.raises(KeyError):
        g.volume("a", "d")


def test_sources_and_sinks():
    g = diamond()
    assert g.sources() == ["a"]
    assert g.sinks() == ["d"]


def test_topological_order_matches_networkx_constraints():
    g = diamond()
    order = g.topological_order()
    position = {v: i for i, v in enumerate(order)}
    for edge in g.edges():
        assert position[edge.tail] < position[edge.head]


def test_topological_order_detects_cycles():
    g = Dag()
    for v in "abc":
        g.add_node(v)
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    with pytest.raises(CycleError):
        g.topological_order()


def test_topological_order_follows_add_node_and_add_edge():
    g = Dag()
    for v in "cab":
        g.add_node(v)
    assert g.topological_order() == ["c", "a", "b"]
    g.add_edge("b", "c")
    assert g.topological_order() == ["a", "b", "c"]
    g.add_node("z")
    assert g.topological_order() == ["a", "b", "z", "c"]
    g.add_edge("c", "z")
    assert g.topological_order() == ["a", "b", "c", "z"]


def test_topological_order_returns_a_fresh_list():
    g = diamond()
    order = g.topological_order()
    order.reverse()
    order.append("zzz")
    assert g.topological_order() == ["a", "b", "c", "d"]
    assert g.topological_order() is not g.topological_order()


def test_cyclic_graph_raises_on_every_call():
    g = Dag()
    for v in "abc":
        g.add_node(v)
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    assert g.topological_order() == ["a", "b", "c"]
    g.add_edge("c", "a")
    for _ in range(3):
        with pytest.raises(CycleError):
            g.topological_order()


def test_copy_has_an_independent_topological_order():
    g = diamond()
    assert g.topological_order() == ["a", "b", "c", "d"]
    clone = g.copy()
    clone.add_node("e")
    clone.add_edge("e", "a")
    assert clone.topological_order() == ["e", "a", "b", "c", "d"]
    assert g.topological_order() == ["a", "b", "c", "d"]
    g.add_node("f")
    assert clone.topological_order() == ["e", "a", "b", "c", "d"]
    assert g == g.copy()


def test_ancestors_descendants():
    g = diamond()
    assert g.ancestors("d") == {"a", "b", "c"}
    assert g.descendants("a") == {"b", "c", "d"}
    assert g.ancestors("a") == set()
    assert g.descendants("d") == set()


def test_is_line_and_line_order():
    g = Dag()
    for v in "abc":
        g.add_node(v)
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    assert g.is_line()
    assert g.line_order() == ["a", "b", "c"]
    assert not diamond().is_line()
    with pytest.raises(ValueError):
        diamond().line_order()


def test_empty_graph_is_not_line():
    assert not Dag().is_line()


def test_cut_volume_edge_sum():
    g = diamond()
    assert g.cut_volume({"a"}) == 20  # both a-edges cross (edge-sum semantics)
    assert g.cut_volume({"a", "b"}) == 15
    assert g.cut_volume({"a", "b", "c", "d"}) == 0
    with pytest.raises(KeyError):
        g.cut_volume({"zzz"})


def test_copy_is_structural():
    g = diamond()
    clone = g.copy()
    clone.add_node("e")
    clone.add_edge("d", "e")
    assert "e" not in g
    assert g.num_edges() == 4 and clone.num_edges() == 5


def test_validate_passes_on_well_formed():
    diamond().validate()


def test_validate_requires_source_and_sink():
    g = Dag()
    with pytest.raises(CycleError if False else ValueError):
        g.validate()  # empty graph: no source


def test_matches_networkx_topology():
    g = diamond()
    nxg = nx.DiGraph()
    for e in g.edges():
        nxg.add_edge(e.tail, e.head)
    assert nx.is_directed_acyclic_graph(nxg)
    assert set(nx.ancestors(nxg, "d")) == g.ancestors("d")
    assert set(nx.descendants(nxg, "a")) == g.descendants("a")
