"""True DAG partitioner: cut spaces, cut tables, scheduling, engine wiring."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.joint import Structure
from repro.dag import transform
from repro.dag.cuts import Cut, _block_rows, _fits_block_rows, enumerate_closed_sets, make_cut
from repro.dag.graph import Dag
from repro.dag.oracle import dag_exhaustive_optimal
from repro.dag.partition import (
    cut_columns,
    dag_cut_table,
    dag_pareto_cuts,
    dag_schedule_from_table,
    duplication_mobile_set,
    duplication_schedule,
    partition_dag,
    unique_cut_labels,
)
from repro.dag.topology import parallel_blocks
from repro.engine import PlanningEngine
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.nn.layers import Add, Conv2d, ReLU
from repro.nn.network import Network, NetworkBuilder
from repro.profiling.latency import node_mobile_time
from repro.utils.units import mbps
from tests.oracles.harness import dag_instance_from_seed, oracle_pareto_front

#: Random-DAG seeds of their own range, away from the corpus, fuzz,
#: property and bench ones.
CUT_SPACE_SEEDS = st.integers(min_value=6_000_000, max_value=6_100_000)


def diamond() -> Dag:
    """a fans out to b and c (the same 100-byte tensor), which merge in d."""
    dag = Dag(name="diamond")
    for v in "abcd":
        dag.add_node(v)
    dag.add_edge("a", "b", volume=100.0)
    dag.add_edge("a", "c", volume=100.0)
    dag.add_edge("b", "d", volume=10.0)
    dag.add_edge("c", "d", volume=10.0)
    return dag


DIAMOND_TIMES = {"a": 1.0, "b": 4.0, "c": 4.0, "d": 4.0}


def upload(num_bytes: float) -> float:
    return num_bytes * 0.005


def non_sp_network() -> Network:
    """A non-series-parallel net: one branch feeds two different merges."""
    b = NetworkBuilder("nonsp", input_shape=(3, 32, 32))
    a = b.add(Conv2d(32, kernel=3, padding="same"), name="conv_a")
    p = b.add(Conv2d(2, kernel=1), name="conv_p", inputs=(a,))
    q = b.add(Conv2d(2, kernel=1), name="conv_q", inputs=(a,))
    r = b.add(Add(), name="add_r", inputs=(p, q))
    t = b.add(ReLU(), name="relu_t", inputs=(p,))
    b.add(Add(), name="add_out", inputs=(r, t))
    return b.build()


def joined_network() -> Network:
    """Not series-parallel: branches ``a`` and ``b`` join in ``c`` inside the
    block that ``x`` bypasses, so some branch prefixes are not cuts."""
    b = NetworkBuilder("joined", input_shape=(3, 32, 32))
    s = b.add(Conv2d(32, kernel=3, padding="same"), name="s")
    a = b.add(Conv2d(1, kernel=1), name="a", inputs=(s,))
    other = b.add(Conv2d(1, kernel=1), name="b", inputs=(s,))
    c = b.add(Add(), name="c", inputs=(a, other))
    x = b.add(Conv2d(1, kernel=1), name="x", inputs=(s,))
    b.add(Add(), name="t", inputs=(c, x))
    return b.build()


def ladder_network(rungs: int = 3) -> Network:
    """Not series-parallel: two 1x1-conv rails cross-wired into ``Add`` s
    for ``rungs`` rungs, one rail then running on alone. Its one block's
    branch product (160,000 rows at three rungs, 656,100,000,000 at
    four) is past the row builder's cap, its ideals few."""
    b = NetworkBuilder("ladder", input_shape=(3, 32, 32))
    s = b.add(Conv2d(32, kernel=3, padding="same"), name="s")
    x = b.add(Conv2d(1, kernel=1), name="x0", inputs=(s,))
    y = b.add(Conv2d(1, kernel=1), name="y0", inputs=(s,))
    for rung in range(1, rungs):
        x, y = (
            b.add(Add(), name=f"x{rung}", inputs=(x, y)),
            b.add(Add(), name=f"y{rung}", inputs=(x, y)),
        )
    x = b.add(Conv2d(1, kernel=1), name="z", inputs=(x,))
    b.add(Add(), name="t", inputs=(x, y))
    return b.build()


def two_by_two() -> Dag:
    """Two sources (``p``, ``q``) and two sinks (``y``, ``z``)."""
    dag = Dag(name="two-by-two")
    for v in "pqmyz":
        dag.add_node(v)
    for tail, head, volume in (
        ("p", "m", 64.0), ("q", "m", 32.0), ("q", "z", 16.0),
        ("m", "y", 8.0), ("m", "z", 8.0),
    ):
        dag.add_edge(tail, head, volume)
    return dag


TWO_BY_TWO_TIMES = {"p": 0.0, "q": 0.0, "m": 0.5, "y": 0.25, "z": 0.125}


def _front(cuts) -> list[tuple[list[str], str]]:
    return [(sorted(c.mobile), c.transfer_bytes.hex()) for c in cuts]


def make_channel(uplink_mbps: float) -> Channel:
    return Channel(
        shaper=TrafficShaper(
            uplink_bps=mbps(uplink_mbps), downlink_bps=mbps(2 * uplink_mbps)
        )
    )


# ----------------------------------------------------------------------
# the cut space: the block-row builder, the closure BFS for the rest
# ----------------------------------------------------------------------


def test_diamond_closed_sets_are_the_full_lattice():
    assert set(enumerate_closed_sets(diamond())) == {
        frozenset("a"),
        frozenset("ab"),
        frozenset("ac"),
        frozenset("abc"),
        frozenset("abcd"),
    }


def test_pareto_cuts_diamond():
    cuts = dag_pareto_cuts(diamond(), DIAMOND_TIMES.__getitem__)
    assert _front(cuts) == oracle_pareto_front(diamond(), DIAMOND_TIMES.__getitem__)
    # f strictly increasing, transfer bytes strictly decreasing
    f = [sum(DIAMOND_TIMES[v] for v in c.mobile) for c in cuts]
    bytes_ = [c.transfer_bytes for c in cuts]
    assert f == sorted(f)
    assert bytes_ == sorted(bytes_, reverse=True)
    # the shared tensor out of `a` is priced once: max(100, 100) == 100
    by_mobile = {c.mobile: c.transfer_bytes for c in cuts}
    assert by_mobile[frozenset("a")] == 100.0
    assert by_mobile[frozenset("abcd")] == 0.0
    assert [c.label for c in cuts] == [make_cut(diamond(), c.mobile).label for c in cuts]


def test_two_sources_and_two_sinks_take_the_closure_bfs():
    dag = two_by_two()
    assert not _fits_block_rows(dag)
    cuts = dag_pareto_cuts(dag, TWO_BY_TWO_TIMES.__getitem__)
    assert _front(cuts) == oracle_pareto_front(dag, TWO_BY_TWO_TIMES.__getitem__)
    assert all({"p", "q"} <= c.mobile for c in cuts)


@settings(max_examples=15, deadline=None)
@given(CUT_SPACE_SEEDS)
def test_closure_bfs_equals_the_oracle_front_past_the_row_cap(seed):
    """Random DAGs the block rows turn away (branch products over the cap)."""
    instance = dag_instance_from_seed(seed)
    assume(not _fits_block_rows(instance.dag))
    cuts = dag_pareto_cuts(instance.dag, instance.node_cost)
    assert _front(cuts) == oracle_pareto_front(instance.dag, instance.node_cost)


@settings(max_examples=15, deadline=None)
@given(CUT_SPACE_SEEDS)
def test_block_rows_equal_the_oracle_front_within_the_row_cap(seed):
    instance = dag_instance_from_seed(seed)
    assume(_fits_block_rows(instance.dag))
    cuts = dag_pareto_cuts(instance.dag, instance.node_cost)
    assert _front(cuts) == oracle_pareto_front(instance.dag, instance.node_cost)


def test_closure_bfs_raises_past_the_cap(monkeypatch):
    dag = two_by_two()
    count = len(enumerate_closed_sets(dag))
    monkeypatch.setattr("repro.dag.cuts._MAX_FRONTIER_CUTS", count)
    assert len(dag_pareto_cuts(dag, TWO_BY_TWO_TIMES.__getitem__)) >= 1
    monkeypatch.setattr("repro.dag.cuts._MAX_FRONTIER_CUTS", count - 1)
    message = (
        f"{dag.name!r}: more than {count - 1} frontier cuts; "
        "graph is too branchy for exact enumeration"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_closed_sets(dag)
    with pytest.raises(ValueError, match=re.escape(message)):
        dag_pareto_cuts(dag, TWO_BY_TWO_TIMES.__getitem__)


def test_unique_cut_labels_disambiguate():
    class FakeCut:
        def __init__(self, label):
            self.label = label

    labels = unique_cut_labels([FakeCut("x"), FakeCut("y"), FakeCut("x")])
    assert labels == ("x", "y", "x#2")


def test_cut_columns_keep_the_all_mobile_cut_local_and_cloud_monotone():
    """The two column rules no zoo table exercises: a cut record holding
    every node uploads nothing even if it carries bytes, and a cut list
    whose mobile-side cloud time dips still gets a non-decreasing cloud
    column (the running max)."""
    dag = diamond()
    cloud_time = {"a": 0.0, "b": 5.0, "c": 1.0, "d": 1.0}
    cuts = [
        make_cut(dag, "a"),
        make_cut(dag, "ab"),
        make_cut(dag, "ac"),
        Cut(mobile=frozenset("abcd"), frontier=("d",), transfer_bytes=64.0),
    ]
    f, payloads, cloud = cut_columns(
        dag, cuts, DIAMOND_TIMES.__getitem__, cloud_time.__getitem__
    )
    assert f.tolist() == [1.0, 5.0, 5.0, 13.0]
    assert payloads.tolist() == [100.0, 110.0, 110.0, 0.0]
    # cloud time spent on the mobile side: 0, 5, 1, 7
    assert cloud.tolist() == [0.0, 5.0, 5.0, 7.0]
    _, _, two_stage = cut_columns(dag, cuts, DIAMOND_TIMES.__getitem__)
    assert two_stage.tolist() == [0.0] * 4


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------


def test_partition_dag_is_exact_on_the_diamond():
    """One scheduler, no modes: every job count gets the oracle's optimum."""
    dct = dag_cut_table(diamond(), DIAMOND_TIMES.__getitem__, upload)
    for n in range(1, 5):
        schedule = dag_schedule_from_table(dct.table, dct.cuts, n, model="diamond")
        oracle = dag_exhaustive_optimal(diamond(), DIAMOND_TIMES, upload, n)
        assert oracle.n_used == n
        assert schedule.method == "JPS-dag"
        assert schedule.makespan == oracle.makespan
        assert "schedule" not in schedule.metadata
        assert partition_dag(
            diamond(), DIAMOND_TIMES.__getitem__, upload, n
        ).to_dict() == schedule.to_dict()


def test_partition_dag_dominates_duplication_on_the_diamond():
    schedule = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 2)
    baseline = duplication_schedule(diamond(), DIAMOND_TIMES.__getitem__, upload, 2)
    assert schedule.makespan < baseline.makespan
    assert baseline.metadata["over_shipped_bytes"] == 100.0
    # every emitted plan carries an executable cut
    for job in schedule.jobs:
        assert job.mobile_nodes is not None
        assert "a" in job.mobile_nodes


def test_duplication_mobile_set_is_downward_closed():
    mobile = duplication_mobile_set(diamond(), DIAMOND_TIMES.__getitem__, upload)
    from repro.dag.cuts import is_downward_closed

    assert is_downward_closed(diamond(), mobile)
    assert "a" in mobile


def test_label_histogram_counts_by_cut_label():
    schedule = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 4)
    histogram = schedule.label_histogram()
    assert sum(histogram.values()) == 4
    assert all(isinstance(k, str) for k in histogram)


def test_partition_is_deterministic():
    a = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 3)
    b = partition_dag(diamond(), DIAMOND_TIMES.__getitem__, upload, 3)
    assert a.to_dict() == b.to_dict()


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------


def test_engine_classifies_non_sp_network_as_dag():
    engine = PlanningEngine()
    assert engine.structure_of(non_sp_network()) is Structure.DAG


def test_engine_plan_and_batch_agree_on_dag_models():
    engine = PlanningEngine()
    network = non_sp_network()
    for uplink in (1.0, 10.0, 50.0):
        single = engine.plan(network, 8, make_channel(uplink))
        (batched,) = engine.plan_batch(network, 8, [mbps(uplink)])
        assert single.method == "JPS-dag"
        assert single.to_dict() == batched.to_dict()


def test_engine_dag_table_cache_hits(mobile, cloud):
    engine = PlanningEngine()
    network = non_sp_network()
    channel = make_channel(10.0)
    engine.plan(network, 4, channel)
    before = engine.stats()
    engine.plan(network, 4, channel)
    after = engine.stats()
    assert after["dag_structure"]["misses"] == before["dag_structure"]["misses"]
    assert after["dag_tables"]["hits"] > before["dag_tables"]["hits"]
    # a different channel re-prices the table but reuses the structure
    engine.plan(network, 4, make_channel(20.0))
    final = engine.stats()
    assert final["dag_tables"]["misses"] == after["dag_tables"]["misses"] + 1
    assert final["dag_structure"]["misses"] == after["dag_structure"]["misses"]


def test_engine_cost_table_and_priced_table_carry_dag_cuts():
    engine = PlanningEngine()
    network = non_sp_network()
    channel = make_channel(10.0)
    table = engine.cost_table(network, channel)
    assert table.model_name.endswith("/dag")
    assert table.g[-1] == 0.0  # the fully-local cut ships nothing
    priced = engine.priced_table(network, mbps(10.0))
    assert priced.cuts is not None
    assert len(priced.cuts) == table.k


def test_engine_compare_jps_beats_baselines_on_dag_model():
    engine = PlanningEngine()
    results = engine.compare(non_sp_network(), 6, make_channel(10.0))
    for scheme, schedule in results.items():
        if scheme != "JPS":
            assert results["JPS"].makespan <= schedule.makespan + 1e-9


def test_engine_clear_resets_dag_caches():
    engine = PlanningEngine()
    engine.plan(non_sp_network(), 4, make_channel(10.0))
    engine.clear()
    stats = engine.stats()
    assert stats["dag_structure"]["entries"] == 0
    assert stats["dag_tables"]["entries"] == 0


def test_jps_auto_dispatches_non_sp_to_dag(mobile, cloud):
    network = non_sp_network()
    channel = make_channel(10.0)
    engine = PlanningEngine(mobile=mobile, cloud=cloud)
    auto = engine.plan(network, 8, channel)
    forced = engine.plan(network, 8, channel, structure="dag")
    assert auto.method == "JPS-dag"
    assert auto.to_dict() == forced.to_dict()
    fresh = PlanningEngine(mobile=mobile, cloud=cloud)
    assert fresh.plan(network, 8, channel).makespan == auto.makespan


def test_jps_auto_keeps_zoo_models_on_their_structures(
    mobile, cloud, alexnet, googlenet
):
    channel = make_channel(10.0)
    engine = PlanningEngine(mobile=mobile, cloud=cloud)
    assert engine.plan(alexnet, 4, channel).method == "JPS"
    assert engine.plan(googlenet, 4, channel).method == "JPS-frontier"


@pytest.mark.parametrize("network", [non_sp_network, joined_network])
def test_forced_frontier_plans_off_series_parallel(network):
    """The frontier kind takes the same cut space as the dag kind, the
    whole one: the oracle's Pareto front under the engine's node times."""
    net = network()
    engine = PlanningEngine()
    schedule = engine.plan(net, 4, make_channel(10.0), structure="frontier")
    assert schedule.method == "JPS-frontier"
    frontier, dag = (
        engine.priced_table(net, mbps(10.0), structure=kind).cuts
        for kind in ("frontier", "dag")
    )
    assert [c.mobile for c in frontier] == [c.mobile for c in dag]
    times = {
        v: node_mobile_time(net.graph.payload(v), engine.mobile)
        for v in net.graph.node_ids
    }
    assert _front(dag) == oracle_pareto_front(net.graph, times.__getitem__)
    # the kind only picks the labels: block labels vs make_cut's default
    assert frontier[-1].label == f"after:{net.graph.topological_order()[-1]}"
    assert [c.label for c in dag] == [make_cut(net.graph, c.mobile).label for c in dag]


def test_forced_frontier_takes_the_dag_cut_space_past_the_row_cap():
    """A graph ``auto`` sends to ``dag`` whose block the row builder turns
    away: the frontier kind takes the dag kind's cuts and labels instead
    of walking every row."""
    net = ladder_network()
    assert len(net.graph) <= 16
    assert not _fits_block_rows(net.graph)
    engine = PlanningEngine()
    assert engine.structure_of(net) is Structure.DAG
    schedule = engine.plan(net, 4, make_channel(10.0), structure="frontier")
    assert schedule.method == "JPS-frontier"
    frontier, dag = (
        engine.priced_table(net, mbps(10.0), structure=kind) for kind in ("frontier", "dag")
    )
    assert [c.mobile for c in frontier.cuts] == [c.mobile for c in dag.cuts]
    assert frontier.table.positions == dag.table.positions == unique_cut_labels(dag.cuts)
    times = {
        v: node_mobile_time(net.graph.payload(v), engine.mobile)
        for v in net.graph.node_ids
    }
    assert _front(frontier.cuts) == oracle_pareto_front(net.graph, times.__getitem__)


def test_a_block_past_the_row_cap_is_planned_without_pricing_its_rows(monkeypatch):
    """Four rungs: 656,100,000,000 rows in one block. Whether to cluster it
    is settled from its branch lengths, so no row is priced (pricing them
    all once asked for 4.77 TiB), and both kinds plan the exact front."""

    def no_pricing(*args):
        raise AssertionError("a block past the row cap was priced row by row")

    monkeypatch.setattr(transform, "_block_cut_bytes", no_pricing)
    net = ladder_network(rungs=4)
    (block,) = [b for b in parallel_blocks(net.graph) if not b.is_trivial]
    assert _block_rows(block) == 656_100_000_000
    assert not transform.should_cluster_block(net.graph, block)
    engine = PlanningEngine()
    assert engine.structure_of(net) is Structure.DAG
    times = {
        v: node_mobile_time(net.graph.payload(v), engine.mobile)
        for v in net.graph.node_ids
    }
    front = oracle_pareto_front(net.graph, times.__getitem__)
    for structure in ("auto", "frontier"):
        schedule = engine.plan(net, 4, make_channel(10.0), structure=structure)
        assert schedule.makespan > 0
        cuts = engine.priced_table(net, mbps(10.0), structure=structure).cuts
        assert _front(cuts) == front
