"""Tree-structure (multi-task) networks via the OutputCollector sink."""

import pytest

from repro.dag.cuts import enumerate_frontier_cuts, is_downward_closed
from repro.dag.topology import separators
from repro.engine import PlanningEngine
from repro.nn.layers import OutputCollector, ShapeError
from repro.nn.zoo import multitask_perception


@pytest.fixture(scope="module")
def net():
    return multitask_perception()


def test_collector_layer_semantics():
    collector = OutputCollector()
    assert collector.arity == -1
    assert collector.output_shape((10,), (20,)) == (2,)
    assert collector.flops((10,), (20,)) == 0.0
    with pytest.raises(ShapeError):
        collector.output_shape((10,))


def test_single_sink_despite_two_heads(net):
    assert net.graph.sinks() == ["outputs"]
    assert net.output_shape == (2,)


def test_collector_edges_carry_zero_volume(net):
    for pred in net.graph.predecessors("outputs"):
        assert net.graph.volume(pred, "outputs") == 0.0
    # and the collector itself is free
    assert net.node("outputs").output_bytes == 0.0
    assert net.node("outputs").flops == 0.0


def test_backbone_nodes_are_separators(net):
    seps = separators(net.graph)
    assert "bb3.pool" in seps          # last backbone node
    assert "outputs" in seps
    assert "cls.fc" not in seps        # head interiors are parallel branches


def test_cut_space_allows_splitting_heads(net):
    cuts = enumerate_frontier_cuts(net.graph)
    split = [
        c for c in cuts
        if "cls.softmax" in c.mobile and "det.conv2" not in c.mobile
    ]
    assert split
    for cut in split:
        assert is_downward_closed(net.graph, cut.mobile)
        # the shared backbone tensor crosses once even though both heads
        # would consume it (distinct-tail counting)
        backbone_bytes = net.node("bb3.pool").output_bytes
        assert cut.transfer_bytes <= backbone_bytes + sum(
            net.node(v).output_bytes for v in cut.frontier if v != "bb3.pool"
        )


def test_finishing_one_head_locally_is_free(net):
    """A cut with the whole classification head on the mobile side pays
    only for the backbone tensor (the cls result returns for free)."""
    cuts = enumerate_frontier_cuts(net.graph)
    full_cls = next(
        c for c in cuts
        if "cls.softmax" in c.mobile and "det.conv1" not in c.mobile
    )
    assert full_cls.transfer_bytes == pytest.approx(net.node("bb3.pool").output_bytes)


def test_jps_on_multitask(net, mobile, cloud, channel_10mbps):
    schedule = PlanningEngine(mobile=mobile, cloud=cloud).plan(net, 10, channel_10mbps)
    assert schedule.method == "JPS-frontier"
    assert schedule.makespan > 0
    from repro.core.baselines import local_only
    from repro.profiling.latency import line_cost_table

    table = line_cost_table(net, mobile, cloud, channel_10mbps)
    assert schedule.makespan <= local_only(table, 10).makespan + 1e-9
