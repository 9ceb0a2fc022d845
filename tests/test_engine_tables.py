"""The engine's per-channel tables stay bit-identical to per-position pricing.

A table priced through a real :class:`~repro.net.channel.Channel` takes
its ``g`` column from one vectorized expression shared with the
pricing kernel; it must equal the channel's own ``uplink_time`` at
every position of every zoo model and cut kind, bit for bit. A
duck-typed channel (a :class:`~repro.net.timeline.BandwidthTimeline`)
is still asked per position. Line tables read their mobile node sets
from the clustered graph's memo, which must equal the block expansion
of the table's own positions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import list_models
from repro.dag.graph import Dag
from repro.dag.transform import VirtualBlock, expand_members
from repro.engine import PlanningEngine
from repro.engine.keys import channel_fingerprint
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.net.timeline import BandwidthTimeline
from repro.profiling.latency import CostTable, line_cost_table, smooth_cost_table

MODELS = tuple(list_models())
KINDS = ("line", "frontier", "dag")


@pytest.fixture(scope="module")
def engine() -> PlanningEngine:
    # one engine, so each model's cut spaces are built once for the module
    return PlanningEngine(max_entries=4 * len(MODELS) * len(KINDS))


def per_position(channel, payloads) -> np.ndarray:
    return np.array([channel.uplink_time(b) if b > 0 else 0.0 for b in payloads])


def bits(column: np.ndarray) -> bytes:
    return np.asarray(column, dtype=float).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(1e3, 1e10),
    setup=st.floats(0.0, 0.1) | st.just(0.0),
    header=st.integers(0, 4096) | st.floats(0.0, 4096.0),
    overhead=st.floats(0.01, 4.0) | st.just(1.0),
)
def test_channel_tables_price_like_uplink_time_and_the_kernel(
    engine, rate, setup, header, overhead
):
    channel = Channel(
        shaper=TrafficShaper(rate, 2 * rate),
        setup_latency=setup,
        header_bytes=header,
        protocol_overhead=overhead,
    )
    for model in MODELS:
        for kind in KINDS:
            table = engine.cost_table(model, channel, structure=kind)
            kernel = engine.pricing_kernel(
                model,
                structure=kind,
                setup_latency=setup,
                header_bytes=header,
                protocol_overhead=overhead,
            )
            where = f"{model}/{kind}"
            assert table.positions == kernel.positions, where
            assert bits(table.g) == bits(per_position(channel, kernel.payload_bytes)), where
            assert bits(table.g) == bits(kernel.g_at(rate)), where


@pytest.mark.parametrize("kind", KINDS)
def test_a_bandwidth_timeline_is_priced_per_position(engine, kind):
    # the rate drops 20 ms in: any upload still running then is not affine in 1/rate
    timeline = BandwidthTimeline.steps_mbps(
        [(0.0, 40.0), (0.02, 2.0)], setup_latency=0.005, header_bytes=256
    )
    for model in MODELS:
        table = engine.cost_table(model, timeline, structure=kind)
        payloads = engine.pricing_kernel(model, structure=kind).payload_bytes
        assert bits(table.g) == bits(per_position(timeline, payloads)), model
    # the check would see a table priced at the initial rate alone
    at_start = Channel(
        shaper=TrafficShaper(40e6, 80e6),
        setup_latency=0.005,
        header_bytes=256,
        protocol_overhead=1.0,
    )
    table = engine.cost_table("vgg16", timeline, structure=kind)
    assert bits(table.g) != bits(engine.cost_table("vgg16", at_start, structure=kind).g)


def test_a_real_channel_is_keyed_by_its_values():
    def channel(header):
        return Channel(shaper=TrafficShaper(5e6, 1e7), header_bytes=header)

    assert channel_fingerprint(channel(256)) == channel_fingerprint(channel(256))
    assert channel_fingerprint(channel(256)) == channel_fingerprint(channel(256.0))
    assert channel_fingerprint(channel(256)) != channel_fingerprint(channel(257))
    engine = PlanningEngine()
    engine.cost_table("alexnet", channel(256))
    engine.cost_table("alexnet", channel(256.0))
    assert engine.stats()["line_tables"]["hits"] == 1


def expansion(table: CostTable, position: int) -> frozenset[str]:
    return frozenset(
        m for v in table.positions[: position + 1] for m in expand_members(table.graph, v)
    )


def assert_mobile_sets_expand_blocks(table: CostTable) -> None:
    for position in range(table.k):
        assert table.mobile_nodes_at(position) == expansion(table, position), (
            table.model_name,
            position,
        )
        # a repeat is served by the graph's memo, unchanged
        assert table.mobile_nodes_at(position) == expansion(table, position)


@pytest.mark.parametrize("model", MODELS)
def test_line_mobile_sets_are_the_block_expansion(engine, model, mobile, cloud):
    channel = Channel(shaper=TrafficShaper(8e6, 16e6))
    table = engine.line_table(model, channel)
    assert_mobile_sets_expand_blocks(table)
    if table.k >= 3:  # the smoothing fits a line through two or more interior g
        assert_mobile_sets_expand_blocks(smooth_cost_table(table))
    built = line_cost_table(engine.resolve(model), mobile, cloud, channel)
    assert_mobile_sets_expand_blocks(built)


def test_a_table_over_other_positions_expands_its_own(engine):
    line = engine.line_table("vgg16", Channel(shaper=TrafficShaper(8e6, 16e6)))
    keep = [0, 2, line.k - 1]
    table = CostTable(
        model_name="vgg16/every-other",
        positions=tuple(line.positions[i] for i in keep),
        f=line.f[keep],
        g=line.g[keep],
        cloud=line.cloud[keep],
        graph=line.graph,
    )
    assert_mobile_sets_expand_blocks(table)
    assert table.mobile_nodes_at(1) != line.mobile_nodes_at(2)


def test_the_graph_memo_follows_every_change():
    dag = Dag("chain")
    for node in ("a", "b", "c"):
        dag.add_node(node)
    dag.add_edge("a", "b", 1.0)
    dag.add_edge("b", "c", 1.0)
    order = ("a", "b", "c")
    assert dag.prefix_members(order, 1) == {"a", "b"}
    dag.set_payload("b", VirtualBlock(members=("b1", "b2"), payloads=(None, None)))
    assert dag.prefix_members(order, 1) == {"a", "b1", "b2"}
    dag.add_node("d")
    dag.add_edge("c", "d", 1.0)
    assert dag.prefix_members(order + ("d",), 3) == {"a", "b1", "b2", "c", "d"}
    # positions that are not the topological order are expanded as given
    assert dag.prefix_members(("c", "a"), 1) == {"a", "c"}
