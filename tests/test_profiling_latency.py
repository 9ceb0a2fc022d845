"""Cost tables: construction, invariants, clustering, AlexNet' smoothing."""

import numpy as np
import pytest

from repro.engine import PlanningEngine
from repro.profiling.latency import (
    CostTable,
    line_cost_table,
    node_mobile_time,
    path_cost_table,
    smooth_cost_table,
)


def test_cost_table_validation():
    with pytest.raises(ValueError, match="at least one"):
        CostTable("x", (), np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError, match="shape"):
        CostTable("x", ("a",), np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="non-decreasing"):
        CostTable(
            "x", ("a", "b"), np.array([1.0, 0.5]), np.array([1.0, 0.0]), np.zeros(2)
        )
    with pytest.raises(ValueError, match="non-negative"):
        CostTable(
            "x", ("a", "b"), np.array([0.0, 1.0]), np.array([-1.0, 0.0]), np.zeros(2)
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["f", "g", "cloud"])
def test_cost_table_rejects_a_non_finite_entry_with_its_position(column, bad):
    columns = {"f": [0.0, 1.0, 2.0], "g": [3.0, 1.0, 0.0], "cloud": [0.0, 0.5, 1.0]}
    columns[column][1] = bad
    with pytest.raises(ValueError, match=rf"^{column} must be finite .* {column}\[1\] = "):
        CostTable("x", ("a", "b", "c"), *(np.array(columns[c]) for c in ("f", "g", "cloud")))


def test_line_cost_table_boundaries(alexnet_table):
    # position 0 = Input: no local compute, raw-input upload
    assert alexnet_table.f[0] == 0.0
    assert alexnet_table.g[0] > 0.0
    # final position = fully local: no upload
    assert alexnet_table.g[-1] == 0.0
    assert alexnet_table.local_only_time == alexnet_table.f[-1]
    assert alexnet_table.cloud_only_upload == alexnet_table.g[0]


def test_line_cost_table_monotone(alexnet_table):
    assert np.all(np.diff(alexnet_table.f) >= 0)
    assert alexnet_table.is_g_non_increasing()


def test_stage_lengths_and_bounds(alexnet_table):
    f, g = alexnet_table.stage_lengths(1)
    assert f == alexnet_table.f[1] and g == alexnet_table.g[1]
    with pytest.raises(IndexError):
        alexnet_table.stage_lengths(alexnet_table.k)


def test_cloud_rest_decreasing(alexnet_table):
    rests = [alexnet_table.cloud_rest(i) for i in range(alexnet_table.k)]
    assert all(b <= a for a, b in zip(rests, rests[1:]))
    assert rests[-1] == 0.0


def test_position_of(alexnet_table):
    for i, pos in enumerate(alexnet_table.positions):
        assert alexnet_table.position_of(pos) == i
    with pytest.raises(KeyError):
        alexnet_table.position_of("nope")


def test_mobile_nodes_at_partition_the_graph(alexnet, alexnet_table):
    all_nodes = set(alexnet.graph.node_ids)
    last = alexnet_table.mobile_nodes_at(alexnet_table.k - 1)
    assert last == all_nodes
    first = alexnet_table.mobile_nodes_at(0)
    assert first == {alexnet.input_id}
    mid = alexnet_table.mobile_nodes_at(2)
    assert first < mid < last


def test_mobile_nodes_requires_graph(alexnet_table):
    table = CostTable(
        "x", ("a",), np.array([0.0]), np.array([0.0]), np.array([0.0]), graph=None
    )
    with pytest.raises(ValueError, match="no backing graph"):
        table.mobile_nodes_at(0)


def test_unclustered_table_matches_raw_layers(alexnet, mobile, cloud, channel_10mbps):
    raw = line_cost_table(alexnet, mobile, cloud, channel_10mbps, cluster=False)
    assert raw.k == alexnet.num_layers
    clustered = line_cost_table(alexnet, mobile, cloud, channel_10mbps, cluster=True)
    assert clustered.k < raw.k
    # total local time is preserved by clustering
    assert clustered.local_only_time == pytest.approx(raw.local_only_time)
    # clustered g values are a subset of raw g values
    raw_g = set(np.round(raw.g, 12))
    assert all(round(v, 12) in raw_g for v in clustered.g)


def test_with_channel_scaled(alexnet_table):
    doubled = alexnet_table.with_channel_scaled(2.0)
    assert np.allclose(doubled.g, alexnet_table.g * 2)
    with pytest.raises(ValueError):
        alexnet_table.with_channel_scaled(0)


def test_node_mobile_time_rejects_garbage(mobile):
    with pytest.raises(TypeError):
        node_mobile_time("not-a-node", mobile)


def test_path_cost_table(branchy, mobile, cloud, channel_10mbps):
    from repro.dag.topology import enumerate_paths

    path = tuple(enumerate_paths(branchy.graph)[0])
    table = path_cost_table(branchy, path, mobile, cloud, channel_10mbps)
    assert table.k == len(path)
    assert table.g[-1] == 0.0
    assert np.all(np.diff(table.f) >= 0)


def test_cut_table_full_graph_has_zero_comm(branchy, mobile, cloud, channel_10mbps):
    engine = PlanningEngine(mobile=mobile, cloud=cloud)
    frontier = engine.frontier_table(branchy, channel_10mbps)
    table = frontier.table
    costs = {
        cut.mobile: (table.f[i], table.g[i], table.cloud_rest(i))
        for i, cut in enumerate(frontier.cuts)
    }
    full = frozenset(branchy.graph.node_ids)
    f, g, rest = costs[full]
    assert g == 0.0 and f > 0
    assert rest == pytest.approx(0.0, abs=1e-12)  # floating summation dust
    # input-only cut: no compute, upload > 0, full cloud rest
    input_only = frozenset({branchy.graph.topological_order()[0]})
    f0, g0, rest0 = costs[input_only]
    assert f0 == 0.0 and g0 > 0.0 and rest0 > 0.0


def test_smooth_cost_table_properties(alexnet_table):
    prime = smooth_cost_table(alexnet_table)
    assert prime.k == alexnet_table.k
    assert prime.f[0] == 0.0 and prime.g[-1] == 0.0
    assert np.all(np.diff(prime.f) >= 0)
    assert prime.is_g_non_increasing()
    # interior g decays geometrically: ratios roughly constant
    interior = prime.g[1:-1]
    ratios = interior[1:] / interior[:-1]
    assert np.std(ratios) < 0.05
    assert prime.model_name.endswith("-prime")
