"""The experiment environment itself: caching, grids, scheme parity."""

import numpy as np
import pytest

from repro.experiments.runner import EXPERIMENT_MODELS, SCHEMES
from repro.net.bandwidth import FOUR_G


def test_constants():
    assert EXPERIMENT_MODELS == ["alexnet", "googlenet", "mobilenet-v2", "resnet18"]
    assert SCHEMES == ["LO", "CO", "PO", "JPS"]


def test_network_cache_returns_same_object(env):
    assert env.network("alexnet") is env.network("alexnet")


def test_channel_accepts_preset_and_mbps(env):
    a = env.channel(FOUR_G)
    b = env.channel(5.85)
    assert a.uplink_bps == pytest.approx(b.uplink_bps)


def test_scheme_grid_shape(env):
    grid = env.scheme_grid(["alexnet", "resnet18"], 10.0, 5)
    assert set(grid) == {"alexnet", "resnet18"}
    for schedules in grid.values():
        assert set(schedules) == set(SCHEMES)
        for schedule in schedules.values():
            assert schedule.num_jobs == 5


def test_jps_ratio_scheme_available(env):
    """JPS with the paper's ratio split is ``split="ratio"``, not a scheme."""
    ratio = env.engine.plan("alexnet", 10, env.channel(10.0), split="ratio")
    exact = env.run_scheme("alexnet", 10.0, 10, "JPS")
    assert ratio.metadata["split"] == "ratio"
    assert exact.makespan <= ratio.makespan + 1e-12
    with pytest.raises(ValueError, match="unknown scheme 'JPS-ratio'"):
        env.run_scheme("alexnet", 10.0, 10, "JPS-ratio")


def test_frontier_table_bandwidth_scaling(env):
    """Cached frontier structure reprices g per bandwidth; f is invariant."""
    fast = env.cost_table("googlenet", 40.0)
    slow = env.cost_table("googlenet", 2.0)
    assert np.allclose(fast.f, slow.f)
    interior = slice(1, -1)
    assert np.all(slow.g[interior] > fast.g[interior])
    # the fully-local position never pays communication
    assert fast.g[-1] == slow.g[-1] == 0.0


def test_line_tables_are_graph_backed(env):
    table = env.cost_table("alexnet", 10.0)
    assert table.graph is not None
    general = env.cost_table("googlenet", 10.0)
    assert general.graph is None  # synthesized from the Pareto frontier


def test_multitask_and_inception_classified_general(env):
    assert not env.treats_as_line("multitask-perception")
    assert not env.treats_as_line("mini-inception")
    assert env.treats_as_line("squeezenet")


def test_harness_cell_is_the_engine_plan_on_a_dag_model(env):
    """Inception-v4 is not series-parallel: the harness must plan it on
    the engine's DAG cut table, as ``repro plan`` does, not on a
    frontier enumeration of its own."""
    cell = env.run_scheme("inception-v4", 5.85, 10, "JPS")
    planned = env.engine.plan("inception-v4", 10, env.channel(5.85))
    assert cell.makespan == planned.makespan
    assert cell.method == planned.method
    assert env.cost_table("inception-v4", 5.85).model_name.endswith("/dag")
