"""JPS end to end: line, frontier, dominance over baselines, vs brute force."""

import numpy as np
import pytest

from repro.core.baselines import brute_force, cloud_only, local_only, partition_only
from repro.core.joint import jps_line
from repro.core.partition import binary_search_cut
from repro.engine import PlanningEngine
from repro.profiling.latency import line_cost_table, smooth_cost_table


@pytest.fixture(scope="module")
def engine(mobile, cloud):
    return PlanningEngine(mobile=mobile, cloud=cloud)


def test_jps_line_metadata(alexnet_table):
    schedule = jps_line(alexnet_table, 10)
    assert schedule.method == "JPS"
    assert schedule.num_jobs == 10
    assert schedule.metadata["l_star"] == binary_search_cut(alexnet_table)
    assert schedule.metadata["n_a"] + schedule.metadata["n_b"] == 10
    assert schedule.metadata["scheduler_overhead_s"] < 0.5


def test_jps_uses_at_most_two_cuts(alexnet_table):
    schedule = jps_line(alexnet_table, 50)
    assert len(schedule.cut_histogram()) <= 2


def test_jps_split_modes(alexnet_table):
    exact = jps_line(alexnet_table, 20, split="exact")
    ratio = jps_line(alexnet_table, 20, split="ratio")
    assert exact.makespan <= ratio.makespan + 1e-12
    with pytest.raises(ValueError, match="split mode"):
        jps_line(alexnet_table, 20, split="magic")


def test_jps_beats_baselines_across_models(env):
    for model in ("alexnet", "mobilenet-v2", "resnet18", "googlenet"):
        for bandwidth in (1.1, 5.85, 18.88):
            table = env.cost_table(model, bandwidth)
            j = jps_line(table, 30)
            assert j.makespan <= local_only(table, 30).makespan + 1e-9
            assert j.makespan <= cloud_only(table, 30).makespan + 1e-9
            assert j.makespan <= partition_only(table, 30).makespan + 1e-9


def test_jps_matches_brute_force_on_smoothed_table(alexnet_table):
    prime = smooth_cost_table(alexnet_table)
    for n in (2, 4, 6):
        j = jps_line(prime, n)
        bf = brute_force(prime, n)
        assert j.makespan <= bf.makespan * 1.15 + 1e-12  # near-optimal


def test_jps_gap_to_brute_force_bounded_on_raw_table(alexnet_table):
    for n in (2, 4, 8):
        j = jps_line(alexnet_table, n)
        bf = brute_force(alexnet_table, n)
        assert bf.makespan <= j.makespan + 1e-12
        assert j.makespan <= bf.makespan * 1.25


def test_frontier_table_is_line_shaped(engine, googlenet, channel_10mbps):
    frontier = engine.frontier_table(googlenet, channel_10mbps)
    table = frontier.table
    assert np.all(np.diff(table.f) >= 0)
    assert table.is_g_non_increasing()
    assert len(frontier.cuts) == table.k
    # boundary cuts: input-only (f=0) and full graph (g=0)
    assert table.f[0] == 0.0
    assert table.g[-1] == 0.0
    # every consecutive pair strictly improves g (Pareto staircase)
    assert all(b < a for a, b in zip(table.g[:-1], table.g[1:]))


def test_frontier_plan_attaches_mobile_sets(engine, googlenet, channel_10mbps):
    schedule = engine.plan(googlenet, 10, channel_10mbps, structure="frontier")
    assert schedule.method == "JPS-frontier"
    assert all(p.mobile_nodes is not None for p in schedule.jobs)
    from repro.dag.cuts import is_downward_closed

    for plan in schedule.jobs:
        assert is_downward_closed(googlenet.graph, plan.mobile_nodes)


def test_jps_dispatch_auto(engine, alexnet, googlenet, channel_10mbps):
    line = engine.plan(alexnet, 5, channel_10mbps)
    assert line.method == "JPS"
    general = engine.plan(googlenet, 5, channel_10mbps)
    assert general.method == "JPS-frontier"
    with pytest.raises(ValueError, match="structure"):
        engine.plan(alexnet, 5, channel_10mbps, structure="nope")


def test_jps_dispatch_paths(engine, mini_inception, channel_10mbps):
    schedule = engine.plan(mini_inception, 4, channel_10mbps, structure="paths")
    assert schedule.method == "JPS-paths"


def test_frontier_beats_linearized_on_general_dag(
    engine, googlenet, mobile, cloud, channel_10mbps
):
    """Keeping intra-module cuts must not hurt (and usually helps)."""
    table = line_cost_table(googlenet, mobile, cloud, channel_10mbps)
    linearized = jps_line(table, 20)
    frontier = engine.plan(googlenet, 20, channel_10mbps, structure="frontier")
    assert frontier.makespan <= linearized.makespan + 1e-9
