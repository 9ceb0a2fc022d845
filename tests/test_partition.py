"""Alg. 2 binary search, the ratio rule, and two-type splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import brute_force, cloud_only, local_only, partition_only
from repro.core.joint import jps_line
from repro.core.partition import (
    binary_search_cut,
    linear_scan_cut,
    optimal_multiset,
    partition_ratio,
    plans_for_split,
    split_best_pair,
    split_by_paper_ratio,
    split_exact,
)
from repro.core.scheduling import flow_shop_makespan, johnson_order

from tests.helpers import make_table


# ----------------------------------------------------------------------
# binary search
# ----------------------------------------------------------------------

def test_binary_search_finds_crossing(simple_table):
    l_star = binary_search_cut(simple_table)
    assert simple_table.f[l_star] >= simple_table.g[l_star]
    if l_star > 0:
        assert simple_table.f[l_star - 1] < simple_table.g[l_star - 1]


def test_binary_search_matches_linear_scan(simple_table, alexnet_table):
    for table in (simple_table, alexnet_table):
        assert binary_search_cut(table) == linear_scan_cut(table)


def test_binary_search_crossing_at_zero():
    table = make_table(f=[0.5, 1.0, 1.5], g=[0.4, 0.2, 0.0])
    assert binary_search_cut(table) == 0


def test_binary_search_crossing_at_end():
    # g dominates everywhere except the forced-zero final position
    table = make_table(f=[0.0, 0.1, 0.2], g=[9.0, 8.0, 0.0])
    assert binary_search_cut(table) == 2


def test_binary_search_requires_monotone_g():
    table = make_table(f=[0.0, 1.0, 2.0], g=[1.0, 3.0, 0.0])
    with pytest.raises(ValueError, match="not non-increasing"):
        binary_search_cut(table)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 40),
    slope=st.floats(0.01, 2.0),
    scale=st.floats(0.1, 50.0),
    decay=st.floats(0.05, 1.5),
)
def test_binary_search_equals_scan_on_random_monotone_tables(k, slope, scale, decay):
    idx = np.arange(k, dtype=float)
    f = slope * idx
    g = scale * np.exp(-decay * idx)
    g[-1] = 0.0
    g = np.minimum.accumulate(g)
    table = make_table(f, g)
    assert binary_search_cut(table) == linear_scan_cut(table)


# ----------------------------------------------------------------------
# ratio rule
# ----------------------------------------------------------------------

def test_partition_ratio_hand_computed():
    # f = [0, 3], g = [5, 1]: surplus_comm(l*-1) = 5, surplus_comp(l*) = 2
    table = make_table(f=[0.0, 3.0], g=[5.0, 1.0])
    assert binary_search_cut(table) == 1
    assert partition_ratio(table, 1) == 0  # floor(2 / 5)
    # flip the magnitudes: comm surplus 1, comp surplus 6 -> ratio 6
    table2 = make_table(f=[1.0, 8.0], g=[2.0, 2.0])
    assert partition_ratio(table2, 1) == 6


def test_partition_ratio_guards():
    table = make_table(f=[0.0, 3.0], g=[5.0, 1.0])
    with pytest.raises(ValueError, match="undefined"):
        partition_ratio(table, 0)
    bad = make_table(f=[6.0, 7.0], g=[5.0, 1.0])  # position 0 already comp-heavy
    with pytest.raises(ValueError, match="not communication-heavy"):
        partition_ratio(bad, 1)


# ----------------------------------------------------------------------
# splits
# ----------------------------------------------------------------------

def test_split_exact_beats_or_matches_ratio(simple_table):
    l_star = binary_search_cut(simple_table)
    for n in (1, 2, 5, 10, 50):
        exact = split_exact(simple_table, l_star, n)
        paper = split_by_paper_ratio(simple_table, l_star, n)
        assert exact.total_jobs == paper.total_jobs == n
        assert exact.makespan <= paper.makespan + 1e-12


def test_split_exact_is_optimal_over_the_pair(simple_table):
    l_star = binary_search_cut(simple_table)
    n = 7
    exact = split_exact(simple_table, l_star, n)
    stages_a = simple_table.stage_lengths(l_star - 1)
    stages_b = simple_table.stage_lengths(l_star)

    def johnson_makespan(stages):
        order = johnson_order(stages)
        return flow_shop_makespan([stages[i] for i in order])

    best = min(
        johnson_makespan([stages_a] * n_a + [stages_b] * (n - n_a))
        for n_a in range(n + 1)
    )
    assert exact.makespan == pytest.approx(best)


def test_split_at_exact_crossing_uses_single_layer():
    table = make_table(f=[0.0, 2.0, 4.0], g=[4.0, 2.0, 0.0])  # f(1) == g(1)
    split = split_by_paper_ratio(table, 1, 10)
    assert split.n_a == 0 and split.n_b == 10
    assert split.position_a == split.position_b == 1


def test_split_crossing_at_zero_single_layer():
    table = make_table(f=[0.5, 1.0], g=[0.4, 0.0])
    for splitter in (split_by_paper_ratio, split_exact):
        split = splitter(table, 0, 5)
        assert split.n_a == 0 and split.n_b == 5


def test_split_validations(simple_table):
    l_star = binary_search_cut(simple_table)
    with pytest.raises(ValueError):
        split_by_paper_ratio(simple_table, l_star, 0)
    with pytest.raises(ValueError):
        split_exact(simple_table, l_star, 0)


@pytest.mark.parametrize(
    "entry",
    [
        jps_line,
        lambda table, n: split_by_paper_ratio(table, binary_search_cut(table), n),
        lambda table, n: split_exact(table, binary_search_cut(table), n),
        split_best_pair,
        optimal_multiset,
        brute_force,
        local_only,
        cloud_only,
        partition_only,
    ],
    ids=[
        "jps_line",
        "split_by_paper_ratio",
        "split_exact",
        "split_best_pair",
        "optimal_multiset",
        "brute_force",
        "local_only",
        "cloud_only",
        "partition_only",
    ],
)
@pytest.mark.parametrize("n", [2.5, 3.0])
def test_core_entry_points_reject_a_non_integer_job_count(simple_table, entry, n):
    with pytest.raises(ValueError, match="n must be an integer"):
        entry(simple_table, n)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 30),
    f_a=st.floats(0.0, 5.0),
    comm_surplus=st.floats(0.01, 5.0),
    g_b=st.floats(0.0, 5.0),
    comp_surplus=st.floats(0.01, 5.0),
)
def test_split_exact_never_worse_than_all_one_type(n, f_a, comm_surplus, g_b, comp_surplus):
    """Mixing two types never loses to either homogeneous choice."""
    f = [f_a, g_b + comp_surplus]
    g = [f_a + comm_surplus, g_b]
    if g[1] > g[0] or f[1] < f[0]:  # keep the table monotone
        return
    table = make_table(f=f, g=g)
    exact = split_exact(table, 1, n)
    all_a = flow_shop_makespan([table.stage_lengths(0)] * n)
    all_b = flow_shop_makespan([table.stage_lengths(1)] * n)
    assert exact.makespan <= min(all_a, all_b) + 1e-9


def test_plans_for_split_materialization(simple_table):
    l_star = binary_search_cut(simple_table)
    split = split_exact(simple_table, l_star, 6)
    plans = plans_for_split(simple_table, split)
    assert len(plans) == 6
    assert [p.job_id for p in plans] == list(range(6))
    n_a = sum(p.cut_position == split.position_a for p in plans)
    assert n_a == split.n_a or split.position_a == split.position_b
    for plan in plans:
        f, g = simple_table.stage_lengths(plan.cut_position)
        assert plan.compute_time == f and plan.comm_time == g


def test_plans_carry_mobile_nodes_for_graph_tables(alexnet_table):
    l_star = binary_search_cut(alexnet_table)
    plans = plans_for_split(alexnet_table, split_exact(alexnet_table, l_star, 4))
    assert all(plan.mobile_nodes is not None for plan in plans)


def test_split_best_pair_dominates_adjacent(alexnet_table, env):
    for model, bandwidth in (("alexnet", 10.0), ("vgg16", 10.0), ("vgg16", 2.0)):
        table = env.cost_table(model, bandwidth)
        from repro.core.partition import split_best_pair

        l_star = binary_search_cut(table)
        adjacent = split_exact(table, l_star, 20)
        pair = split_best_pair(table, 20)
        assert pair.makespan <= adjacent.makespan + 1e-12
        assert pair.total_jobs == 20


def test_split_best_pair_matches_brute_force_two_type(simple_table):
    """On a small table, the all-pairs split equals the best two-support
    multiset found by full brute force (BF may also use >2 supports)."""
    from itertools import combinations_with_replacement

    from repro.core.partition import split_best_pair

    n = 5
    pair = split_best_pair(simple_table, n)
    best = float("inf")
    for combo in combinations_with_replacement(range(simple_table.k), n):
        if len(set(combo)) > 2:
            continue
        stages = [simple_table.stage_lengths(p) for p in combo]
        order = johnson_order(stages)
        best = min(best, flow_shop_makespan([stages[i] for i in order]))
    assert pair.makespan == pytest.approx(best)


def test_split_best_pair_validation(simple_table):
    from repro.core.partition import split_best_pair

    with pytest.raises(ValueError):
        split_best_pair(simple_table, 0)
