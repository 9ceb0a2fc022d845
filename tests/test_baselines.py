"""LO / CO / PO / brute-force comparison schemes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.analysis import fractional_lower_bound
from repro.core.baselines import (
    brute_force,
    brute_force_search_space,
    cloud_only,
    local_only,
    partition_only,
    single_job_optimal_cut,
)
from repro.core.joint import jps_line
from tests.helpers import make_table


def test_local_only_serializes_compute(simple_table):
    schedule = local_only(simple_table, 5)
    assert schedule.method == "LO"
    assert schedule.makespan == pytest.approx(5 * simple_table.local_only_time)
    assert all(p.comm_time == 0 for p in schedule.jobs)
    assert all(p.cut_position == simple_table.k - 1 for p in schedule.jobs)


def test_cloud_only_serializes_uplink(simple_table):
    schedule = cloud_only(simple_table, 5)
    assert schedule.method == "CO"
    assert schedule.makespan == pytest.approx(5 * simple_table.cloud_only_upload)
    assert all(p.compute_time == 0 for p in schedule.jobs)


def test_single_job_optimal_cut_minimizes_latency(simple_table):
    position = single_job_optimal_cut(simple_table, include_cloud=False)
    totals = simple_table.f + simple_table.g
    assert totals[position] == totals.min()


def test_partition_only_uses_one_cut(simple_table):
    schedule = partition_only(simple_table, 8)
    assert len(schedule.cut_histogram()) == 1
    assert schedule.metadata["cut_position"] == single_job_optimal_cut(simple_table)


def test_po_beats_lo_and_co_single_job(simple_table):
    po = partition_only(simple_table, 1, include_cloud=False)
    lo = local_only(simple_table, 1)
    co = cloud_only(simple_table, 1)
    assert po.makespan <= min(lo.makespan, co.makespan) + 1e-12


def test_brute_force_search_space_formula():
    assert brute_force_search_space(2, 3) == 6        # C(4, 2)
    assert brute_force_search_space(4, 2) == 5        # C(5, 1)


def test_brute_force_small_instance_exact():
    # Fig. 2 as a table: positions (4,6) and (7,2), 2 jobs
    table = make_table(f=[4.0, 7.0], g=[6.0, 2.0])
    schedule = brute_force(table, 2)
    assert schedule.makespan == 13
    assert sorted(schedule.metadata["cut_multiset"]) == [0, 1]


def test_brute_force_reaches_the_papers_job_count(simple_table):
    """No enumeration cap: n = 100 over 8 positions (C(107, 7) multisets)
    is searched exactly, between the LP bound and the paper's JPS."""
    bf = brute_force(simple_table, 100)
    assert bf.metadata["search_space"] == brute_force_search_space(100, simple_table.k)
    assert bf.num_jobs == 100
    assert sorted(bf.metadata["cut_multiset"]) == list(bf.metadata["cut_multiset"])
    assert fractional_lower_bound(simple_table, 100) <= bf.makespan + 1e-9
    assert bf.makespan <= jps_line(simple_table, 100).makespan + 1e-12
    with pytest.raises(ValueError, match="no candidate positions"):
        brute_force(simple_table, 4, positions=[])


def test_brute_force_restricted_positions(simple_table):
    full = brute_force(simple_table, 3)
    restricted = brute_force(simple_table, 3, positions=[0, simple_table.k - 1])
    assert full.makespan <= restricted.makespan + 1e-12


def test_brute_force_never_beaten_by_uniform(simple_table):
    n = 4
    bf = brute_force(simple_table, n)
    for scheme in (local_only, cloud_only, partition_only):
        assert bf.makespan <= scheme(simple_table, n).makespan + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 5),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_brute_force_optimal_over_random_tables(k, n, data):
    """BF <= any uniform cut assignment on random monotone tables."""
    f = np.cumsum(data.draw(st.lists(
        st.floats(0.0, 5.0), min_size=k, max_size=k)))
    g_raw = data.draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k))
    g = np.minimum.accumulate(np.asarray(g_raw))
    table = make_table(f, g)
    bf = brute_force(table, n)
    from repro.core.scheduling import flow_shop_makespan

    for position in range(k):
        uniform = flow_shop_makespan([table.stage_lengths(position)] * n)
        assert bf.makespan <= uniform + 1e-9
