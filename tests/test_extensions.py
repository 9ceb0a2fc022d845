"""3-stage flow shop and heterogeneous job sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import brute_force
from repro.core.joint import jps_line
from repro.core.plans import JobPlan
from repro.core.scheduling import flow_shop_makespan
from repro.extensions.flowshop3 import (
    flow_shop3_completion_times,
    flow_shop3_makespan,
    johnson3_order,
    johnson_dominance_holds,
    schedule_jobs_3stage,
    two_stage_approximation_gap,
)
from repro.extensions.heterogeneous import ModelJobs, jps_heterogeneous


# ----------------------------------------------------------------------
# 3-stage flow shop
# ----------------------------------------------------------------------

def test_flow_shop3_hand_computed():
    stages = [(1.0, 2.0, 1.0), (2.0, 1.0, 2.0)]
    completions = flow_shop3_completion_times(stages)
    assert completions == [(1.0, 3.0, 4.0), (3.0, 4.0, 6.0)]
    assert flow_shop3_makespan(stages) == 6.0
    assert flow_shop3_makespan([]) == 0.0
    with pytest.raises(ValueError):
        flow_shop3_makespan([(1.0, -1.0, 0.0)])


def test_zero_cloud_reduces_to_two_stage():
    stages3 = [(1.0, 2.0, 0.0), (3.0, 1.0, 0.0), (2.0, 2.0, 0.0)]
    stages2 = [(f, g) for f, g, _ in stages3]
    assert flow_shop3_makespan(stages3) == pytest.approx(flow_shop_makespan(stages2))


def test_dominance_condition():
    assert johnson_dominance_holds([(5.0, 1.0, 5.0), (6.0, 2.0, 7.0)])  # min f >= max g
    assert not johnson_dominance_holds([(1.0, 5.0, 1.0), (2.0, 4.0, 2.0)])
    assert johnson_dominance_holds([])


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.5, 5.0), st.floats(0.0, 0.4), st.floats(0.5, 5.0)),
        min_size=1,
        max_size=6,
    )
)
def test_johnson3_optimal_under_dominance(stages):
    """When machine 2 is dominated, the surrogate Johnson order is optimal."""
    from itertools import permutations

    assert johnson_dominance_holds(stages)  # f >= 0.5 > 0.4 >= g
    order = johnson3_order(stages)
    achieved = flow_shop3_makespan([stages[i] for i in order])
    best = min(
        flow_shop3_makespan(list(p)) for p in permutations(stages)
    )
    assert achieved == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_two_stage_gap_bounded_by_cloud_times(env):
    """On real cost tables the 2-stage reduction loses < one full cloud pass."""
    table = env.cost_table("alexnet", 5.85)
    schedule = jps_line(table, 20)
    stages = [(p.compute_time, p.comm_time, p.cloud_time) for p in schedule.jobs]
    gap = two_stage_approximation_gap(stages)
    assert 0 <= gap <= max(c for _, _, c in stages) + 1e-9
    # and it is tiny relative to the makespan (the §3.1 assumption quantified)
    assert gap < 0.02 * schedule.makespan


def test_schedule_jobs_3stage_wraps():
    plans = [
        JobPlan(job_id=0, model="m", cut_position=0, compute_time=1, comm_time=3, cloud_time=0.1),
        JobPlan(job_id=1, model="m", cut_position=1, compute_time=4, comm_time=1, cloud_time=0.1),
    ]
    schedule = schedule_jobs_3stage(plans)
    assert schedule.method == "johnson3"
    assert schedule.makespan == flow_shop3_makespan(
        [(p.compute_time, p.comm_time, p.cloud_time) for p in schedule.jobs]
    )


# ----------------------------------------------------------------------
# heterogeneous job sets
# ----------------------------------------------------------------------

def test_heterogeneous_requires_groups():
    with pytest.raises(ValueError):
        jps_heterogeneous([])


def test_heterogeneous_two_models(env):
    a = ModelJobs(table=env.cost_table("alexnet", 5.85), count=10)
    b = ModelJobs(table=env.cost_table("mobilenet-v2", 5.85), count=10)
    mixed = jps_heterogeneous([a, b])
    assert mixed.num_jobs == 20
    models = {p.model for p in mixed.jobs}
    assert len(models) == 2
    # pooling never loses to scheduling the groups back-to-back
    solo_a = jps_line(a.table, a.count).makespan
    solo_b = jps_line(b.table, b.count).makespan
    assert mixed.makespan <= solo_a + solo_b + 1e-9


def test_heterogeneous_single_group_is_the_brute_force_optimum(env):
    table = env.cost_table("alexnet", 5.85)
    hetero = jps_heterogeneous([ModelJobs(table=table, count=12)])
    optimum = brute_force(table, 12)
    assert hetero.makespan == optimum.makespan
    assert hetero.metadata["cut_multisets"] == [optimum.metadata["cut_multiset"]]
    assert [p.job_id for p in sorted(hetero.jobs, key=lambda p: p.job_id)] == list(range(12))


def test_heterogeneous_pooling_beats_the_back_to_back_optimum(env):
    """pooled <= each model's optimum run back to back <= each model's JPS
    run back to back: the joint optimum sees every multiset of both."""
    a = ModelJobs(table=env.cost_table("alexnet", 5.85), count=8)
    b = ModelJobs(table=env.cost_table("resnet18", 5.85), count=8)
    pooled = jps_heterogeneous([a, b])
    optimum = brute_force(a.table, a.count).makespan + brute_force(b.table, b.count).makespan
    jps = jps_line(a.table, a.count).makespan + jps_line(b.table, b.count).makespan
    assert pooled.makespan <= optimum + 1e-9
    assert optimum <= jps + 1e-9
    assert pooled.makespan == flow_shop_makespan([p.stages for p in pooled.jobs])
    multisets = pooled.metadata["cut_multisets"]
    assert [len(m) for m in multisets] == [8, 8]
    assert sorted(p.cut_position for p in pooled.jobs if p.model == a.table.model_name) == list(
        multisets[0]
    )


def test_heterogeneous_rejects_a_non_integer_count(env):
    with pytest.raises(ValueError, match="count must be an integer"):
        ModelJobs(table=env.cost_table("alexnet", 5.85), count=2.5)
