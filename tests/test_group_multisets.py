"""The exact scheduler on mixed-model job sets.

:func:`repro.core.partition.optimal_multisets` runs every group's (model,
position) pairs through one joint Johnson rank. These tests hold it to
an exhaustive search over every group's multisets times every distinct
order, scored by the line oracle's critical-path identity on the dyadic
grid (where every sum is exact), and pin the two mixes of
``extensions_heterogeneous.txt``.
"""

from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import brute_force
from repro.core.partition import optimal_multiset, optimal_multisets
from repro.core.scheduling import flow_shop_makespan, johnson_order
from repro.extensions.heterogeneous import ModelJobs, jps_heterogeneous
from repro.faults.oracle import _order_makespans, random_line_table

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: Most jobs over all groups of one instance: every order of every
#: multiset is priced, so the search grows factorially with it.
MAX_JOBS = 5


def exhaustive_optimum(groups) -> float:
    """Every group's multisets x every distinct order of their union."""
    best = float("inf")
    for combos in product(
        *(combinations_with_replacement(range(table.k), n) for table, n in groups)
    ):
        stages = [
            groups[m][0].stage_lengths(p) for m, combo in enumerate(combos) for p in combo
        ]
        orders = np.array(sorted(set(permutations(stages))))
        best = min(best, float(_order_makespans(orders).min()))
    return best


@st.composite
def mixed_groups(draw):
    """1-3 dyadic line tables (k <= 4) with 1-3 jobs each, <= MAX_JOBS in all."""
    groups, budget = [], MAX_JOBS
    for _ in range(draw(st.integers(1, 3))):
        if budget == 0:
            break
        table = random_line_table(draw(SEEDS), draw(st.integers(1, 4)))
        n = draw(st.integers(1, min(3, budget)))
        groups.append((table, n))
        budget -= n
    return groups


@settings(max_examples=40, deadline=None)
@given(groups=mixed_groups())
def test_group_optimum_is_the_exhaustive_optimum(groups):
    makespan, order = optimal_multisets([(table, n, range(table.k)) for table, n in groups])
    assert makespan == exhaustive_optimum(groups)
    # every group's jobs, in Johnson order, and the recurrence gives the makespan back
    assert [sum(1 for m, _ in order if m == index) for index in range(len(groups))] == [
        n for _, n in groups
    ]
    stages = [groups[m][0].stage_lengths(p) for m, p in order]
    assert johnson_order(stages) == list(range(len(order)))
    assert flow_shop_makespan(stages) == makespan


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 6), n1=st.integers(1, 8), n2=st.integers(1, 8))
def test_two_groups_of_one_table_are_one_group(seed, k, n1, n2):
    """Jobs of one table split over two groups reach the optimum of one
    group of them all: past exhaustive reach, against the one-group path."""
    table = random_line_table(seed, k)
    makespan, _ = optimal_multisets([(table, n1, range(k)), (table, n2, range(k))])
    assert makespan == optimal_multiset(table, n1 + n2)[0]


@pytest.mark.parametrize(
    ("left", "right", "optimum"),
    [("alexnet", "mobilenet-v2", 3.818), ("resnet18", "googlenet", 11.927)],
)
def test_committed_mixes_reach_the_exact_optimum(env, left, right, optimum):
    """20 + 20 jobs at 10 Mbps, as in ``extensions_heterogeneous.txt``;
    the schedule's makespan is re-scored from its jobs."""
    a = ModelJobs(table=env.cost_table(left, 10.0), count=20)
    b = ModelJobs(table=env.cost_table(right, 10.0), count=20)
    pooled = jps_heterogeneous([a, b])
    assert round(pooled.makespan, 3) == optimum
    assert flow_shop_makespan([p.stages for p in pooled.jobs]) == pooled.makespan
    back_to_back = brute_force(a.table, 20).makespan + brute_force(b.table, 20).makespan
    assert pooled.makespan < back_to_back
