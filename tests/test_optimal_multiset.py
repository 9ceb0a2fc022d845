"""The exact multiset scheduler behind the DAG planner and brute force.

:func:`repro.core.partition.optimal_multiset` is a dynamic program over
the cut positions in Johnson rank. These tests hold it to the exhaustive
oracles on the dyadic grid (where every sum is exact), to an inline
multiset sweep on tables full of ties, and to the structure of the
optimum on inception-v4's DAG plans: one more job never costs less, nor
more than a job of its own.
"""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import as_channel
from repro.core.analysis import fractional_lower_bound
from repro.core.baselines import brute_force, local_only
from repro.core.joint import jps_line
from repro.core.partition import optimal_multiset, split_best_pair
from repro.core.scheduling import johnson_order
from repro.faults import oracle
from repro.faults.oracle import (
    check_instance,
    exhaustive_optimal,
    random_line_table,
    split_best_pair_scalar,
)
from tests.helpers import make_table

#: Stage lengths that collide: exact ties, zeros and one-ulp neighbours.
TIE_VALUES = (0.0, 0.1, 0.2, 0.3, 1.0, 2.0**-53, 2.0**-52)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def recurrence(table, positions) -> float:
    c1 = c2 = 0.0
    for p in positions:
        f, g = table.stage_lengths(p)
        c1 += f
        c2 = max(c2, c1) + g
    return c2


def swept_optimum(table, n, candidates) -> float:
    """Every multiset in Johnson order, by the recurrence: the old menu."""
    stages = [table.stage_lengths(p) for p in range(table.k)]
    rank = {p: r for r, p in enumerate(johnson_order(stages))}
    return min(
        recurrence(table, sorted(combo, key=rank.__getitem__))
        for combo in combinations_with_replacement(candidates, n)
    )


@st.composite
def tie_tables(draw):
    k = draw(st.integers(1, 8))
    f = sorted(draw(st.lists(st.sampled_from(TIE_VALUES), min_size=k, max_size=k)))
    g = draw(st.lists(st.sampled_from(TIE_VALUES), min_size=k, max_size=k))
    return make_table(f, g)


# ----------------------------------------------------------------------
# against the oracles
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 8), n=st.integers(1, 6))
def test_brute_force_is_the_exhaustive_optimum(seed, k, n):
    table = random_line_table(seed, k)
    optimum = exhaustive_optimal(table, n).makespan
    assert brute_force(table, n).makespan == optimum
    assert fractional_lower_bound(table, n) <= optimum + oracle.TOLERANCE
    assert optimum <= split_best_pair(table, n).makespan <= jps_line(table, n).makespan


@settings(max_examples=60, deadline=None)
@given(table=tie_tables(), n=st.integers(1, 6), data=st.data())
def test_optimum_never_above_the_multiset_sweep_on_tie_heavy_tables(table, n, data):
    """Ties are not pinned to the sweep's first-found multiset, but the
    optimum is never worse than it, and never better by more than the
    sweep's 1e-15 improvement threshold lets it miss."""
    candidates = sorted(
        data.draw(st.sets(st.integers(0, table.k - 1), min_size=1), label="positions")
    )
    makespan, positions = optimal_multiset(table, n, candidates)
    swept = swept_optimum(table, n, candidates)
    assert makespan <= swept
    assert swept - makespan <= 1e-15
    # the positions are a multiset of the candidates, in Johnson order,
    # and the recurrence over them gives back the makespan
    assert len(positions) == n and set(positions) <= set(candidates)
    stages = [table.stage_lengths(p) for p in positions]
    assert johnson_order(stages) == list(range(n))
    assert recurrence(table, positions) == makespan


def test_check_instance_reports_a_brute_force_miss(monkeypatch):
    """The line oracle's fuzz covers the scheduler: a brute force that
    misses the exhaustive optimum is a mismatch."""
    table = make_table([0.0, 2.0], [1.0, 0.0])  # optimum 2 s, local-only 4 s
    assert check_instance(table, 2).mismatches == ()
    monkeypatch.setattr(oracle, "brute_force", local_only)
    (mismatch,) = check_instance(table, 2).mismatches
    assert mismatch.startswith("brute_force missed the exhaustive optimum")


# ----------------------------------------------------------------------
# the incumbent: the vectorized best pair split
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 8), n=st.integers(1, 12), data=st.data())
def test_split_best_pair_matches_the_scalar_sweep(seed, k, n, data):
    """Bit for bit, split included, on dyadic tables and on float tables
    whose ``g`` is not monotone (so some pairs run the later position first)."""
    if data.draw(st.booleans(), label="dyadic"):
        table = random_line_table(seed, k)
    else:
        rng = np.random.default_rng(seed)
        table = make_table(np.sort(rng.random(k)), rng.random(k))
    assert split_best_pair(table, n) == split_best_pair_scalar(table, n)


# ----------------------------------------------------------------------
# at scale
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mbps", [1.1, 5.85, 18.88, 40.0])
def test_dag_plans_grow_by_at_most_one_job_per_job(env, mbps):
    """inception-v4's DAG plans: ``plan(n) <= plan(n + 1) <= plan(n) +
    plan(1)`` — dropping a job never hurts, and a job appended at the
    best single cut costs at most its own ``f + g``. A budgeted search
    breaks the second (4G, n = 11: 16.68 s > 12.37 + 1.55 s)."""
    channel = as_channel(mbps)
    makespans = [
        env.engine.plan("inception-v4", n, channel).makespan for n in range(1, 32)
    ]
    single = makespans[0]
    for now, later in zip(makespans, makespans[1:]):
        assert now <= later * (1 + 1e-12)
        assert later <= (now + single) * (1 + 1e-12)

