"""Property tests: vectorized kernels are bit-identical to scalar paths.

The perf layer (lexsort Johnson, cumsum flow shop, ``searchsorted``
crossing, matrix two-type split, run-length schedules, ``plan_batch``)
must never change a single number. Each vectorized entry point is
pinned to its scalar reference in :mod:`repro.faults.oracle` here:

* exact ``==`` on dyadic-grid inputs (multiples of 1/1024), where the
  closed-form cumsum reassociation is provably lossless;
* tight-tolerance equality on arbitrary floats, where only summation
  order may differ;
* tie-heavy inputs drawn from tiny value pools, locking the
  deterministic original-index tiebreak of the stable sort.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    cloud_only,
    local_only,
    partition_only,
    single_job_optimal_cut,
)
from repro.core import partition
from repro.core.joint import jps_line
from repro.core.partition import (
    _SPLIT_ROWS,
    TwoTypeSplit,
    _split_makespan,
    binary_search_cut,
    linear_scan_cut,
    plans_for_split,
    searchsorted_cut,
    split_exact,
    split_jobs,
    two_type_makespans,
)
from repro.core.plans import JobPlan, RunLengthJobs
from repro.core.scheduling import flow_shop_completion_times, johnson_order, schedule_jobs
from repro.engine import PlanningEngine
from repro.experiments.runner import ExperimentEnv
from repro.extensions.memory import feasible_positions, restrict_table
from repro.faults.oracle import (
    flow_shop_completion_times_scalar,
    johnson_order_scalar,
    jps_line_scalar,
    split_exact_scalar,
)
from repro.net.bandwidth import FOUR_G, WIFI, TrafficShaper
from repro.net.channel import Channel
from repro.utils.units import mbps

from tests.helpers import host_free, make_table

# Dyadic rationals: cumsum of these is exactly representable, so the
# closed-form kernel must match the scalar recurrence bit for bit.
dyadic = st.integers(0, 2048).map(lambda v: v / 1024.0)
dyadic_stage = st.tuples(dyadic, dyadic)
float_stage = st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0))

# Tiny value pool: heavy ties in both Johnson groups.
tied = st.sampled_from([0.0, 0.5, 1.0])
tied_stage = st.tuples(tied, tied)


# ----------------------------------------------------------------------
# johnson_order: one stable lexsort == the scalar two-list construction
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(float_stage, max_size=60))
def test_johnson_order_matches_scalar(stages):
    assert johnson_order(stages) == johnson_order_scalar(stages)


@settings(max_examples=200, deadline=None)
@given(st.lists(tied_stage, max_size=40))
def test_johnson_order_ties_keep_index_order(stages):
    order = johnson_order(stages)
    assert order == johnson_order_scalar(stages)
    # among fully identical jobs the stable sort must keep input order
    by_stage: dict[tuple[float, float], list[int]] = {}
    for position in order:
        by_stage.setdefault(tuple(stages[position]), []).append(position)
    for positions in by_stage.values():
        assert positions == sorted(positions)


# ----------------------------------------------------------------------
# flow_shop_completion_times: cumsum closed form == scalar recurrence
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(dyadic_stage, max_size=60))
def test_flow_shop_bit_identical_on_dyadic_grid(stages):
    assert flow_shop_completion_times(stages) == flow_shop_completion_times_scalar(
        stages
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(float_stage, min_size=1, max_size=60))
def test_flow_shop_close_on_arbitrary_floats(stages):
    vector = np.asarray(flow_shop_completion_times(stages))
    scalar = np.asarray(flow_shop_completion_times_scalar(stages))
    np.testing.assert_allclose(vector, scalar, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# searchsorted_cut == binary_search_cut == linear_scan_cut
# ----------------------------------------------------------------------

@st.composite
def monotone_tables(draw):
    """Valid CostTables: f/cloud non-decreasing, g non-increasing."""
    k = draw(st.integers(2, 20))
    f = np.cumsum(draw(st.lists(dyadic, min_size=k, max_size=k)))
    g = np.sort(np.asarray(draw(st.lists(dyadic, min_size=k, max_size=k))))[::-1]
    if draw(st.booleans()):
        g = g.copy()
        g[-1] = 0.0  # the full-local cut uploads nothing
    cloud = np.cumsum(draw(st.lists(dyadic, min_size=k, max_size=k)))
    return make_table(f=f, g=g.copy(), cloud=cloud)


@settings(max_examples=200, deadline=None)
@given(table=monotone_tables())
def test_searchsorted_cut_matches_binary_and_linear(table):
    l_star = searchsorted_cut(table)
    assert l_star == binary_search_cut(table)
    assert l_star == linear_scan_cut(table)


def test_searchsorted_cut_rejects_non_monotone_g():
    table = make_table(f=[0.0, 1.0, 2.0], g=[1.0, 3.0, 0.0])
    with pytest.raises(ValueError, match="not non-increasing"):
        searchsorted_cut(table)


# ----------------------------------------------------------------------
# matrix two-type split == scalar candidate loop
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(table=monotone_tables(), n=st.integers(1, 24))
def test_split_exact_vectorized_matches_scalar(table, n):
    l_star = binary_search_cut(table)
    fast = split_exact(table, l_star, n)
    slow = split_exact_scalar(table, l_star, n)
    assert fast == slow


def test_split_exact_in_row_blocks_matches_scalar(monkeypatch):
    """A split that spans three row blocks equals the scalar sweep, and the
    blocks' rows equal the one-pass matrix. The adjacent cuts' compute
    differs by 2^-40, an arm too flat for the scan window, so every row
    is priced."""
    n = 2 * _SPLIT_ROWS + 88
    table = make_table(f=[0.0, 0.25, 0.25 + 2.0**-40, 1.5], g=[2.0, 0.625, 0.125, 0.0])
    l_star = binary_search_cut(table)
    assert l_star == 2
    priced = []

    def spy(stage_a, stage_b, n, start, stop):
        priced.append((start, stop))
        return two_type_makespans(stage_a, stage_b, n, start, stop)

    monkeypatch.setattr(partition, "two_type_makespans", spy)
    assert split_exact(table, l_star, n) == split_exact_scalar(table, l_star, n)
    rows = [(0, _SPLIT_ROWS), (_SPLIT_ROWS, 2 * _SPLIT_ROWS), (2 * _SPLIT_ROWS, n + 1)]
    assert priced == rows
    stages = table.stage_lengths(l_star - 1), table.stage_lengths(l_star)
    blocks = [two_type_makespans(*stages, n, start, stop) for start, stop in rows]
    assert np.array_equal(np.concatenate(blocks), two_type_makespans(*stages, n))


@settings(max_examples=100, deadline=None)
@given(table=monotone_tables(), n=st.integers(1, 16))
def test_two_type_makespan_rows_match_split_makespan(table, n):
    l_star = binary_search_cut(table)
    if l_star == 0:
        return  # no comm-heavy type exists; split degenerates
    makespans = two_type_makespans(
        table.stage_lengths(l_star - 1), table.stage_lengths(l_star), n
    )
    assert makespans.shape == (n + 1,)
    for n_a in range(n + 1):
        assert makespans[n_a] == _split_makespan(table, l_star, n_a, n - n_a)


# ----------------------------------------------------------------------
# run-length schedules == the scalar composition over eager plans
# ----------------------------------------------------------------------

@st.composite
def line_plans(draw):
    """(table, n, split): n up to 300, but 24 for the O(k^2 n) pair search."""
    split = draw(st.sampled_from(["exact", "ratio", "pair"]))
    n = draw(st.integers(1, 24 if split == "pair" else 300))
    return draw(monotone_tables()), n, split


@settings(max_examples=100, deadline=None)
@given(case=line_plans())
# a table that never crosses (f < g at the last position) once divided
# by zero in the paper's ratio split
@example(case=(make_table(f=[0.0, 0.0], g=[2.0**-10, 2.0**-10]), 1, "ratio"))
def test_jps_line_matches_scalar_reference_document(case):
    table, n, split = case
    ours = jps_line(table, n, split)
    reference = jps_line_scalar(table, n, split)
    assert isinstance(ours.jobs, RunLengthJobs)
    # byte for byte: makespan, metadata, job order and ids
    assert json.dumps(host_free(ours)) == json.dumps(host_free(reference))


@pytest.mark.parametrize("split", ["ratio", "exact", "pair"])
def test_jps_line_plans_memory_restricted_tables(split):
    """AlexNet under 1-64 MiB budgets at the paper's and two more rates.

    A budget can drop the g = 0 endpoint, and half of these 16 tables
    never cross; every split still plans each one on the crossing (or
    final) position, the scalar reference agreeing byte for byte.
    """
    env = ExperimentEnv()
    never_cross = 0
    for budget_mib in (1, 4, 16, 64):
        for rate in (1.1, 5.85, 18.88, 40.0):
            full = env.engine.cost_table("alexnet", env.channel(rate))
            table = restrict_table(full, feasible_positions(full, budget_mib * 2**20))
            never_cross += bool(table.f[-1] < table.g[-1])
            ours = jps_line(table, 10, split)
            reference = jps_line_scalar(table, 10, split)
            assert json.dumps(host_free(ours)) == json.dumps(host_free(reference))
            if split == "ratio" and table.f[-1] < table.g[-1]:
                assert ours.metadata["n_b"] == 10
                assert ours.metadata["cut_b"] == table.positions[-1]
    assert never_cross == 8


@settings(max_examples=100, deadline=None)
@given(
    table=monotone_tables(),
    picks=st.tuples(st.integers(0, 19), st.integers(0, 19)),
    counts=st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(any),
)
def test_split_jobs_is_johnson_order_of_eager_plans(table, picks, counts):
    """Any split, in either position order: the runs reproduce
    ``schedule_jobs`` over ``plans_for_split``, ids included."""
    position_a, position_b = (p % table.k for p in picks)
    split = TwoTypeSplit(position_a, position_b, *counts, makespan=0.0)
    eager = schedule_jobs(plans_for_split(table, split)).jobs
    assert split_jobs(table, split) == eager


def _eager_uniform(table, position: int, n: int, method: str):
    f, g = table.stage_lengths(position)
    plans = [
        JobPlan(
            job_id=i,
            model=table.model_name,
            cut_position=position,
            compute_time=f,
            comm_time=g,
            cloud_time=table.cloud_rest(position),
            cut_label=table.positions[position],
        )
        for i in range(n)
    ]
    return schedule_jobs(plans, method=method)


@settings(max_examples=100, deadline=None)
@given(table=monotone_tables(), n=st.integers(1, 300))
def test_baselines_match_schedule_jobs_over_eager_plans(table, n):
    for scheme, position in (
        (local_only, table.k - 1),
        (cloud_only, 0),
        (partition_only, single_job_optimal_cut(table)),
    ):
        ours = scheme(table, n)
        eager = _eager_uniform(table, position, n, ours.method)
        assert ours.makespan == eager.makespan
        assert ours.jobs == eager.jobs and tuple(ours.jobs) == eager.jobs


# ----------------------------------------------------------------------
# plan_batch == per-call plan()/run_scheme() over real models
# ----------------------------------------------------------------------

BATCH_MODELS = ["alexnet", "googlenet"]  # one line model, one frontier model
BATCH_SCHEMES = ["LO", "CO", "PO", "JPS"]
BATCH_BANDWIDTHS = [1.0, FOUR_G, WIFI, 40.0]
#: every frontier model of the zoo, beside the line model
CELL_MODELS = BATCH_MODELS + ["mini-inception", "multitask-perception"]
#: one line, one frontier and one DAG model under ``auto``
GRID_MODELS = BATCH_MODELS + ["inception-v4"]
GRID_STRUCTURES = ["auto", "line", "frontier", "dag"]
#: (scheme, split) pairs: every scheme, and JPS with the ratio split
GRID_TERMS = [(scheme, "exact") for scheme in BATCH_SCHEMES] + [("JPS", "ratio")]


@pytest.fixture(scope="module")
def batch_env():
    return ExperimentEnv()


@pytest.mark.parametrize("model", CELL_MODELS)
@pytest.mark.parametrize("scheme", BATCH_SCHEMES)
def test_plan_batch_matches_per_cell_run_scheme(batch_env, model, scheme):
    """A harness sweep equals its cells, and each cell is the schedule
    :meth:`PlanningEngine.plan` (what ``repro plan`` prints) returns:
    method, model name, cuts and mobile node sets included."""
    n = 12
    batch = batch_env.run_scheme_batch(model, list(BATCH_BANDWIDTHS), n, scheme)
    assert len(batch) == len(BATCH_BANDWIDTHS)
    for bandwidth, ours in zip(BATCH_BANDWIDTHS, batch):
        cell = batch_env.run_scheme(model, bandwidth, n, scheme)
        planned = batch_env.engine.plan(model, n, batch_env.channel(bandwidth), scheme=scheme)
        assert host_free(ours) == host_free(cell) == host_free(planned)


def _channel_at(uplink_bps: float) -> Channel:
    """The channel plan_batch's default pricing terms correspond to."""
    return Channel(
        shaper=TrafficShaper(uplink_bps=uplink_bps, downlink_bps=2 * uplink_bps)
    )


def test_plan_batch_matches_per_call_plan_over_bandwidth_grid():
    """plan_batch (one pricing kernel) == per-channel plan() (one cost
    table per channel) for every model kind, structure, scheme and split:
    the structure picks the table every scheme plans on, on both paths."""
    engine = PlanningEngine()
    rates = [mbps(b) for b in np.linspace(0.5, 60.0, 24)]
    n = 8
    differing = []
    for model in GRID_MODELS:
        for structure in GRID_STRUCTURES:
            for scheme, split in GRID_TERMS:
                batch = engine.plan_batch(
                    model, n, rates, scheme=scheme, structure=structure, split=split
                )
                for rate, ours in zip(rates, batch):
                    theirs = engine.plan(
                        model,
                        n,
                        _channel_at(rate),
                        scheme=scheme,
                        structure=structure,
                        split=split,
                    )
                    if host_free(ours) != host_free(theirs):
                        differing.append((model, structure, scheme, split))
                        break
    assert differing == []


@settings(max_examples=25, deadline=None)
@given(
    bandwidths=st.lists(st.floats(0.1, 200.0), min_size=1, max_size=6),
    n=st.integers(1, 6),
)
def test_plan_batch_property_random_grids(bandwidths, n):
    engine = _PROPERTY_ENGINE
    rates = [mbps(b) for b in bandwidths]
    batch = engine.plan_batch("alexnet", n, rates)
    for rate, ours in zip(rates, batch):
        theirs = engine.plan("alexnet", n, _channel_at(rate))
        assert ours.makespan == theirs.makespan
        assert [p.stages for p in ours.jobs] == [p.stages for p in theirs.jobs]


#: Shared across hypothesis examples so the structure/pricing caches warm
#: once — the property is about numbers, not cache state.
_PROPERTY_ENGINE = PlanningEngine()
