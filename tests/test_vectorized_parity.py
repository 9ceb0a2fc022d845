"""Property tests: vectorized kernels are bit-identical to scalar paths.

The perf layer (lexsort Johnson, cumsum flow shop, ``searchsorted``
crossing, matrix two-type split, ``plan_batch``) must never change a
single number. Each vectorized entry point is pinned to its scalar
oracle here:

* exact ``==`` on dyadic-grid inputs (multiples of 1/1024), where the
  closed-form cumsum reassociation is provably lossless;
* tight-tolerance equality on arbitrary floats, where only summation
  order may differ;
* tie-heavy inputs drawn from tiny value pools, locking the
  deterministic original-index tiebreak of the stable sort.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    _split_makespan,
    binary_search_cut,
    linear_scan_cut,
    searchsorted_cut,
    split_exact,
    split_exact_vectorized,
    two_type_makespans,
)
from repro.core.scheduling import (
    flow_shop_completion_times,
    flow_shop_completion_times_scalar,
    johnson_order,
    johnson_order_scalar,
)
from repro.engine import PlanningEngine
from repro.experiments.runner import ExperimentEnv
from repro.net.bandwidth import WIFI, TrafficShaper
from repro.net.channel import Channel
from repro.utils.units import mbps

from tests.helpers import make_table

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
    fast = split_exact_vectorized(table, l_star, n)
    slow = split_exact(table, l_star, n)
    assert fast == slow


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
# plan_batch == per-call plan()/run_scheme() over real models
# ----------------------------------------------------------------------

BATCH_MODELS = ["alexnet", "googlenet"]  # one line model, one DAG
BATCH_SCHEMES = ["LO", "CO", "PO", "JPS", "JPS-ratio"]
BATCH_BANDWIDTHS = [0.7, 5.0, WIFI, 42.0]


def _engine_terms(scheme: str) -> tuple[str, str]:
    """(scheme, split) for the engine: JPS-ratio is JPS with the ratio split."""
    return ("JPS", "ratio") if scheme == "JPS-ratio" else (scheme, "exact")


@pytest.fixture(scope="module")
def batch_env():
    return ExperimentEnv()


@pytest.mark.parametrize("model", BATCH_MODELS)
@pytest.mark.parametrize("scheme", BATCH_SCHEMES)
def test_plan_batch_matches_per_cell_run_scheme(batch_env, model, scheme):
    """A harness sweep equals its cells, and each cell the per-call plan.

    ``run_scheme`` coerces presets and Mbps rates through
    ``env.channel`` and leaves frontier schedules unwrapped (method
    ``"JPS"``), so against :meth:`PlanningEngine.plan` only the numbers
    and cuts must agree.
    """
    n = 12
    chosen, split = _engine_terms(scheme)
    batch = batch_env.run_scheme_batch(model, list(BATCH_BANDWIDTHS), n, scheme)
    assert len(batch) == len(BATCH_BANDWIDTHS)
    for bandwidth, ours in zip(BATCH_BANDWIDTHS, batch):
        cell = batch_env.run_scheme(model, bandwidth, n, scheme)
        planned = batch_env.engine.plan(
            model, n, batch_env.channel(bandwidth), scheme=chosen, split=split
        )
        assert ours.method == cell.method
        for theirs in (cell, planned):
            assert ours.makespan == theirs.makespan
            assert [p.cut_position for p in ours.jobs] == [
                p.cut_position for p in theirs.jobs
            ]
            assert [p.stages for p in ours.jobs] == [p.stages for p in theirs.jobs]


def _channel_at(uplink_bps: float) -> Channel:
    """The channel plan_batch's default pricing terms correspond to."""
    return Channel(
        shaper=TrafficShaper(uplink_bps=uplink_bps, downlink_bps=2 * uplink_bps)
    )


def test_plan_batch_matches_per_call_plan_over_bandwidth_grid():
    """plan_batch (pricing kernel + ``jps_line_fast``) == per-channel
    plan() (cost tables + scalar ``jps_line``), scheme by scheme."""
    engine = PlanningEngine()
    rates = [mbps(b) for b in np.linspace(0.5, 60.0, 24)]
    n = 8
    for model in BATCH_MODELS:
        for scheme in BATCH_SCHEMES:
            chosen, split = _engine_terms(scheme)
            batch = engine.plan_batch(model, n, rates, scheme=chosen, split=split)
            for rate, ours in zip(rates, batch):
                theirs = engine.plan(
                    model, n, _channel_at(rate), scheme=chosen, split=split
                )
                assert ours.makespan == theirs.makespan
                assert ours.method == theirs.method
                assert ours.metadata.get("split") == theirs.metadata.get("split")
                assert [p.mobile_nodes for p in ours.jobs] == [
                    p.mobile_nodes for p in theirs.jobs
                ]
                assert [p.cut_position for p in ours.jobs] == [
                    p.cut_position for p in theirs.jobs
                ]
                assert [p.stages for p in ours.jobs] == [
                    p.stages for p in theirs.jobs
                ]


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
