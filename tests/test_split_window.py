"""The scan window of the exact two-type split.

:func:`~repro.core.partition.split_exact` prices only the splits that
can decide its scan: the few around the minimum of the convex critical
path, or every split where rounding cannot tell the rows apart. These
tests pin the choice to the scalar sweep over every split, bit for bit
on arbitrary floats, and count the rows it prices.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import list_models
from repro.core import partition
from repro.core.partition import binary_search_cut, split_exact
from repro.faults.oracle import split_exact_scalar
from tests.helpers import make_table

#: Values that tie across stages and sit at the bottom of the ulp scale.
TIE_POOL = (0.0, 2.0**-53, 2.0**-52, 0.1, 0.25, 0.5, 1.0)

#: The ``plan_zoo`` sweep's models: the zoo without its one DAG model.
ZOO = [m for m in list_models() if m != "inception-v4"]


def _fields(split) -> tuple:
    return (split.position_a, split.position_b, split.n_a, split.n_b, split.makespan.hex())


def _ulps_away(value: float, count: int) -> float:
    """``value`` moved ``count`` ulps (down where negative), kept >= 0."""
    for _ in range(abs(count)):
        value = math.nextafter(value, math.copysign(math.inf, count))
    return max(value, 0.0)


@st.composite
def two_position_tables(draw):
    """A two-position line table at one scale from 1e-8 to 1e4: arbitrary
    floats or tie-pool values, the second cut's stages 0-3 ulp from the
    first's where the draw says so."""
    scale = 10.0 ** draw(st.floats(-8.0, 4.0))
    value = st.one_of(st.floats(0.0, 1.0), st.sampled_from(TIE_POOL))
    f_a, g_a, f_b, g_b = (draw(value) * scale for _ in range(4))
    f_a, f_b = sorted((f_a, f_b))
    g_b, g_a = sorted((g_a, g_b))
    if draw(st.booleans()):
        f_b = _ulps_away(f_a, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        g_b = _ulps_away(g_a, -draw(st.integers(0, 3)))
    return make_table(f=[f_a, f_b], g=[g_a, g_b])


@settings(max_examples=150, deadline=None)
@given(table=two_position_tables(), n=st.integers(1, 300))
def test_split_exact_matches_scalar_sweep_on_arbitrary_floats(table, n):
    l_star = binary_search_cut(table)
    assert _fields(split_exact(table, l_star, n)) == _fields(
        split_exact_scalar(table, l_star, n)
    )


def _first_best(makespans: list[float], start: int = 0) -> tuple[int, str]:
    """The scan :func:`split_exact` runs: the first split that beats the
    best so far by more than 1e-15, with its makespan as ``float.hex``."""
    best, value = start, makespans[0]
    for n_a, makespan in enumerate(makespans, start):
        if makespan < value - 1e-15:
            best, value = n_a, makespan
    return best, value.hex()


@settings(max_examples=300, deadline=None)
@given(
    scale=st.floats(-8.0, 4.0),
    stages=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from(TIE_POOL)), min_size=4, max_size=4
    ),
    n=st.integers(1, 300),
)
# split 0 (every job at the second stage) beats every split on the
# convex piece: only its direct check stops the window short of it
@example(
    scale=0.0,
    stages=[1.3479566387855721, 1.194598500478849, 0.24688945817650595, 1.3652710520980793],
    n=20,
)
# and split n (every job at the first stage) likewise
@example(
    scale=0.0,
    stages=[0.9097040631431023, 0.3749565844198488, 0.41817215137075947, 0.9071301334386506],
    n=6,
)
def test_scanning_the_window_picks_what_scanning_every_split_picks(scale, stages, n):
    """Any two stages, in any order: the window's rows decide the scan."""
    f_a, g_a, f_b, g_b = (value * 10.0**scale for value in stages)
    lo, hi = partition._scan_window((f_a, g_a), (f_b, g_b), n)
    rows = partition.two_type_makespans((f_a, g_a), (f_b, g_b), n).tolist()
    assert _first_best(rows[lo:hi], lo) == _first_best(rows)


@pytest.fixture()
def priced_rows(monkeypatch) -> list[int]:
    """Rows each :func:`~repro.core.partition.two_type_makespans` call prices."""
    rows: list[int] = []
    kernel = partition.two_type_makespans

    def spy(stage_a, stage_b, n, start=0, stop=None):
        rows.append((n + 1 if stop is None else stop) - start)
        return kernel(stage_a, stage_b, n, start, stop)

    monkeypatch.setattr(partition, "two_type_makespans", spy)
    return rows


def test_split_exact_prices_at_most_four_rows_on_the_zoo(env, priced_rows):
    for model in ZOO:
        for rate in (1.1, 5.85, 18.88, 40.0):
            table = env.cost_table(model, rate)
            l_star = binary_search_cut(table)
            for n in (8, 100, 1000):
                priced_rows.clear()
                split_exact(table, l_star, n)
                assert sum(priced_rows) <= 4, (model, rate, n, priced_rows)
    table = env.cost_table("googlenet", 5.85)
    priced_rows.clear()
    split = split_exact(table, binary_search_cut(table), 10**5)
    assert split.total_jobs == 10**5
    assert sum(priced_rows) <= 4


def test_split_exact_prices_every_row_past_a_non_finite_stage(priced_rows):
    """A finite stage whose critical-path sums overflow to inf: the window
    cannot be trusted there, so every split is priced (tables reject a
    non-finite entry outright)."""
    table = make_table(f=[0.0, 1.0, 1e308], g=[4.0, 2.0, 0.0])
    l_star = binary_search_cut(table)
    assert l_star == 2
    with np.errstate(over="ignore"):  # the overflowing rows are the point
        split = split_exact(table, l_star, 10)
        expected = split_exact_scalar(table, l_star, 10)
    assert _fields(split) == _fields(expected)
    assert split.n_a == 10 and math.isfinite(split.makespan)
    assert priced_rows == [11]
