"""The fractional lower bound in closed form on the lower-left hull.

:func:`repro.core.analysis.fractional_lower_bound` evaluates the LP
``min t s.t. t >= sum(l f), t >= sum(l g), sum(l) = 1`` where the
hull of the ``(f, g)`` points crosses ``f = g``. ``scipy.optimize.linprog``
stays the oracle on the zoo and on dyadic tables. On tables whose
columns span many decades linprog itself strays (HiGHS solves to a
feasibility tolerance, not to the last bit: ~1e-10 relative here), so
those are held to an exact rational search over the LP's basic
solutions instead.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.api import list_models
from repro.core.analysis import fractional_lower_bound
from repro.faults.oracle import random_line_table
from tests.helpers import make_table

RATES = (1.1, 3.0, 5.85, 10.0, 18.88, 40.0)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: Stage lengths over ten decades, and exact zeros.
WIDE = st.one_of(st.just(0.0), st.floats(1e-6, 1e4))


def linprog_bound(table, n: int) -> float:
    """The LP as ``linprog`` solves it: variables ``l_0..l_{k-1}, t``."""
    k = table.k
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    a_ub = np.zeros((2, k + 1))
    a_ub[0, :k], a_ub[1, :k] = table.f, table.g
    a_ub[:, -1] = -1.0
    a_eq = np.append(np.ones(k), 0.0)[None, :]
    result = optimize.linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(2), A_eq=a_eq, b_eq=np.ones(1),
        bounds=[(0, None)] * (k + 1), method="highs",
    )
    assert result.success, result.message
    return float(n * result.x[-1])


def exact_bound(table, n: int) -> Fraction:
    """The LP's optimum in rationals: a basic solution mixes at most two
    positions, so it is one point's ``max(f, g)`` or the point where a
    segment between two positions crosses ``f = g``."""
    points = [(Fraction(f), Fraction(g)) for f, g in zip(table.f.tolist(), table.g.tolist())]
    best = min(max(f, g) for f, g in points)
    for f0, g0 in points:
        for f1, g1 in points:
            if f0 - g0 < 0 <= f1 - g1:
                share = (g0 - f0) / ((g0 - f0) + (f1 - g1))
                best = min(best, f0 + share * (f1 - f0))
    return n * best


@pytest.mark.parametrize("model", list_models())
def test_closed_form_matches_linprog_on_the_zoo(env, model):
    for rate in RATES:
        table = env.cost_table(model, rate)
        bound = fractional_lower_bound(table, 100)
        assert bound == pytest.approx(linprog_bound(table, 100), rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 12), n=st.integers(1, 1000))
def test_closed_form_matches_linprog_on_dyadic_tables(seed, k, n):
    table = random_line_table(seed, k)
    assert fractional_lower_bound(table, n) == pytest.approx(
        linprog_bound(table, n), rel=1e-12, abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    f=st.lists(WIDE, min_size=1, max_size=10).map(sorted),
    data=st.data(),
    n=st.integers(1, 1000),
)
def test_closed_form_matches_the_exact_optimum_over_ten_decades(f, data, n):
    g = data.draw(st.lists(WIDE, min_size=len(f), max_size=len(f)), label="g")
    table = make_table(f, g)
    bound, exact = fractional_lower_bound(table, n), exact_bound(table, n)
    assert abs(Fraction(bound) - exact) <= Fraction(1e-14) * exact
