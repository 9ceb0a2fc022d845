"""``CostTable``'s fused column checks decide and word like per-column ones.

The constructor tests every column at once (one concatenated
finite-and-non-negative test, slice comparisons for monotonicity) and
scans column by column only to word a failure. The reference below is
the per-column form those tests replaced: each column's shape, then its
min/max, then ``np.diff`` for monotonicity. Every drawn table must be
accepted or rejected exactly as the reference decides, with the same
first ``ValueError`` message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.profiling.latency import CostTable

#: Values that sit on the checks' boundaries, mixed into ordinary floats.
SPECIAL = (0.0, -0.0, 1.0, 2.0, -1.0, -1e-300, 5e-324, 1e308, np.nan, np.inf, -np.inf)
TOLERANCES = (0.0, 1e-12, 1e-6, 0.5, -1e-12)


def reference_error(k: int, columns: dict[str, np.ndarray]) -> str | None:
    """The first failure of the per-column checks, or None."""
    if k == 0:
        return "cost table must have at least one position"
    for name in ("f", "g", "cloud"):
        arr = columns[name]
        if arr.shape != (k,):
            return f"{name} must have shape ({k},), got {arr.shape}"
        if not (arr.min() >= 0 and arr.max() < np.inf):
            at = int(np.argmin((arr >= 0) & (arr < np.inf)))
            return f"{name} must be finite and non-negative, got {name}[{at}] = {arr[at]}"
    if np.any(np.diff(columns["f"]) < 0):
        return "f must be non-decreasing"
    if np.any(np.diff(columns["cloud"]) < 0):
        return "cloud must be non-decreasing"
    return None


@st.composite
def column(draw, k: int, order: str) -> np.ndarray:
    """A column of about ``k`` floats, usually sorted as ``order`` says.

    Sorted draws reach the later checks; a special value, a swapped
    pair or a wrong shape then breaks one check at a time.
    """
    value = st.one_of(
        st.sampled_from(SPECIAL), st.floats(0.0, 10.0), st.floats(allow_nan=True)
    )
    ties = st.sampled_from((0.0, 0.5, 1.0))  # few values: runs of equal entries
    values = draw(st.lists(st.one_of(ties, st.floats(0.0, 10.0)), min_size=k, max_size=k))
    values.sort(reverse=order == "down")
    if values and draw(st.booleans()):
        values[draw(st.integers(0, k - 1))] = draw(value)
    if k >= 2 and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, k - 2))
        values[i], values[i + 1] = values[i + 1], values[i]
    arr = np.array(values, dtype=float)
    shape = draw(st.sampled_from(("same",) * 8 + ("long", "short", "column")))
    if shape == "long":
        arr = np.append(arr, 1.0)
    elif shape == "short" and k:
        arr = arr[:-1]
    elif shape == "column":
        arr = arr.reshape(-1, 1)
    return arr


@st.composite
def tables(draw) -> tuple[int, dict[str, np.ndarray]]:
    k = draw(st.integers(0, 6) | st.just(1))
    return k, {
        "f": draw(column(k, "up")),
        "g": draw(column(k, "down")),
        "cloud": draw(column(k, "up")),
    }


def build(k: int, columns: dict[str, np.ndarray]) -> CostTable:
    positions = tuple(f"p{i}" for i in range(k))
    return CostTable("drawn", positions, columns["f"], columns["g"], columns["cloud"])


def _case(f, g, cloud) -> tuple[int, dict[str, np.ndarray]]:
    columns = {"f": np.array(f), "g": np.array(g), "cloud": np.array(cloud)}
    return len(f), columns


@settings(max_examples=600, deadline=None)
@given(tables())
@example(_case([0.0], [0.0], [0.0]))
@example(_case([-0.0, 0.0], [1.0, -0.0], [0.0, -0.0]))
@example(_case([0.0, 1.0], [2.0, 2.0], [0.5, 0.5]))
@example(_case([1.0, 0.5], [1.0, 0.0], [0.0, 0.0]))
@example(_case([0.0, 1.0], [1.0, 0.0], [0.2, 0.1]))
@example(_case([0.0, 1.0], [np.nan, 0.0], [0.2, -1.0]))
@example(_case([0.0, np.inf], [1.0, 0.0], [0.0, 0.0]))
@example(_case([0.0, 1.0], [-np.inf, 0.0], [0.0, 0.0]))
@example((2, {"f": np.zeros(2), "g": np.full(2, np.nan), "cloud": np.zeros(3)}))
@example((0, {"f": np.zeros(0), "g": np.zeros(0), "cloud": np.zeros(0)}))
def test_checks_match_the_per_column_reference(case):
    k, columns = case
    expected = reference_error(k, columns)
    if expected is None:
        table = build(k, columns)
        for tolerance in TOLERANCES:
            assert table.is_g_non_increasing(tolerance) == bool(
                np.all(np.diff(columns["g"]) <= tolerance)
            )
    else:
        with pytest.raises(ValueError) as raised:
            build(k, columns)
        assert str(raised.value) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e6) | st.sampled_from((0.0, -0.0, 1.0)), min_size=1, max_size=40),
    st.sampled_from(TOLERANCES),
)
def test_g_monotonicity_matches_np_diff(g, tolerance):
    g = np.array(g)
    table = CostTable("g", tuple(map(str, range(len(g)))), np.zeros(len(g)), g, np.zeros(len(g)))
    assert table.is_g_non_increasing(tolerance) == bool(np.all(np.diff(g) <= tolerance))
