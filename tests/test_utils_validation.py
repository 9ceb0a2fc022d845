"""Argument validation helpers."""

import math

import numpy as np
import pytest

from repro.utils import validation as v


def test_require_passes_and_fails():
    v.require(True, "fine")
    with pytest.raises(ValueError, match="broken"):
        v.require(False, "broken")


def test_require_positive():
    assert v.require_positive(0.5, "x") == 0.5
    with pytest.raises(ValueError, match="x must be > 0"):
        v.require_positive(0, "x")


def test_require_positive_integer():
    assert v.require_positive_integer(3, "n") == 3
    assert v.require_positive_integer(np.int64(2), "n") == 2
    for bad in (0, -1, 2.5, 2.0, True, False, None, "3"):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {bad!r}"):
            v.require_positive_integer(bad, "n")


def test_require_non_negative():
    assert v.require_non_negative(0, "x") == 0
    with pytest.raises(ValueError):
        v.require_non_negative(-1e-9, "x")
    with pytest.raises(ValueError, match="x must be >= 0, got nan"):
        v.require_non_negative(math.nan, "x")


def test_require_in_range():
    assert v.require_in_range(5, 0, 10, "x") == 5
    with pytest.raises(ValueError):
        v.require_in_range(11, 0, 10, "x")


def test_require_index():
    assert v.require_index(2, 5, "i") == 2
    with pytest.raises(IndexError):
        v.require_index(5, 5, "i")
    with pytest.raises(TypeError):
        v.require_index(1.5, 5, "i")  # type: ignore[arg-type]


def test_require_same_length():
    v.require_same_length([1, 2], [3, 4], "a", "b")
    with pytest.raises(ValueError, match="same length"):
        v.require_same_length([1], [2, 3], "a", "b")


def test_require_non_empty():
    v.require_non_empty([1], "xs")
    with pytest.raises(ValueError, match="must not be empty"):
        v.require_non_empty([], "xs")


def test_require_non_empty_consumes_only_head_of_generator():
    def gen():
        yield 1
        raise RuntimeError("must not be reached")

    v.require_non_empty(gen(), "xs")


def test_require_sorted_non_decreasing():
    v.require_sorted_non_decreasing([1, 1, 2], "xs")
    with pytest.raises(ValueError, match="index 2"):
        v.require_sorted_non_decreasing([1, 3, 2], "xs")
