"""Small argument-validation helpers shared across the library.

These raise early with descriptive messages so that a bad cost table or a
malformed DAG fails at construction time rather than deep inside a
scheduling loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_finite(value: float, name: str) -> float:
    """Validate that ``value`` is neither NaN nor infinite and return it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_range(value: float, lo: float, hi: float, name: str) -> float:
    """Validate ``lo <= value <= hi`` and return ``value``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def require_index(value: int, length: int, name: str) -> int:
    """Validate that ``value`` is a valid index into a length-``length`` sequence."""
    if not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not (0 <= value < length):
        raise IndexError(f"{name} must be in [0, {length}), got {value}")
    return value


def require_same_length(a: Sequence, b: Sequence, name_a: str, name_b: str) -> None:
    """Validate that two sequences have matching lengths."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length, got {len(a)} and {len(b)}"
        )


def require_non_empty(seq: Iterable, name: str) -> None:
    """Validate that ``seq`` yields at least one element."""
    iterator = iter(seq)
    try:
        next(iterator)
    except StopIteration:
        raise ValueError(f"{name} must not be empty") from None


def require_sorted_non_decreasing(values: Sequence[float], name: str) -> None:
    """Validate that ``values`` is non-decreasing."""
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            raise ValueError(
                f"{name} must be non-decreasing; violated at index {i}: "
                f"{values[i - 1]!r} > {values[i]!r}"
            )
