"""Order statistics shared by the orchestrator and its tests."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles; quantiles needs two points.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def median_index(values: Sequence[float]) -> int:
    """Index of the sample whose value is the (lower) median."""
    if not values:
        raise ValueError("median_index of an empty sample")
    order = sorted(range(len(values)), key=lambda i: values[i])
    return order[(len(values) - 1) // 2]
