"""Median and quartile helpers."""

import statistics

import pytest

from perfbench.stats import median, median_index, quartiles, relative_spread


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [0.93, 1.02, 0.99, 1.10, 0.97, 1.01, 1.05, 0.96, 1.00, 0.98]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_relative_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert relative_spread([5.0, 5.0, 5.0]) == 0.0
    assert relative_spread([0.0, 0.0]) == 0.0


def test_median_index_picks_the_lower_median_sample():
    walls = [8.4, 8.1, 9.0, 8.2]
    assert walls[median_index(walls)] == 8.2
    assert median_index([3.0, 1.0, 2.0]) == 2
    assert median_index([7.0]) == 0
