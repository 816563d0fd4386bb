"""Unit tests for the sample statistics in repro.obs.metrics."""

import math

from repro.obs.metrics import mean, percentile, stddev


def test_mean_and_empty_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert math.isnan(mean([]))


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert math.isnan(percentile([], 50))


def test_stddev():
    assert stddev([2.0, 2.0, 2.0]) == 0.0
    assert abs(stddev([1.0, 3.0]) - math.sqrt(2.0)) < 1e-12
    assert stddev([1.0]) == 0.0

