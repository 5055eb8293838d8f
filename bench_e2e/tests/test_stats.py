"""Percentile, spread and lateness helpers on synthetic samples."""

import math

import pytest

from spans import Tracer
from stats import (
    highest_supported_percentile,
    lateness_ms,
    over_limit_fraction,
    percentile,
    quartiles,
    spread,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.95) == 95
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2  # order does not matter


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_a_failed_request_misses_every_limit():
    samples = [1.0] * 94 + [math.inf] * 6
    assert percentile(samples, 0.50) == 1.0
    assert percentile(samples, 0.95) == math.inf
    assert over_limit_fraction(samples, 50.0) == pytest.approx(0.06)


def test_highest_supported_percentile_needs_ten_samples_beyond():
    assert highest_supported_percentile(100) == 0.5
    assert highest_supported_percentile(200) == 0.95
    assert highest_supported_percentile(999) == 0.95
    assert highest_supported_percentile(1000) == 0.99


def test_quartiles_and_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == pytest.approx(5.5 / 14.5)
    assert quartiles([4.2]) == (4.2, 4.2, 4.2)
    assert spread([4.2, 4.2, 4.2]) == 0.0


def test_lateness_is_never_negative():
    due = [0.000, 0.010, 0.020, 0.030]
    sent = [0.001, 0.009, 0.020, 0.0345]
    late = lateness_ms(due, sent)
    assert late == pytest.approx([1.0, 0.0, 0.0, 4.5])
    with pytest.raises(ValueError):
        lateness_ms([0.0], [0.0, 1.0])


def test_span_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.spans = [
        ["request", 0.0, 10.0, -1, 7],
        ["decode", 1.0, 3.0, 0, 7],
        ["place", 3.0, 9.0, 0, 7],
        ["core", 4.0, 8.0, 2, 7],
    ]
    totals = tracer.totals()
    assert totals["request"]["self_s"] == pytest.approx(2.0)
    assert totals["place"]["self_s"] == pytest.approx(2.0)
    assert totals["core"]["self_s"] == pytest.approx(4.0)
    assert totals["place"]["total_s"] == pytest.approx(6.0)
    assert totals["decode"]["count"] == 1
