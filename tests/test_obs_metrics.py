"""Metrics substrate: gauges, labeled counters, histogram merge.

The merge test states the strongest useful property: folding shard B
into shard A is *bit-identical* to having observed every sample in one
histogram — same buckets, same extremes, same quantiles — for any
partition of the samples. The relative-error test then bounds the
quantile estimates themselves against exact order statistics.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, StreamingHistogram
from repro.obs.timeseries import TelemetryHub, TimeSeries

POSITIVE_SAMPLES = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=80,
)


# ----------------------------------------------------------------------
# StreamingHistogram.merge
# ----------------------------------------------------------------------


@given(left=POSITIVE_SAMPLES, right=POSITIVE_SAMPLES)
def test_merge_equals_direct_observation(left, right):
    merged = StreamingHistogram()
    shard = StreamingHistogram()
    direct = StreamingHistogram()
    for value in left:
        merged.observe(value)
        direct.observe(value)
    for value in right:
        shard.observe(value)
        direct.observe(value)
    result = merged.merge(shard)
    assert result is merged  # chains
    assert merged._buckets == direct._buckets
    assert merged.count == direct.count
    assert merged.total == pytest.approx(direct.total)
    assert merged.min == direct.min and merged.max == direct.max
    for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
        assert merged.quantile(q) == direct.quantile(q)


@given(left=POSITIVE_SAMPLES, right=POSITIVE_SAMPLES)
def test_merged_quantiles_keep_relative_error_bound(left, right):
    """Merged estimates stay within the sketch's relative accuracy.

    The q-quantile of n samples interpolates rank q*(n-1); the sketch
    returns a bucket representative within ``relative_accuracy`` of the
    sample it lands on, which must be one of the two samples bracketing
    that rank.
    """
    accuracy = 0.01
    h1 = StreamingHistogram(accuracy)
    h2 = StreamingHistogram(accuracy)
    for value in left:
        h1.observe(value)
    for value in right:
        h2.observe(value)
    h1.merge(h2)
    samples = sorted(left + right)
    for q in (0.5, 0.95, 0.99):
        rank = q * (len(samples) - 1)
        bracket = (samples[math.floor(rank)], samples[math.ceil(rank)])
        lo = min(bracket) * (1 - accuracy) * (1 - 1e-9)
        hi = max(bracket) * (1 + accuracy) * (1 + 1e-9)
        assert lo <= h1.quantile(q) <= hi


def test_merge_rejects_mismatched_accuracy():
    with pytest.raises(ValueError, match="relative_accuracy"):
        StreamingHistogram(0.01).merge(StreamingHistogram(0.05))


def test_merge_carries_zero_bucket():
    a = StreamingHistogram()
    b = StreamingHistogram()
    for _ in range(3):
        a.observe(0.0)
    b.observe(0.0)
    b.observe(5.0)
    a.merge(b)
    assert a.count == 5
    assert a.quantile(0.5) == 0.0  # 4 of 5 observations are zero
    assert a.max == 5.0


# ----------------------------------------------------------------------
# Gauge
# ----------------------------------------------------------------------


def test_gauge_set_increment_decrement():
    registry = MetricsRegistry()
    gauge = registry.gauge("cache_entries")
    gauge.set(10)
    gauge.increment(2.5)
    gauge.decrement()
    assert gauge.value == 11.5
    assert registry.gauge("cache_entries") is gauge  # same series


# ----------------------------------------------------------------------
# labels and snapshot keys
# ----------------------------------------------------------------------


def test_labeled_series_are_distinct_and_render_prometheus_style():
    registry = MetricsRegistry()
    registry.counter("hits").increment(5)
    registry.counter("hits", layer="line").increment(2)
    registry.counter("hits", layer="frontier").increment(3)
    registry.gauge("depth", client="a").set(4)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {
        "hits": 5,
        'hits{layer="frontier"}': 3,
        'hits{layer="line"}': 2,
    }
    assert snapshot["gauges"] == {'depth{client="a"}': 4.0}


def test_label_order_does_not_split_series():
    registry = MetricsRegistry()
    registry.counter("c", a="1", b="2").increment()
    registry.counter("c", b="2", a="1").increment()
    assert registry.snapshot()["counters"] == {'c{a="1",b="2"}': 2}


def test_unlabeled_snapshot_keeps_historical_wire_format():
    """Bare names for unlabeled series — the serving report schema."""
    registry = MetricsRegistry()
    registry.counter("arrived").increment(2)
    registry.histogram("latency").observe(1.0)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"arrived": 2}
    assert set(snapshot["histograms"]["latency"]) == {
        "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
    }


# ----------------------------------------------------------------------
# rejected samples leave no trace
# ----------------------------------------------------------------------

BAD_SAMPLES = [math.inf, -math.inf, math.nan, -1.0, -1e-300]


@pytest.mark.parametrize("value", BAD_SAMPLES)
def test_histogram_rejects_a_bad_sample_before_touching_state(value):
    registry = MetricsRegistry()
    registry.histogram("latency").observe(0.5)
    registry.counter("served").increment()
    before = registry.snapshot()
    with pytest.raises(ValueError, match="finite and >= 0"):
        registry.histogram("latency").observe(value)
    assert registry.snapshot() == before


@pytest.mark.parametrize("value", BAD_SAMPLES)
def test_hub_rejects_a_bad_sample_before_touching_state(value):
    hub = TelemetryHub()
    hub.observe("latency", 0.5, 0.25, server="a")
    before = hub.timeline()
    # an existing series and a series the call would have created
    for server in ("a", "s"):
        with pytest.raises(ValueError, match="finite and >= 0"):
            hub.observe("latency", 0.5, value, server=server)
    assert hub.timeline() == before
    series = TimeSeries("direct", kind="histogram")
    with pytest.raises(ValueError, match="finite and >= 0"):
        series.observe(0.5, value)
    assert series.count == 0 and series.total == 0.0


def test_counter_and_gauge_series_still_take_any_value():
    hub = TelemetryHub()
    hub.sample("queue_depth", 0.1, -2.0)
    series = hub.timeline()["series"]["queue_depth"]
    assert (series["count"], series["sum"]) == (1, -2.0)
