"""Windowed time-series over virtual time: the fleet's live signal.

Whole-run aggregates (:mod:`repro.obs.metrics`) answer "how did the run
go"; a :class:`TimeSeries` answers "when did it go wrong". Samples land
in fixed-width *buckets* keyed on virtual time (bucket ``i`` covers
``[i * bucket_width, (i + 1) * bucket_width)``); a bounded ring of the
most recent ``capacity`` buckets is retained, older buckets are evicted.
Sliding-window queries (:meth:`~TimeSeries.count`,
:meth:`~TimeSeries.rate`, :meth:`~TimeSeries.mean`,
:meth:`~TimeSeries.quantile`) aggregate the last ``ceil(window /
bucket_width)`` buckets, so a window never sees a partially evicted
bucket as long as ``window <= capacity * bucket_width`` — the invariant
the property suite locks.

Histogram-kind series keep one
:class:`~repro.obs.metrics.StreamingHistogram` per bucket *and* one for
the whole run. Because DDSketch merge is bucket-wise addition on a
shared grid, merging any partition of the per-bucket histograms
reproduces the whole-run histogram exactly (same sketch buckets, count,
min/max — the second property-suite lock), which is what makes windowed
p50/p95/p99 trustworthy.

A :class:`TelemetryHub` names many series (with Prometheus-style
labels, same rendering as :class:`~repro.obs.metrics.MetricsRegistry`)
and serializes them all into the ``SystemReport.timeline`` JSON.
:class:`NullTelemetryHub` is the disabled twin — same surface, records
nothing — so publish sites stay unconditional and the disabled hot path
pays one attribute check per site (the :class:`~repro.obs.tracer.NullTracer`
pattern).
"""

from __future__ import annotations

import math
from typing import Any

from repro.obs.metrics import (
    SNAPSHOT_QUANTILES,
    StreamingHistogram,
    _label_key,
    _render_key,
    _require_sample,
)
from repro.utils.validation import require_positive

__all__ = [
    "TimeSeries",
    "TelemetryHub",
    "NullTelemetryHub",
    "NULL_HUB",
    "SERIES_KINDS",
]

#: What a series aggregates per bucket: monotone event counts, sampled
#: point-in-time values, or full value distributions.
SERIES_KINDS = ("counter", "gauge", "histogram")


class _Bucket:
    """One time bucket's aggregate: count/sum/extremes (+ sketch)."""

    __slots__ = ("count", "total", "min", "max", "last", "histogram")

    def __init__(self, histogram: StreamingHistogram | None) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self.histogram = histogram

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.last = value
        if self.histogram is not None:
            self.histogram.observe(value)


class TimeSeries:
    """A ring buffer of fixed-width virtual-time buckets.

    ``kind`` selects what each bucket keeps: ``counter`` and ``gauge``
    store count/sum/extremes/last, ``histogram`` adds a mergeable
    DDSketch per bucket plus a whole-run sketch. Out-of-order samples
    are accepted as long as their bucket is still retained; samples
    older than the ring are counted in :attr:`evicted_samples` and
    dropped (they can no longer influence any in-window query).
    """

    def __init__(
        self,
        name: str,
        bucket_width: float = 0.5,
        capacity: int = 4096,
        kind: str = "counter",
        relative_accuracy: float = 0.01,
    ) -> None:
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {kind!r} (use {SERIES_KINDS})")
        require_positive(bucket_width, "bucket_width")
        require_positive(capacity, "capacity")
        self.name = name
        self.bucket_width = bucket_width
        self.capacity = capacity
        self.kind = kind
        self.relative_accuracy = relative_accuracy
        self.count = 0                      # run-total samples observed
        self.total = 0.0
        self.evicted_samples = 0            # too-old samples dropped on arrival
        self.evicted_buckets = 0
        self._buckets: dict[int, _Bucket] = {}
        self._newest: int | None = None
        self._oldest: int | None = None
        # evicted buckets fold their sketches in here, so the whole-run
        # sketch stays reconstructable without a second observe() per
        # sample on the hot path (see :attr:`total_histogram`)
        self._evicted_histogram = (
            StreamingHistogram(relative_accuracy) if kind == "histogram" else None
        )

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _bucket_index(self, t: float) -> int:
        return math.floor(t / self.bucket_width)

    def observe(self, t: float, value: float = 1.0) -> None:
        """Record one sample at virtual time ``t``."""
        if self.kind == "histogram":
            _require_sample(value)  # before the run totals move
        index = self._bucket_index(t)
        if self._newest is not None and index <= self._newest - self.capacity:
            # older than the whole ring: nothing in-window can see it
            self.evicted_samples += 1
            return
        self.count += 1
        self.total += value
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = _Bucket(
                StreamingHistogram(self.relative_accuracy)
                if self.kind == "histogram"
                else None
            )
            self._buckets[index] = bucket
            if self._oldest is None or index < self._oldest:
                self._oldest = index
        bucket.observe(value)
        if self._newest is None or index > self._newest:
            self._newest = index
            self._evict()

    def _evict(self) -> None:
        """Drop buckets that fell off the ring (newest - capacity back)."""
        assert self._newest is not None
        floor_index = self._newest - self.capacity + 1
        if self._oldest is None or self._oldest >= floor_index:
            return
        for index in range(self._oldest, floor_index):
            bucket = self._buckets.pop(index, None)
            if bucket is not None:
                self.evicted_buckets += 1
                if bucket.histogram is not None:
                    self._evicted_histogram.merge(bucket.histogram)
        self._oldest = min(self._buckets) if self._buckets else None

    # ------------------------------------------------------------------
    # windowed reads (bucket-aligned: the last ceil(window/width) buckets
    # ending at the bucket containing ``now``)
    # ------------------------------------------------------------------
    def _window_range(self, window: float, now: float) -> range:
        require_positive(window, "window")
        if window > self.capacity * self.bucket_width:
            raise ValueError(
                f"window {window} exceeds ring span "
                f"{self.capacity * self.bucket_width} of series {self.name!r}"
            )
        hi = self._bucket_index(now)
        lo = hi - max(1, math.ceil(window / self.bucket_width)) + 1
        return range(lo, hi + 1)

    def _window_buckets(self, window: float, now: float) -> list[_Bucket]:
        return [
            bucket
            for index in self._window_range(window, now)
            if (bucket := self._buckets.get(index)) is not None
        ]

    def window_count(self, window: float, now: float) -> int:
        """Samples in the trailing ``window`` seconds before ``now``."""
        return sum(b.count for b in self._window_buckets(window, now))

    def window_total(self, window: float, now: float) -> float:
        return sum(b.total for b in self._window_buckets(window, now))

    def rate(self, window: float, now: float) -> float:
        """Samples per second over the trailing window."""
        return self.window_count(window, now) / window

    def mean(self, window: float, now: float) -> float:
        buckets = self._window_buckets(window, now)
        count = sum(b.count for b in buckets)
        return sum(b.total for b in buckets) / count if count else 0.0

    @property
    def total_histogram(self) -> StreamingHistogram | None:
        """The whole-run sketch (histogram-kind series only).

        Reconstructed on demand as the merge of every retained bucket
        plus the evicted-bucket fold — bucket-wise sketch addition makes
        this identical to having observed every sample into one sketch,
        while keeping the hot path at one sketch update per sample.
        """
        if self._evicted_histogram is None:
            return None
        merged = StreamingHistogram(self.relative_accuracy)
        merged.merge(self._evicted_histogram)
        for index in sorted(self._buckets):
            merged.merge(self._buckets[index].histogram)
        return merged

    def merged(self, window: float, now: float) -> StreamingHistogram:
        """The trailing window's sketch (histogram-kind series only)."""
        if self.kind != "histogram":
            raise ValueError(f"series {self.name!r} is {self.kind}, not histogram")
        merged = StreamingHistogram(self.relative_accuracy)
        for bucket in self._window_buckets(window, now):
            merged.merge(bucket.histogram)
        return merged

    def quantile(self, q: float, window: float, now: float) -> float:
        """Windowed quantile from the merged in-window sketches."""
        return self.merged(window, now).quantile(q)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def points(self) -> list[dict[str, Any]]:
        """Every retained bucket as a JSON-safe point, oldest first."""
        out: list[dict[str, Any]] = []
        for index in sorted(self._buckets):
            bucket = self._buckets[index]
            point: dict[str, Any] = {
                "t": index * self.bucket_width,
                "count": bucket.count,
                "sum": bucket.total,
            }
            if self.kind == "gauge":
                point["last"] = bucket.last
                point["min"] = bucket.min
                point["max"] = bucket.max
            elif self.kind == "histogram":
                point["mean"] = bucket.total / bucket.count if bucket.count else 0.0
                point["max"] = bucket.max
                for q in SNAPSHOT_QUANTILES:
                    point[f"p{round(q * 100):02d}"] = bucket.histogram.quantile(q)
            out.append(point)
        return out

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "bucket_width": self.bucket_width,
            "count": self.count,
            "sum": self.total,
            "points": self.points(),
        }
        if self.evicted_samples or self.evicted_buckets:
            out["evicted_samples"] = self.evicted_samples
            out["evicted_buckets"] = self.evicted_buckets
        return out


class TelemetryHub:
    """Named, labeled time-series behind one timeline snapshot.

    Publish sites call :meth:`record` (counter), :meth:`sample` (gauge),
    or :meth:`observe` (histogram) with an explicit virtual timestamp —
    the engine clock, never wall time, so timelines replay
    deterministically. Series are created on first touch; distinct label
    sets are distinct series under Prometheus-style ``name{k="v"}``
    keys, matching the metrics-snapshot wire format.
    """

    enabled = True

    def __init__(
        self,
        bucket_width: float = 0.5,
        capacity: int = 4096,
        relative_accuracy: float = 0.01,
    ) -> None:
        require_positive(bucket_width, "bucket_width")
        require_positive(capacity, "capacity")
        self.bucket_width = bucket_width
        self.capacity = capacity
        self.relative_accuracy = relative_accuracy
        self._series: dict[str, TimeSeries] = {}
        # publish fast path: (name, *sorted(label items)) -> series, so
        # steady-state record/sample/observe skip rendering the
        # Prometheus key string on every call
        self._handles: dict[tuple, TimeSeries] = {}

    def series(self, name: str, kind: str = "counter", /, **labels: str) -> TimeSeries:
        """Get-or-create the series for ``name`` + label set.

        ``name`` and ``kind`` are positional-only so label names never
        collide with them (a ``kind="drift"`` label is just a label).
        """
        handle = (name, *sorted(labels.items())) if labels else (name,)
        series = self._handles.get(handle)
        if series is None:
            key = _render_key(name, _label_key(labels))
            series = self._series.get(key)
            if series is None:
                series = TimeSeries(
                    key,
                    bucket_width=self.bucket_width,
                    capacity=self.capacity,
                    kind=kind,
                    relative_accuracy=self.relative_accuracy,
                )
                self._series[key] = series
            self._handles[handle] = series
        if series.kind != kind:
            raise ValueError(
                f"series {series.name!r} already registered as "
                f"{series.kind}, not {kind}"
            )
        return series

    def record(self, name: str, t: float, value: float = 1.0, /, **labels: str) -> None:
        """Count an event (counter-kind series)."""
        self.series(name, "counter", **labels).observe(t, value)

    def sample(self, name: str, t: float, value: float, /, **labels: str) -> None:
        """Sample a point-in-time value (gauge-kind series)."""
        self.series(name, "gauge", **labels).observe(t, value)

    def observe(self, name: str, t: float, value: float, /, **labels: str) -> None:
        """Observe a distribution value (histogram-kind series)."""
        _require_sample(value)  # a rejected first sample creates no series
        self.series(name, "histogram", **labels).observe(t, value)

    def timeline(self) -> dict[str, Any]:
        """Every series, serialized — the ``SystemReport.timeline`` body."""
        return {
            "bucket_width": self.bucket_width,
            "series": {
                key: self._series[key].as_dict() for key in sorted(self._series)
            },
        }


class NullTelemetryHub:
    """Disabled hub: same surface, records nothing (NullTracer pattern)."""

    enabled = False
    bucket_width = 0.0

    def series(self, name: str, kind: str = "counter", /, **labels: str) -> None:
        return None

    def record(self, name: str, t: float, value: float = 1.0, /, **labels: str) -> None:
        return None

    def sample(self, name: str, t: float, value: float, /, **labels: str) -> None:
        return None

    def observe(self, name: str, t: float, value: float, /, **labels: str) -> None:
        return None

    def timeline(self) -> dict[str, Any]:
        return {}


#: Shared disabled hub — publish sites default to this, so the fault-free
#: path stays byte-identical to the pre-telemetry code.
NULL_HUB = NullTelemetryHub()
