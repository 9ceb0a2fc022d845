"""Metrics: counters, gauges, and streaming quantile histograms.

Every layer — the planning engine, the simulator, the serving gateway,
the experiment harnesses — shares this one metric substrate and one
snapshot/exposition path.

The gateway runs for simulated hours and millions of requests, so the
latency distribution cannot be kept as raw samples. A
:class:`StreamingHistogram` buckets observations on a geometric grid
(DDSketch-style): every quantile estimate carries a bounded *relative*
error set by ``relative_accuracy``, memory is O(number of occupied
buckets), and merging two histograms (:meth:`StreamingHistogram.merge`)
is bucket-wise addition that preserves the error bound. Counters are
plain monotone integers, optionally labeled; gauges are set-anywhere
floats (cache sizes, hit rates). A :class:`MetricsRegistry` names all
three and snapshots the whole family into a JSON-safe dict — the wire
format of the gateway's metrics report (see ``docs/serving.md``) and
the input of the Prometheus exposition
(:mod:`repro.obs.prometheus`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "StreamingHistogram",
    "MetricsRegistry",
    "SNAPSHOT_QUANTILES",
]

#: Quantiles every snapshot reports, in order.
SNAPSHOT_QUANTILES = (0.50, 0.95, 0.99)

#: Label pairs as stored on metrics: sorted, hashable.
Labels = tuple[tuple[str, str], ...]


def _require_sample(value: float) -> float:
    """Validate a histogram sample: finite and >= 0 (NaN is neither).

    A sketch has no bucket for NaN, infinity or a negative value, so
    every observe path checks this before it touches any state.
    """
    if not 0 <= value < math.inf:
        raise ValueError(f"histogram samples must be finite and >= 0, got {value!r}")
    return value


def _label_key(labels: dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: Labels) -> str:
    """Snapshot key: bare name, or Prometheus-style ``name{k="v"}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotone event counter, optionally labeled."""

    name: str
    value: int = 0
    labels: Labels = ()

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only move forward, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (queue depth, cache entries, hit rate)."""

    name: str
    value: float = 0.0
    labels: Labels = ()

    def set(self, value: float) -> None:
        self.value = float(value)

    def increment(self, amount: float = 1.0) -> None:
        self.value += amount

    def decrement(self, amount: float = 1.0) -> None:
        self.value -= amount


class StreamingHistogram:
    """Log-bucketed histogram with relative-error quantile estimates.

    A non-zero observation ``v`` lands in bucket ``ceil(log_gamma v)``
    with ``gamma = (1 + a) / (1 - a)``; the bucket's representative
    value ``2 * gamma^i / (gamma + 1)`` (the geometric midpoint) is then
    within a factor ``(1 ± a)`` of every value the bucket can hold, so
    ``quantile()`` is accurate to relative error ``a``. Zeros get their
    own bucket (latencies of dropped-at-admission work, empty queues).
    """

    def __init__(self, relative_accuracy: float = 0.01):
        if not 0 < relative_accuracy < 1:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = relative_accuracy
        self._gamma = (1 + relative_accuracy) / (1 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        _require_sample(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value == 0:
            self._zeros += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: StreamingHistogram) -> StreamingHistogram:
        """Fold ``other`` into this histogram (bucket-wise addition).

        Both histograms must share the same ``relative_accuracy``:
        identical grids mean a bucket index denotes the same value range
        on both sides, so the merged estimates keep the same relative
        error bound as if every observation had landed here directly.
        Returns ``self`` for chaining; ``other`` is left untouched.
        """
        if not math.isclose(self._gamma, other._gamma):
            raise ValueError(
                "cannot merge histograms with different relative_accuracy "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zeros += other._zeros
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile estimate (exact for min/max, else ±accuracy)."""
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0:
            return self.min
        if q == 1:
            return self.max
        rank = q * (self.count - 1)
        seen = self._zeros
        if rank < seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                estimate = 2 * self._gamma**index / (self._gamma + 1)
                return min(max(estimate, self.min), self.max)
        return self.max

    def as_dict(self) -> dict[str, float]:
        """JSON-safe summary: count, sum, extremes, p50/p95/p99."""
        summary: dict[str, float] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        for q in SNAPSHOT_QUANTILES:
            summary[f"p{round(q * 100):02d}"] = self.quantile(q)
        return summary


@dataclass
class MetricsRegistry:
    """Named counters, gauges, and histograms behind one snapshot call.

    ``counter``/``gauge`` accept keyword labels; each distinct label set
    is its own time series, rendered in the snapshot under a
    Prometheus-style ``name{k="v"}`` key (bare names stay bare, keeping
    the historical wire format for unlabeled series).
    """

    relative_accuracy: float = 0.01
    _counters: dict[tuple[str, Labels], Counter] = field(default_factory=dict)
    _gauges: dict[tuple[str, Labels], Gauge] = field(default_factory=dict)
    _histograms: dict[str, StreamingHistogram] = field(default_factory=dict)

    # hot path: one dict probe per call; an unlabeled call never sorts
    # its (empty) label dict
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels) if labels else ())
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, labels=key[1])
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels) if labels else ())
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, labels=key[1])
        return metric

    def histogram(self, name: str) -> StreamingHistogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = StreamingHistogram(self.relative_accuracy)
        return metric

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict view of every metric, stable key order."""
        counters = {
            _render_key(name, labels): metric.value
            for (name, labels), metric in self._counters.items()
        }
        gauges = {
            _render_key(name, labels): metric.value
            for (name, labels), metric in self._gauges.items()
        }
        return {
            "counters": {key: counters[key] for key in sorted(counters)},
            "gauges": {key: gauges[key] for key in sorted(gauges)},
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }
