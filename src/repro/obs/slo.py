"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloConfig` states an objective the fleet must hold *over a
window* — e.g. "at least 90% of requests meet their deadline over any
4-second window". Each outcome (a request served in/out of deadline, or
dropped) feeds an :class:`SloMonitor`, which keeps per-bucket good/bad
counts in one bounded ring (same bucket-aligned window semantics as
:class:`~repro.obs.timeseries.TimeSeries`) and evaluates the classic
SRE *burn rate* on every event:

``burn = (bad / (good + bad)) / (1 - target)``

i.e. how many times faster than budget the error budget is burning. An
alert **fires** when the burn rate exceeds ``burn_threshold`` over both
the long ``window`` and the short ``fast_window`` (the multi-window
rule: the long window proves it is real, the short window proves it is
*still happening*), and **clears** once the fast-window burn drops back
under the threshold. Evaluation is driven purely by outcome events on
the virtual clock — no timers are scheduled on the engine — so a run
replays to the identical alert list under the same seed, and the DES
event stream is byte-identical whether or not SLOs are configured.

Alerts surface three ways at once: ``slo/fire`` / ``slo/clear`` trace
instants on the ``("fleet", "slo")`` lane, ``slo_*`` counter/gauge
families in the fleet :class:`~repro.obs.metrics.MetricsRegistry`
(Prometheus-exposable), and the structured ``alerts`` section of
:class:`~repro.fleet.fleet.SystemReport`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.utils.validation import require_finite, require_positive

__all__ = [
    "SloConfig",
    "SloMonitor",
    "SloBoard",
    "NullSloBoard",
    "NULL_BOARD",
    "default_slos",
    "SLO_LANE",
]

#: Trace lane of SLO fire/clear instants.
SLO_LANE = ("fleet", "slo")


@dataclass(frozen=True)
class SloConfig:
    """One windowed objective + its burn-rate alert policy.

    ``target`` is the good-outcome fraction the objective demands (the
    error budget is ``1 - target``); ``window``/``fast_window`` are the
    long and short burn windows in virtual seconds; ``burn_threshold``
    is the burn-rate multiple that trips the alert on both windows
    simultaneously; ``min_events`` suppresses evaluation until the long
    window holds enough outcomes to mean anything; ``bucket_width`` is
    the ring-bucket granularity of the underlying counters.
    """

    name: str = "deadline-hit-rate"
    target: float = 0.9
    window: float = 4.0
    fast_window: float = 1.0
    burn_threshold: float = 1.0
    min_events: int = 8
    bucket_width: float = 0.25

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO name must be non-empty")
        if not 0 < self.target < 1:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        # an infinite window or bucket puts every outcome in one bucket
        # (or overflows the ring size); an infinite threshold never fires
        for name in ("window", "fast_window", "burn_threshold", "bucket_width"):
            require_finite(getattr(self, name), name)
        require_positive(self.window, "window")
        require_positive(self.fast_window, "fast_window")
        if self.fast_window > self.window:
            raise ValueError(
                f"fast_window {self.fast_window} exceeds window {self.window}"
            )
        require_positive(self.burn_threshold, "burn_threshold")
        require_positive(self.min_events, "min_events")
        require_positive(self.bucket_width, "bucket_width")

    @property
    def budget(self) -> float:
        """The error budget: tolerable bad-outcome fraction."""
        return 1.0 - self.target

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "window": self.window,
            "fast_window": self.fast_window,
            "burn_threshold": self.burn_threshold,
            "min_events": self.min_events,
            "bucket_width": self.bucket_width,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SloConfig":
        return cls(**data)


def default_slos() -> tuple[SloConfig, ...]:
    """The shipped objective: ≥90% deadline hits over any 4 s window."""
    return (SloConfig(),)


class SloMonitor:
    """Online burn-rate evaluation of one :class:`SloConfig`."""

    def __init__(self, config: SloConfig, tracer=None, metrics=None) -> None:
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        self._width = config.bucket_width
        self._long_buckets = max(1, math.ceil(config.window / self._width))
        self._fast_buckets = max(1, math.ceil(config.fast_window / self._width))
        self._capacity = max(64, 4 * self._long_buckets)
        #: Bounded ring of per-bucket ``[index, good, bad]`` entries in
        #: ascending index order. The engine clock is monotone, so the
        #: newest entry is almost always the write target and one short
        #: reversed pass covers both burn windows per evaluation.
        self._buckets: deque[list] = deque()
        self.active = False
        #: Every fire (and its clear, once seen), in firing order.
        self.alerts: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def _observe(self, t: float, good: bool) -> None:
        index = math.floor(t / self._width)
        buckets = self._buckets
        slot = 1 if good else 2
        if not buckets or index > buckets[-1][0]:
            entry = [index, 0, 0]
            entry[slot] = 1
            buckets.append(entry)
            floor_index = index - self._capacity + 1
            while buckets[0][0] < floor_index:
                buckets.popleft()
            return
        if index <= buckets[-1][0] - self._capacity:
            return  # older than the ring: no in-window query can see it
        # out-of-order arrival onto a retained bucket (rare)
        position = len(buckets) - 1
        while position >= 0 and buckets[position][0] > index:
            position -= 1
        if position >= 0 and buckets[position][0] == index:
            buckets[position][slot] += 1
        else:
            entry = [index, 0, 0]
            entry[slot] = 1
            buckets.insert(position + 1, entry)

    def _window_counts(self, lo: int, hi: int) -> tuple[int, int]:
        good = bad = 0
        for entry in reversed(self._buckets):
            index = entry[0]
            if index > hi:
                continue
            if index < lo:
                break
            good += entry[1]
            bad += entry[2]
        return good, bad

    def burn_rate(self, window: float, now: float) -> tuple[float, int]:
        """(burn multiple, outcome count) over the trailing window."""
        require_positive(window, "window")
        hi = math.floor(now / self._width)
        lo = hi - max(1, math.ceil(window / self._width)) + 1
        good, bad = self._window_counts(lo, hi)
        events = good + bad
        if events == 0:
            return 0.0, 0
        return (bad / events) / self.config.budget, events

    def record(self, t: float, good: bool) -> None:
        """Feed one outcome at virtual time ``t`` and re-evaluate."""
        self._observe(t, good)
        self.evaluate(t)

    def evaluate(self, now: float) -> None:
        """Fire/clear against the multi-window burn rule at ``now``.

        One reversed pass over the ring computes both windows: the long
        window proves the burn is real, the fast window proves it is
        still happening.
        """
        config = self.config
        hi = math.floor(now / self._width)
        long_lo = hi - self._long_buckets + 1
        fast_lo = hi - self._fast_buckets + 1
        long_good = long_bad = fast_good = fast_bad = 0
        for entry in reversed(self._buckets):
            index = entry[0]
            if index > hi:
                continue
            if index < long_lo:
                break
            long_good += entry[1]
            long_bad += entry[2]
            if index >= fast_lo:
                fast_good += entry[1]
                fast_bad += entry[2]
        budget = config.budget
        events = long_good + long_bad
        burn_long = (long_bad / events) / budget if events else 0.0
        fast_events = fast_good + fast_bad
        burn_fast = (fast_bad / fast_events) / budget if fast_events else 0.0
        if not self.active:
            if (
                events >= config.min_events
                and burn_long >= config.burn_threshold
                and burn_fast >= config.burn_threshold
            ):
                self.active = True
                self.alerts.append(
                    {
                        "slo": config.name,
                        "fired_at": now,
                        "cleared_at": None,
                        "burn_rate": burn_long,
                        "burn_rate_fast": burn_fast,
                        "events": events,
                        "target": config.target,
                        "window": config.window,
                    }
                )
                if self.tracer is not None:
                    self.tracer.instant(
                        "slo/fire",
                        timestamp=now,
                        lane=SLO_LANE,
                        slo=config.name,
                        burn_rate=burn_long,
                        burn_rate_fast=burn_fast,
                        events=events,
                    )
                if self.metrics is not None:
                    self.metrics.counter(
                        "slo_alerts_fired", slo=config.name
                    ).increment()
        elif burn_fast < config.burn_threshold:
            self.active = False
            alert = self.alerts[-1]
            alert["cleared_at"] = now
            alert["duration"] = now - alert["fired_at"]
            if self.tracer is not None:
                self.tracer.instant(
                    "slo/clear",
                    timestamp=now,
                    lane=SLO_LANE,
                    slo=config.name,
                    burn_rate_fast=burn_fast,
                    duration=alert["duration"],
                )
            if self.metrics is not None:
                self.metrics.counter(
                    "slo_alerts_cleared", slo=config.name
                ).increment()

    def finalize(self, now: float) -> None:
        """End-of-run evaluation + gauge publication (no forced clear)."""
        self.evaluate(now)
        if self.metrics is not None:
            burn_long, _ = self.burn_rate(self.config.window, now)
            burn_fast, _ = self.burn_rate(self.config.fast_window, now)
            self.metrics.gauge(
                "slo_burn_rate", slo=self.config.name, window="long"
            ).set(burn_long)
            self.metrics.gauge(
                "slo_burn_rate", slo=self.config.name, window="fast"
            ).set(burn_fast)
            self.metrics.gauge("slo_active", slo=self.config.name).set(
                1.0 if self.active else 0.0
            )

    def report(self) -> dict[str, Any]:
        return {
            "slo": self.config.as_dict(),
            "alerts": list(self.alerts),
            "fired": len(self.alerts),
            "cleared": sum(1 for a in self.alerts if a["cleared_at"] is not None),
            "active_at_end": self.active,
        }


class SloBoard:
    """All configured SLOs behind one outcome feed."""

    enabled = True

    def __init__(self, slos, tracer=None, metrics=None) -> None:
        self.monitors = [SloMonitor(slo, tracer=tracer, metrics=metrics) for slo in slos]

    def outcome(self, t: float, good: bool) -> None:
        """Fan one request outcome out to every monitor."""
        for monitor in self.monitors:
            monitor.record(t, good)

    def finalize(self, t: float) -> None:
        for monitor in self.monitors:
            monitor.finalize(t)

    @property
    def fired(self) -> int:
        return sum(len(m.alerts) for m in self.monitors)

    @property
    def cleared(self) -> int:
        return sum(
            1
            for m in self.monitors
            for a in m.alerts
            if a["cleared_at"] is not None
        )

    def report(self) -> dict[str, Any]:
        """The ``SystemReport.alerts`` body."""
        return {
            "slos": [m.report() for m in self.monitors],
            "fired": self.fired,
            "cleared": self.cleared,
            "active_at_end": sum(1 for m in self.monitors if m.active),
        }


class NullSloBoard:
    """Disabled board: same surface, evaluates nothing."""

    enabled = False
    monitors: tuple = ()
    fired = 0
    cleared = 0

    def outcome(self, t: float, good: bool) -> None:
        return None

    def finalize(self, t: float) -> None:
        return None

    def report(self) -> dict[str, Any]:
        return {}


#: Shared disabled board, mirroring :data:`repro.obs.timeseries.NULL_HUB`.
NULL_BOARD = NullSloBoard()
