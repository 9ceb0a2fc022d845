"""Minimal discrete-event simulation core.

A classic event-heap engine with exclusive FIFO resources — enough to
model the paper's execution environment (one mobile CPU, one uplink,
one cloud GPU) without pulling in an external simulation framework.

Design notes (following the HPC-Python guidance: simple first, measure
before optimizing):

* Events are ``(time, sequence, callback)`` tuples on a binary heap;
  the monotonically increasing sequence number makes simultaneous
  events fire in schedule order, so runs are fully deterministic.
* A :class:`Resource` serializes its users. ``acquire`` enqueues a
  request; when the resource frees up the request holds it for its
  duration and then fires its completion callback. The one in-flight
  grant lives in slots on the resource and completes through a bound
  method made at grant time: one short-lived object per grant, and no
  reference from the resource to itself, so a finished simulation is
  freed by reference counting alone.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable

__all__ = ["Engine", "Resource", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling inconsistencies (negative delays, time travel)."""


class Engine:
    """Event loop with a virtual clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self.now = 0.0
        #: Optional observer fired with the clock value before each event
        #: callback. The fault-injection invariant monitor
        #: (:class:`repro.faults.invariants.MonotoneClockMonitor`) hooks
        #: here to assert virtual time never runs backwards under any
        #: injected fault schedule; ``None`` costs nothing.
        self.on_advance: Callable[[float], None] | None = None

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay``."""
        # `not >=` also rejects NaN, which would corrupt the heap order
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback))
        self._sequence += 1

    def run(self, until: float | None = None) -> float:
        """Drain the event heap; returns the final clock value.

        A deferred event (``time > until``) is peeked, never popped, so
        it keeps its original sequence number and still fires *before*
        same-timestamp events scheduled after the paused run.
        """
        heap = self._heap
        heappop = heapq.heappop
        limit = float("inf") if until is None else until
        now = self.now
        # read once per run: observers (the monotone-clock monitor)
        # attach before `run`, so re-reading per event buys nothing
        on_advance = self.on_advance
        while heap:
            if heap[0][0] > limit:
                break
            time, _, callback = heappop(heap)
            if time > now:
                now = time
                self.now = now
            elif time < now - 1e-12:
                raise SimulationError(f"event at {time} is before now={now}")
            if on_advance is not None:
                on_advance(now)
            callback()
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._heap)


@dataclass
class Busy:
    """One recorded busy interval of a resource (for Gantt traces)."""

    start: float
    end: float
    label: str


class Resource:
    """An exclusive, FIFO resource (CPU core, network link, GPU).

    ``acquire(label, duration, on_done)`` queues a request; when the
    resource becomes free the request holds it for ``duration`` seconds
    and then fires ``on_done(start_time, end_time)``. ``duration`` may
    be a callable mapping the grant time to a length — that is how
    time-varying links (a transfer started later sees different rates)
    plug into the engine. Every grant is recorded in ``busy_log``.
    """

    __slots__ = (
        "engine",
        "name",
        "busy_log",
        "_queue",
        "_busy",
        "_busy_time",
        "_label",
        "_start",
        "_on_done",
    )

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self.busy_log: list[Busy] = []
        self._queue: deque = deque()
        self._busy = False
        self._busy_time = 0.0
        self._label = ""
        self._start = 0.0
        self._on_done: Callable[[float, float], None] | None = None

    def acquire(
        self,
        label: str,
        duration: float | Callable[[float], float],
        on_done: Callable[[float, float], None] | None = None,
    ) -> None:
        if not callable(duration) and not duration >= 0:
            raise SimulationError(f"{self.name}: duration must be >= 0, got {duration}")
        self._queue.append((label, duration, on_done))
        if not self._busy:
            self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        label, duration, on_done = self._queue.popleft()
        self._busy = True
        start = self.engine.now
        if callable(duration):
            duration = duration(start)
            if not duration >= 0:
                raise SimulationError(
                    f"{self.name}: callable duration returned {duration}"
                )
        self._label = label
        self._start = start
        self._on_done = on_done
        self.engine.schedule(duration, self._finish)

    def _finish(self) -> None:
        end = self.engine.now
        start = self._start
        on_done = self._on_done
        self._busy_time += end - start
        self.busy_log.append(Busy(start=start, end=end, label=self._label))
        self._busy = False
        self._on_done = None
        if on_done is not None:
            on_done(start, end)
        self._pump()

    @property
    def total_busy_time(self) -> float:
        """Total granted time so far — a running O(1) accumulator, so
        per-event telemetry polls don't re-sum the whole busy log."""
        return self._busy_time

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this resource was busy."""
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        return self._busy_time / horizon
