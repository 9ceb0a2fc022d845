"""Hold-and-batch GPU server on the discrete-event engine.

A :class:`BatchingServer` wraps one exclusive
:class:`~repro.sim.engine.Resource` (the GPU) with a *hold queue*:
uploaded requests wait up to ``max_wait`` seconds (or until ``max_batch``
of them have gathered) and then execute as one coalesced batch whose
service time comes from :class:`~repro.cloud.model.CloudGpuModel`.
Batches formed while the GPU is busy queue FIFO on the resource, so
N gateways sharing one server contend exactly like any other resource
users.

Three dispatch policies (:data:`BATCHING_POLICIES`):

* ``serve_now`` — every request launches immediately as a batch of
  one. With the default model this is *event-for-event identical* to
  the unbatched gateway path (the bench parity lock).
* ``batch`` — hold-and-batch: flush on ``max_batch`` or on the
  ``max_wait`` timer armed by the first held request.
* ``adaptive`` — serve-now vs. hold-and-batch chosen against deadline
  slack: a request holds only if its slack covers the worst-case wait
  (``max_wait`` + current GPU backlog + its own service time);
  otherwise the whole hold flushes immediately so nobody misses a
  deadline waiting for company.

Per-request accounting stays exact: every member's completion callback
fires with the *batch* window ``(start, end)``, the engine invokes the
callbacks in submission order, and the batch log records who rode in
which batch — what the property suite audits (every submitted request
lands in exactly one batch, sizes never exceed ``max_batch``).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.cloud.model import CloudGpuModel
from repro.obs.timeseries import NULL_HUB
from repro.obs.tracer import NullTracer, Tracer
from repro.sim.engine import Engine, Resource
from repro.utils.validation import require_positive_integer

__all__ = ["BATCHING_POLICIES", "GPU_ASSIGNMENTS", "BatchingServer", "LeastQueuedRouter"]

#: Dispatch policies a :class:`BatchingServer` understands.
BATCHING_POLICIES = ("serve_now", "batch", "adaptive")

#: Server→GPU assignment policies the fleet understands: static
#: round-robin at build time, or least-queued GPU chosen per submit.
GPU_ASSIGNMENTS = ("round_robin", "least_queued")


class BatchingServer:
    """One shared batching GPU: hold queue + exclusive resource."""

    def __init__(
        self,
        engine: Engine,
        model: CloudGpuModel | None = None,
        max_batch: int = 8,
        max_wait: float = 0.02,
        policy: str = "batch",
        name: str = "cloud-gpu",
        tracer: "Tracer | NullTracer | None" = None,
        telemetry=None,
    ) -> None:
        if policy not in BATCHING_POLICIES:
            raise ValueError(
                f"unknown batching policy {policy!r} (use {BATCHING_POLICIES})"
            )
        require_positive_integer(max_batch, "max_batch")
        if max_wait < 0 or not math.isfinite(max_wait):
            raise ValueError(f"max_wait must be finite and >= 0, got {max_wait}")
        self.engine = engine
        self.model = model or CloudGpuModel()
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.policy = policy
        self.tracer = tracer or NullTracer()
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        self.resource = Resource(engine, name)
        #: One entry per completed batch: start/end window, member labels.
        self.batch_log: list[dict] = []
        self.submitted: list[str] = []
        self.flush_reasons: dict[str, int] = {}
        #: The batch whose completion callbacks are currently firing —
        #: gateways read it inside ``on_done`` to link a request's trace
        #: to its batch window and co-batched peers.
        self.current_batch: dict | None = None
        self._hold: list[tuple[str, float, Callable[[float, float], None]]] = []
        # batch_latency of the hold, made by the first queue_delay() after
        # the hold changes (the router scores every GPU per submit)
        self._hold_latency: float | None = None
        self._hold_started: float | None = None
        self._pending_hold_window: float | None = None
        self._generation = 0          # stales pending max_wait timers
        self._launched = 0
        self._backlog = 0.0           # service time of formed, unfinished batches

    @property
    def name(self) -> str:
        return self.resource.name

    @property
    def held(self) -> int:
        """Requests waiting in the hold queue (not yet in a batch)."""
        return len(self._hold)

    @property
    def backlog_seconds(self) -> float:
        """Service time of batches formed but not yet finished."""
        return self._backlog

    def queue_delay(self) -> float:
        """Greedy estimate of the wait a new upload would see.

        Formed-batch backlog plus the service time of the current hold
        if it launched now. Deliberately optimistic about the running
        batch (its elapsed part is not subtracted) — this feeds the
        EFT placement scorer, which only needs relative ordering.
        """
        delay = self._backlog
        if self._hold:
            if self._hold_latency is None:
                self._hold_latency = self.model.batch_latency(
                    [u for _, u, _ in self._hold]
                )
            delay += self._hold_latency
        return delay

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        label: str,
        solo_time: float,
        on_done: Callable[[float, float], None],
        slack: float = math.inf,
    ) -> None:
        """Enqueue one uploaded request's cloud stage.

        ``solo_time`` is the planner-priced exclusive GPU time;
        ``on_done(start, end)`` fires with the batch window when the
        coalesced batch completes. ``slack`` (time to the request's
        deadline) only matters under the ``adaptive`` policy.
        """
        unit = self.model.unit_time(solo_time)
        self.submitted.append(label)
        item = (label, unit, on_done)
        if self.policy == "serve_now":
            self._launch([item], reason="now")
            return
        if self.policy == "adaptive" and not self._worth_holding(unit, slack):
            # deadline too tight to wait for company: flush everything
            # held so far together with this request, right now
            self._launch(self._take_hold() + [item], reason="slack")
            return
        self._hold.append(item)
        self._hold_latency = None
        if len(self._hold) == 1:
            self._hold_started = self.engine.now
        if len(self._hold) >= self.max_batch:
            self._launch(self._take_hold(), reason="size")
        elif self.max_wait == 0:
            self._launch(self._take_hold(), reason="timer")
        elif len(self._hold) == 1:
            generation = self._generation
            self.engine.schedule(self.max_wait, lambda: self._timer_fire(generation))

    def _worth_holding(self, unit: float, slack: float) -> bool:
        return slack > self.max_wait + self.queue_delay() + unit

    def _take_hold(self) -> list[tuple[str, float, Callable[[float, float], None]]]:
        items, self._hold = self._hold, []
        self._hold_latency = None
        self._generation += 1
        # hand the hold window to the launch that consumes these items
        self._pending_hold_window = self._hold_started
        self._hold_started = None
        return items

    def _timer_fire(self, generation: int) -> None:
        # a stale timer (its hold already flushed by size/slack) no-ops
        if generation == self._generation and self._hold:
            self._launch(self._take_hold(), reason="timer")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _launch(
        self, items: list[tuple[str, float, Callable[[float, float], None]]],
        reason: str,
    ) -> None:
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        self._launched += 1
        index = self._launched
        latency = self.model.batch_latency([unit for _, unit, _ in items])
        self._backlog += latency
        labels = [label for label, _, _ in items]
        batch_label = labels[0] if len(items) == 1 else f"batch[{len(items)}]"
        hold_started = self._pending_hold_window
        self._pending_hold_window = None
        if self.tracer.enabled and hold_started is not None:
            # the hold window: first held arrival → this flush
            self.tracer.record(
                f"hold[{len(items)}]",
                hold_started,
                self.engine.now,
                lane=(self.name, "hold"),
                size=len(items),
                reason=reason,
            )

        def done(start: float, end: float) -> None:
            self._backlog -= latency
            self.batch_log.append(
                {
                    "start": start,
                    "end": end,
                    "size": len(items),
                    "requests": labels,
                    "reason": reason,
                }
            )
            if self.tracer.enabled:
                parent = self.tracer.record(
                    batch_label,
                    start,
                    end,
                    lane=(self.name, "batches"),
                    size=len(items),
                    reason=reason,
                    batch=index,
                    requests=list(labels),
                )
                # one child window per member, so a batch opens into the
                # requests that rode it
                for label in labels:
                    self.tracer.record(
                        label,
                        start,
                        end,
                        parent=parent,
                        lane=(self.name, "requests"),
                        batch=index,
                    )
            if self.telemetry.enabled:
                self.telemetry.observe("batch_size", end, len(items), gpu=self.name)
                self.telemetry.record("batches", end, gpu=self.name, reason=reason)
                self.telemetry.sample("gpu_backlog", end, self._backlog, gpu=self.name)
            # visible to the members' on_done callbacks (trace linking)
            self.current_batch = {
                "batch": index,
                "batch_size": len(items),
                "flush_reason": reason,
                "co_batched": list(labels),
                "gpu": self.name,
            }
            for _, _, on_done in items:
                on_done(start, end)

        self.resource.acquire(batch_label, latency, done)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe summary for the fleet report's ``cloud`` section."""
        sizes = [batch["size"] for batch in self.batch_log]
        return {
            "name": self.name,
            "policy": self.policy,
            "max_batch": self.max_batch,
            "max_wait": self.max_wait,
            "submitted": len(self.submitted),
            "batches": len(sizes),
            "batched_requests": sum(sizes),
            "mean_batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
            "max_batch_size": max(sizes) if sizes else 0,
            "flush_reasons": dict(self.flush_reasons),
            "busy_time": self.resource.total_busy_time,
        }


class _PoolBusy:
    """Aggregate resource view of a GPU pool (duck-typed ``Resource``).

    Gateways riding a router report cloud utilization through this:
    ``total_busy_time`` sums the pool, so the report's cloud fraction
    reads as pool-seconds over the horizon (it may exceed 1.0 with
    several GPUs — busy GPU-seconds, not a single-device fraction).
    """

    def __init__(self, pool: list[BatchingServer], name: str) -> None:
        self._pool = pool
        self.name = name

    @property
    def total_busy_time(self) -> float:
        return sum(gpu.resource.total_busy_time for gpu in self._pool)

    def utilization(self, horizon: float) -> float:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        return self.total_busy_time / horizon


class LeastQueuedRouter:
    """Route each cloud submit to the least-queued GPU *at submit time*.

    The PR 7 fleet pinned gateway ``i`` to GPU ``i % K`` at build time,
    so a skewed placement could saturate one GPU while its neighbor
    idled. This router scores the pool with the same greedy
    :meth:`BatchingServer.queue_delay` estimate the EFT placer prices,
    picks the minimum (ties → lowest index, deterministic), and
    delegates — hold/flush semantics, batch logs, and per-GPU stats
    stay exactly the :class:`BatchingServer`'s. It mirrors the server's
    gateway-facing surface (``submit`` / ``queue_delay`` /
    ``current_batch`` / ``resource`` / ``name``) so gateways cannot
    tell a router from a private GPU.
    """

    name = "least-queued-pool"

    def __init__(self, pool: list[BatchingServer]) -> None:
        if not pool:
            raise ValueError("LeastQueuedRouter needs a non-empty GPU pool")
        self.pool = pool
        self.resource = _PoolBusy(pool, self.name)
        #: Mirrors the routed GPU's ``current_batch`` while completion
        #: callbacks fire (what gateways read inside ``on_done``).
        self.current_batch: dict | None = None
        #: Per-GPU routed-submit counts, for reports and tests.
        self.routed: dict[str, int] = {gpu.name: 0 for gpu in pool}

    def queue_delay(self) -> float:
        """The wait a new upload would see on the best GPU."""
        return min(gpu.queue_delay() for gpu in self.pool)

    def submit(
        self,
        label: str,
        solo_time: float,
        on_done: Callable[[float, float], None],
        slack: float = math.inf,
    ) -> None:
        best = self.pool[0]
        best_delay = best.queue_delay()
        for gpu in self.pool[1:]:
            delay = gpu.queue_delay()
            if delay < best_delay:
                best, best_delay = gpu, delay
        self.routed[best.name] += 1

        def done(start: float, end: float) -> None:
            self.current_batch = best.current_batch
            on_done(start, end)

        best.submit(label, solo_time, done, slack)
