"""The offload gateway: one server of a fleet, on the event engine.

This is the continuously-running counterpart of the paper's one-shot
batch: clients stream inference requests into per-client FIFO queues;
the gateway admits (bounded queue depth, optional deadlines), assigns
each admitted request a partition from the current plan, and drives the
mobile-CPU → uplink → cloud-GPU chain on the discrete-event engine
(:mod:`repro.sim.engine`). Scheduling is the Johnson-order online
policy of :mod:`repro.extensions.online`: whenever the mobile stage
idles, the Johnson-preferred request among the queue heads runs next.

Partitions adapt: an :class:`~repro.serving.estimator.AdaptiveChannelEstimator`
folds every observed upload into an EWMA rate; on drift past its
threshold the gateway re-prices cost tables through the shared
:class:`~repro.engine.PlanningEngine` (a warm structure cache makes
this a per-rate table build, not a re-enumeration) and subsequent
admissions draw cuts from the new mix. Everything observable lands in a
:class:`~repro.obs.metrics.MetricsRegistry` whose snapshot is the
gateway's JSON report.

A gateway does not drive itself: :class:`repro.fleet.FleetGateway`
builds one per :class:`~repro.fleet.config.ServerSpec` on the fleet's
shared engine, feeds it arrivals through :meth:`Gateway.submit`, and
asks it for its :meth:`Gateway.report` once the engine drains. Run a
single gateway as a one-server :class:`~repro.fleet.SystemConfig`.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.core.baselines import single_job_optimal_cut
from repro.core.plans import JobPlan
from repro.engine import PlanningEngine
from repro.extensions.online import OnlineJpsScheduler
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.net.timeline import BandwidthTimeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import NULL_BOARD
from repro.obs.timeseries import NULL_HUB
from repro.obs.tracer import NullTracer, Tracer
from repro.serving.estimator import AdaptiveChannelEstimator
from repro.serving.workload import Request
from repro.sim.engine import Engine, Resource
from repro.utils.validation import require_positive_integer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cloud.server import BatchingServer

__all__ = ["Gateway", "ServedRecord", "GATEWAY_SCHEMES"]

#: Schemes the gateway can serve under. ``JPS`` adapts its cut mix on
#: re-plans; the baselines' cut choices are bandwidth-invariant.
GATEWAY_SCHEMES = ("JPS", "LO", "CO", "PO")

#: Attempts per transfer the bare (no-policy) gateway retransmits a
#: corrupted payload before the link layer gives up and the request is
#: dropped — a safety valve, not a policy (with corruption probability
#: p the chance of hitting it is p**100).
MAX_BARE_RETRANSMITS = 100


#: One cut position as admission reads it: (f, g, cloud rest, label,
#: upload payload bytes, local tail); the local tail is the mobile time of
#: the layers past the cut, which a local fallback must still execute.
_PositionCosts = tuple[float, float, float, str, float, float]


@dataclass
class _ModelState:
    """Per-model planning state, rebuilt on every re-plan."""

    costs: tuple[_PositionCosts, ...]  # one entry per cut position
    mix: tuple[int, ...]              # the scheme's round-robin cut sequence
    assigned: int = 0                 # monotone round-robin pointer


@dataclass(slots=True)
class _Ticket:
    """One admitted request moving through the pipeline.

    Admission copies the chosen position's costs in; the :class:`JobPlan`,
    the stage label and the executed upload size are set by ``_start``,
    so only requests that run pay for them.
    """

    request: Request
    position: int
    f: float                          # planned mobile stage
    g: float                          # planned upload stage
    cloud_time: float                 # planned cloud stage
    cut_label: str
    payload_bytes: float
    local_tail: float                 # mobile time of the layers past the cut
    expiry: float                     # request.expiry, read on every index push
    admitted_at: float
    degraded: bool = False            # completed (or will complete) locally
    plan: JobPlan | None = None
    label: str = ""                   # "req{id}", the prefix of its stage labels
    wire_payload: float = 0.0         # executed upload bytes (fault factor applied)
    started: float | None = None
    completed: float | None = None
    # stage windows in virtual time, recorded as tracer spans at finish
    compute_window: tuple[float, float] | None = None
    comm_window: tuple[float, float] | None = None
    cloud_window: tuple[float, float] | None = None
    fallback_window: tuple[float, float] | None = None
    # fault/resilience bookkeeping (inert on the fault-free path)
    attempts: int = 0                 # transfer attempts so far
    timed_out: bool = False           # last attempt hit the per-attempt timeout
    # which GPU batch served the cloud stage (shared batching cloud only)
    batch_info: dict | None = None


class _HeadIndex:
    """Incremental Johnson/FIFO/expiry index over the queue heads.

    Lazy-deletion heaps replace the per-event rebuild of the ``heads``
    list. A JPS gateway keeps S1 (communication-heavy heads by ascending
    ``f``) and S2 (computation-heavy by descending ``g``), realizing
    Johnson's rule as two peeks; the baselines keep ``fifo`` instead,
    heads by arrival — each gateway fills only the heaps its scheme's
    order reads. ``expiry`` surfaces the earliest deadline so a burst of
    expiries drains in O(drops · log clients) instead of
    O(drops × clients). Entries are pushed once — when a ticket becomes
    its queue's head — and go stale when it stops being the head; stale
    entries are detected against the live queues on peek and popped
    exactly once, so ties never compare tickets (a sequence number
    breaks them first) and the index never needs rebuilding, not even on
    re-plans (queued tickets keep their admission-time plans).
    """

    def __init__(
        self,
        queues: dict[str, deque[_Ticket]],
        client_pos: dict[str, int],
        johnson: bool,
    ) -> None:
        self._queues = queues
        self._client_pos = client_pos
        self._johnson = johnson
        self._seq = 0
        self._s1: list[tuple[float, int, int, _Ticket]] = []
        self._s2: list[tuple[float, int, int, _Ticket]] = []
        self._fifo: list[tuple[float, int, int, _Ticket]] = []
        self._expiry: list[tuple[float, int, _Ticket]] = []

    def push(self, ticket: _Ticket) -> None:
        """Index a ticket that just became its queue's head."""
        self._seq += 1
        seq = self._seq
        request = ticket.request
        if self._johnson:
            f, g = ticket.f, ticket.g
            pos = self._client_pos[request.client_id]
            if f < g:
                heapq.heappush(self._s1, (f, pos, seq, ticket))
            else:
                heapq.heappush(self._s2, (-g, pos, seq, ticket))
        else:
            heapq.heappush(
                self._fifo, (request.arrival, request.request_id, seq, ticket)
            )
        if ticket.expiry != math.inf:
            heapq.heappush(self._expiry, (ticket.expiry, seq, ticket))

    def _is_head(self, ticket: _Ticket) -> bool:
        queue = self._queues.get(ticket.request.client_id)
        return bool(queue) and queue[0] is ticket

    def _peek(self, heap: list) -> _Ticket | None:
        while heap and not self._is_head(heap[0][-1]):
            heapq.heappop(heap)
        return heap[0][-1] if heap else None

    def next_head(self) -> _Ticket | None:
        """The head the scheme runs next: Johnson's rule (S1 by (f,
        client), else S2) under JPS, the earliest arrival otherwise."""
        if not self._johnson:
            return self._peek(self._fifo)
        head = self._peek(self._s1)
        return head if head is not None else self._peek(self._s2)

    def expired_head(self, now: float) -> _Ticket | None:
        """The earliest-deadline head, if it has already expired."""
        head = self._peek(self._expiry)
        if head is not None and head.expiry < now:
            return head
        return None


@dataclass(frozen=True)
class ServedRecord:
    """Terminal outcome of one request (served, degraded, or dropped)."""

    request_id: int
    client_id: str
    # "served" | "degraded" | "rejected" | "expired" | "failed"
    outcome: str
    latency: float | None             # completion - arrival, completed only


class Gateway:
    """One fleet server: admission + adaptive dispatch on a shared engine.

    ``timeline`` is the ground-truth uplink; the gateway never reads it
    directly — transfers are priced by the event engine at grant time
    and observed through the estimator. ``planner`` is shared across
    servers and runs on purpose: the bandwidth-independent structure
    caches are what make adaptive re-planning affordable. ``engine`` is
    the fleet's event engine, one virtual clock across all servers.
    """

    def __init__(
        self,
        timeline: BandwidthTimeline,
        planner: PlanningEngine,
        estimator: AdaptiveChannelEstimator,
        engine: Engine,
        scheme: str = "JPS",
        max_queue_depth: int = 64,
        nominal_burst: int = 8,
        include_cloud: bool = True,
        tracer: Tracer | NullTracer | None = None,
        resilience: ResiliencePolicy | None = None,
        faults: FaultPlan | None = None,
        name: str | None = None,
        cloud_server: "BatchingServer | None" = None,
        telemetry=None,
        slo=None,
    ) -> None:
        if scheme not in GATEWAY_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r} (use one of {GATEWAY_SCHEMES})")
        require_positive_integer(max_queue_depth, "max_queue_depth")
        require_positive_integer(nominal_burst, "nominal_burst")
        self.timeline = timeline
        self.planner = planner
        self.scheme = scheme
        self.estimator = estimator
        self.max_queue_depth = max_queue_depth
        self.nominal_burst = nominal_burst
        self.include_cloud = include_cloud
        self.metrics = MetricsRegistry()
        self.tracer = tracer or NullTracer()
        self.replan_events: list[dict] = []
        self._models: dict[str, _ModelState] = {}
        self._queues: dict[str, deque[_Ticket]] = {}
        self._client_order: list[str] = []
        self._client_pos: dict[str, int] = {}
        self._index = _HeadIndex(
            self._queues, self._client_pos, johnson=scheme == "JPS"
        )
        #: terminal outcome of every request this server was handed
        self.records: list[ServedRecord] = []
        # a name gives per-server trace lanes; an unnamed gateway keeps
        # the single-server ``gateway`` lanes
        self.name = name
        self._events_lane = ("gateway", "events") if name is None else (name, "events")
        self._lane_prefix = "" if name is None else f"{name}/"
        # windowed telemetry + SLO feed — both strictly opt-in; the null
        # twins keep every publish site one attribute check when disabled
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        self.slo = slo if slo is not None else NULL_BOARD
        self._obs_name = name or "gateway"
        # fleet placement context, keyed by request id, consumed into the
        # request's trace tree at finish (see note_placement)
        self._placements: dict[int, dict] = {}
        self._engine = engine
        self._mobile = Resource(self._engine, "mobile-cpu")
        self._uplink = Resource(self._engine, "uplink")
        self._cloud = Resource(self._engine, "cloud-gpu")
        # opt-in shared batching cloud (repro.cloud): when set, the cloud
        # stage routes through the hold-and-batch server instead of the
        # gateway's private GPU — strictly opt-in, like faults/resilience
        self._cloud_server = cloud_server
        self._cpu_claimed = False
        self._inflight = 0
        self._queued = 0
        # resilience + fault injection (both strictly opt-in: leaving them
        # None keeps this gateway byte-identical to the policy-free path)
        self.resilience = resilience
        self.faults = None if faults is None else faults.injector()
        self._degraded = False
        self._consecutive_failures = 0
        self._probe_pending = False
        self._probe_timed_out = False

    @property
    def degraded_mode(self) -> bool:
        """True while the gateway is serving local-only after a blackout."""
        return self._degraded

    @property
    def outstanding(self) -> int:
        """Admitted-but-unfinished work (queued + in flight).

        This is the load signal fleet placement policies balance on;
        reading it never mutates dispatch state. Maintained as O(1)
        counters — placement polls this per arrival, and a rescan of
        every client queue is what capped fleet sweeps at hundreds of
        clients.
        """
        return self._queued + self._inflight

    # ------------------------------------------------------------------
    # windowed telemetry + request correlation
    # ------------------------------------------------------------------
    def note_placement(self, request_id: int, **info) -> None:
        """Attach fleet placement context to a request's trace tree.

        The fleet calls this at placement time; the info becomes a
        ``placement`` child span of the request's lifecycle parent when
        the request finishes (see :meth:`_record_spans`).
        """
        self._placements[request_id] = info

    def _drop(self, request: Request, reason: str, outcome: str) -> None:
        """End one request unserved: counters, trace instant, terminal
        record, windowed counter and a bad SLO outcome."""
        now = self._engine.now
        self.metrics.counter("dropped").increment()
        self.metrics.counter(f"dropped_{reason}").increment()
        if self.tracer.enabled:
            self.tracer.instant(
                "gateway/drop",
                timestamp=now,
                lane=self._events_lane,
                request_id=request.request_id,
                client=request.client_id,
                reason=reason,
            )
        self.records.append(
            ServedRecord(request.request_id, request.client_id, outcome, None)
        )
        if self.telemetry.enabled:
            self.telemetry.record(
                "dropped", now, server=self._obs_name, reason=reason
            )
        if self.slo.enabled:
            self.slo.outcome(now, False)

    # ------------------------------------------------------------------
    # planning state
    # ------------------------------------------------------------------
    def _build_model_state(self, model: str) -> _ModelState:
        # priced from the engine's bandwidth-independent pricing kernel:
        # a re-plan costs one cached lookup + one g column, not a table build
        priced = self.planner.priced_table(
            model,
            self.estimator.estimate_bps,
            setup_latency=self.estimator.setup_latency,
            header_bytes=self.estimator.header_bytes,
            protocol_overhead=self.estimator.protocol_overhead,
        )
        table = priced.table
        # the cut sequence admission cycles through: the JPS mix, or the
        # one cut a baseline uses for every job at this rate
        if self.scheme == "JPS":
            mix = OnlineJpsScheduler(table, nominal_burst=self.nominal_burst).cut_mix
        elif self.scheme == "PO":
            mix = (single_job_optimal_cut(table),)
        else:
            mix = (0,) if self.scheme == "CO" else (table.k - 1,)
        # the accessors' floats (stage_lengths, cloud_rest,
        # local_only_time), read once per re-plan instead of per admission
        local = table.local_only_time
        costs = tuple(
            (f, g, rest, label, payload, max(0.0, local - f))
            for f, g, rest, label, payload in zip(
                table.f.tolist(),
                table.g.tolist(),
                (table.cloud[-1] - table.cloud).tolist(),
                table.positions,
                priced.payloads,
            )
        )
        return _ModelState(costs=costs, mix=mix)

    def _state_of(self, model: str) -> _ModelState:
        state = self._models.get(model)
        if state is None:
            state = self._models[model] = self._build_model_state(model)
        return state

    def _next_position(self, state: _ModelState) -> int:
        if self._degraded:
            # degraded mode: everything runs on the device until a
            # recovery probe brings the uplink back
            return len(state.costs) - 1
        position = state.mix[state.assigned % len(state.mix)]
        state.assigned += 1
        return position

    @property
    def _fault_aware(self) -> bool:
        """True when any opt-in fault machinery is installed.

        Gates every new report/event field: a gateway constructed
        without faults or a policy emits byte-identical output to the
        pre-fault code, replan events included.
        """
        return self.resilience is not None or self.faults is not None

    def _rebuild_plans(self) -> None:
        carried = {model: state.assigned for model, state in self._models.items()}
        self._models = {model: self._build_model_state(model) for model in self._models}
        for model, assigned in carried.items():
            self._models[model].assigned = assigned

    def _replan(self, kind: str = "drift") -> None:
        old_bps = self.estimator.planned_bps
        drift = self.estimator.drift
        new_bps = self.estimator.rebase()
        self._rebuild_plans()
        self.metrics.counter("replans").increment()
        if self.telemetry.enabled:
            self.telemetry.record(
                "replans", self._engine.now, server=self._obs_name, kind=kind
            )
        tagged = {"kind": kind} if self._fault_aware else {}
        self.tracer.instant(
            "gateway/replan",
            timestamp=self._engine.now,
            lane=self._events_lane,
            old_bps=old_bps,
            new_bps=new_bps,
            drift=drift,
            **tagged,
        )
        self.replan_events.append(
            {
                "time": self._engine.now,
                "old_bps": old_bps,
                "new_bps": new_bps,
                "drift": drift,
                **tagged,
            }
        )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Admit (or reject) one request at the current simulation time."""
        self.metrics.counter("arrived").increment()
        if self.telemetry.enabled:
            self.telemetry.record(
                "arrivals", self._engine.now, server=self._obs_name
            )
        if self.faults is not None and self.faults.disconnected(
            request.client_id, self._engine.now
        ):
            # the client's link to the gateway is down: the request never
            # reaches admission (it is not queued, so it cannot expire)
            self._drop(request, "disconnected", "failed")
            return
        queue = self._queues.get(request.client_id)
        if queue is None:
            queue = self._queues[request.client_id] = deque()
            self._client_pos[request.client_id] = len(self._client_order)
            self._client_order.append(request.client_id)
        if len(queue) >= self.max_queue_depth:
            self._drop(request, "queue_full", "rejected")
            return
        state = self._state_of(request.model)
        position = self._next_position(state)
        ticket = _Ticket(
            request,
            position,
            *state.costs[position],
            request.expiry,
            self._engine.now,
            self._degraded,
        )
        queue.append(ticket)
        self._queued += 1
        if len(queue) == 1:
            self._index.push(ticket)
        self.metrics.counter("admitted").increment()
        self.metrics.histogram("queue_depth").observe(len(queue))
        if self.telemetry.enabled:
            self.telemetry.sample(
                "queue_depth",
                self._engine.now,
                self.outstanding,
                server=self._obs_name,
            )
        if self._degraded:
            # new work while degraded: make sure recovery probing runs
            self._schedule_probe()
        self._dispatch()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _pop_head(self, ticket: _Ticket) -> None:
        """Remove a head from its queue and index the promoted successor."""
        queue = self._queues[ticket.request.client_id]
        queue.popleft()
        self._queued -= 1
        if queue:
            self._index.push(queue[0])

    def _dispatch(self) -> None:
        if self._cpu_claimed:
            return
        now = self._engine.now
        # drain every expired head (including heads promoted by a drop)
        # straight off the expiry heap: O(log clients) per drop, however
        # many clients are idle
        while True:
            expired = self._index.expired_head(now)
            if expired is None:
                break
            self._pop_head(expired)
            self._drop(expired.request, "deadline", "expired")
        ticket = self._index.next_head()
        if ticket is None:
            return
        self._pop_head(ticket)
        self._start(ticket)

    # ------------------------------------------------------------------
    # one request's lifecycle
    # ------------------------------------------------------------------
    # Each stage is a method bound to its ticket with ``partial`` as it is
    # handed to a resource, the engine or the cloud, so a request's
    # callbacks form no reference cycle: reference counting frees a
    # finished request at once, and the cycle collector never sees it.
    def _start(self, ticket: _Ticket) -> None:
        self._cpu_claimed = True
        self._inflight += 1
        ticket.started = self._engine.now
        self.metrics.histogram("queue_wait").observe(
            self._engine.now - ticket.request.arrival
        )
        request = ticket.request
        rid = request.request_id
        ticket.plan = JobPlan(
            job_id=rid,
            model=request.model,
            cut_position=ticket.position,
            compute_time=ticket.f,
            comm_time=ticket.g,
            cloud_time=ticket.cloud_time,
            cut_label=ticket.cut_label,
        )
        ticket.label = label = f"req{rid}"
        injector = self.faults
        # executed (not planned) costs: cost-model misestimation makes the
        # run diverge from the plan without the planner knowing
        compute_time = ticket.f
        wire_payload = ticket.payload_bytes
        if injector is not None:
            compute_time = compute_time * injector.compute_factor(rid)
            wire_payload = wire_payload * injector.payload_factor(rid)
        ticket.wire_payload = wire_payload
        self._mobile.acquire(
            f"{label}/compute", compute_time, partial(self._after_compute, ticket)
        )

    def _comm_duration(self, ticket: _Ticket, start: float) -> float:
        actual = self.timeline.transfer_end(start, ticket.wire_payload) - start
        policy = self.resilience
        if (
            policy is not None
            and policy.transfer_timeout is not None
            and actual > policy.transfer_timeout
        ):
            # abandon the attempt: release the uplink at the timeout
            # instead of holding it for a (possibly unbounded) stall
            ticket.timed_out = True
            return policy.transfer_timeout
        ticket.timed_out = False
        return actual

    def _send(self, ticket: _Ticket) -> None:
        self._uplink.acquire(
            f"{ticket.label}/comm",
            partial(self._comm_duration, ticket),
            partial(self._after_comm, ticket),
        )

    def _after_compute(self, ticket: _Ticket, start: float, end: float) -> None:
        ticket.compute_window = (start, end)
        # the CPU is free the instant the compute stage ends: hand it
        # to the Johnson-next request before this one queues uplink
        self._cpu_claimed = False
        self._dispatch()
        if ticket.payload_bytes > 0:
            self._send(ticket)
        else:
            self._enter_cloud(ticket)

    def _after_comm(self, ticket: _Ticket, start: float, end: float) -> None:
        attempt = ticket.attempts
        ticket.attempts += 1
        if ticket.timed_out:
            ticket.timed_out = False
            self._transfer_failed(ticket, "timeout")
            return
        injector = self.faults
        if injector is not None and injector.corrupted(
            ticket.request.request_id, attempt, start
        ):
            self._transfer_failed(ticket, "corrupt")
            return
        ticket.comm_window = (start, end)
        self._consecutive_failures = 0
        self.estimator.observe(ticket.payload_bytes, end - start)
        if self.scheme == "JPS" and self.estimator.drifted():
            self._replan()
        self._enter_cloud(ticket)

    def _transfer_failed(self, ticket: _Ticket, reason: str) -> None:
        self.metrics.counter("transfer_failures").increment()
        self.metrics.counter(
            "transfer_timeouts" if reason == "timeout" else "transfer_corruptions"
        ).increment()
        self._consecutive_failures += 1
        self.tracer.instant(
            "gateway/transfer_failure",
            timestamp=self._engine.now,
            lane=self._events_lane,
            request_id=ticket.request.request_id,
            reason=reason,
            attempt=ticket.attempts - 1,
        )
        policy = self.resilience
        if policy is None:
            # bare link layer: immediate retransmit until the safety
            # valve trips (models TCP with no application policy)
            if ticket.attempts >= MAX_BARE_RETRANSMITS:
                self._fail(ticket)
            else:
                self._send(ticket)
            return
        if (
            not self._degraded
            and self._consecutive_failures >= policy.degrade_after_failures
        ):
            self._enter_degraded()
        if ticket.attempts <= policy.max_retries:
            self.metrics.counter("transfer_retries").increment()
            self._engine.schedule(
                policy.backoff(ticket.attempts - 1), partial(self._send, ticket)
            )
        elif policy.local_fallback:
            self._local_fallback(ticket)
        else:
            self._fail(ticket)

    def _local_fallback(self, ticket: _Ticket) -> None:
        # retries exhausted: run the remaining layers on the device
        # instead of dropping the request
        self.metrics.counter("local_fallbacks").increment()
        ticket.degraded = True
        if ticket.local_tail > 0:
            self._mobile.acquire(
                f"{ticket.label}/fallback",
                ticket.local_tail,
                partial(self._after_fallback, ticket),
            )
        else:
            self._finish(ticket)

    def _after_fallback(self, ticket: _Ticket, start: float, end: float) -> None:
        ticket.fallback_window = (start, end)
        self._finish(ticket)

    def _fail(self, ticket: _Ticket) -> None:
        self._inflight -= 1
        self._drop(ticket.request, "transfer_failed", "failed")

    def _enter_cloud(self, ticket: _Ticket) -> None:
        cloud_time = ticket.cloud_time
        if not (self.include_cloud and cloud_time > 0):
            self._finish(ticket)
        elif self._cloud_server is not None:
            self._cloud_server.submit(
                f"{ticket.label}/cloud",
                cloud_time,
                partial(self._after_cloud, ticket),
                slack=ticket.expiry - self._engine.now,
            )
        else:
            self._cloud.acquire(
                f"{ticket.label}/cloud", cloud_time, partial(self._after_cloud, ticket)
            )

    def _after_cloud(self, ticket: _Ticket, start: float, end: float) -> None:
        ticket.cloud_window = (start, end)
        if self._cloud_server is not None:
            # the batch that just completed is still current: link
            # this request to its co-batched peers in the trace tree
            ticket.batch_info = self._cloud_server.current_batch
        self._finish(ticket)

    def _finish(self, ticket: _Ticket) -> None:
        ticket.completed = self._engine.now
        self._inflight -= 1
        latency = ticket.completed - ticket.request.arrival
        outcome = "degraded" if ticket.degraded else "served"
        self.metrics.counter(outcome).increment()
        self.metrics.histogram("latency").observe(latency)
        if self.telemetry.enabled:
            now = ticket.completed
            self.telemetry.record(outcome, now, server=self._obs_name)
            self.telemetry.observe(
                "latency", now, latency, server=self._obs_name
            )
        if self.slo.enabled:
            deadline = ticket.request.deadline
            self.slo.outcome(
                ticket.completed, deadline is None or latency <= deadline
            )
        if self.tracer.enabled:
            self._record_spans(ticket, latency)
        self.records.append(
            ServedRecord(
                ticket.request.request_id,
                ticket.request.client_id,
                outcome,
                latency,
            )
        )

    def _record_spans(self, ticket: _Ticket, latency: float) -> None:
        """Retro-record one served request's lifecycle as tracer spans.

        Virtual-time stage windows only become known as their DES
        callbacks fire, so the whole family — request parent, queue
        wait, then one span per executed stage — is recorded at finish.
        Each request is its own lane process (``req <id>``) with one
        track per stage, mirroring :func:`repro.sim.trace.pipeline_spans`.
        Called only under a live tracer: the disabled one would discard
        every span.
        """
        rid = ticket.request.request_id
        process = f"{self._lane_prefix}req {rid}"
        parent = self.tracer.record(
            f"request {rid}",
            ticket.request.arrival,
            ticket.completed,
            lane=(process, "lifecycle"),
            request_id=rid,
            client=ticket.request.client_id,
            model=ticket.request.model,
            cut=ticket.plan.cut_label or ticket.plan.cut_position,
            latency=latency,
        )
        placement = self._placements.pop(rid, None)
        if placement is not None:
            # the fleet's placement decision, as a zero-width child at
            # admission so the whole hop sequence reads off one tree
            self.tracer.record(
                "placement",
                ticket.admitted_at,
                ticket.admitted_at,
                parent=parent,
                lane=(process, "placement"),
                **placement,
            )
        self.tracer.record(
            "queue", ticket.admitted_at, ticket.started, parent=parent, lane=(process, "queue")
        )
        for stage, resource, window in (
            ("compute", "mobile-cpu", ticket.compute_window),
            ("transfer", "uplink", ticket.comm_window),
            ("cloud", "cloud-gpu", ticket.cloud_window),
            ("fallback", "mobile-cpu", ticket.fallback_window),
        ):
            if window is None:
                continue
            # cloud stages served by a shared batching GPU carry their
            # batch window: which batch, its flush reason, and the
            # co-batched request labels
            extra = (
                ticket.batch_info
                if stage == "cloud" and ticket.batch_info is not None
                else {}
            )
            self.tracer.record(
                stage,
                window[0],
                window[1],
                parent=parent,
                lane=(process, resource),
                resource=resource,
                **extra,
            )

    # ------------------------------------------------------------------
    # degraded mode + recovery probing
    # ------------------------------------------------------------------
    def _enter_degraded(self) -> None:
        """Stop offloading: serve local-only and start probing the uplink."""
        if self._degraded:
            return
        self._degraded = True
        self.metrics.counter("degradations").increment()
        self.tracer.instant(
            "gateway/degrade",
            timestamp=self._engine.now,
            lane=self._events_lane,
            consecutive_failures=self._consecutive_failures,
        )
        self.replan_events.append(
            {
                "time": self._engine.now,
                "old_bps": self.estimator.planned_bps,
                "new_bps": None,
                "drift": self.estimator.drift,
                "kind": "degrade",
            }
        )
        self._schedule_probe()

    def _recover(self) -> None:
        """A probe returned in time: re-plan at the probed rate and resume."""
        if not self._degraded:
            return
        self._degraded = False
        self._consecutive_failures = 0
        self.metrics.counter("recoveries").increment()
        self.tracer.instant(
            "gateway/recover",
            timestamp=self._engine.now,
            lane=self._events_lane,
            estimate_bps=self.estimator.estimate_bps,
        )
        self._replan(kind="recovery")

    def _schedule_probe(self) -> None:
        """Arm the next recovery probe, if one is due and work remains.

        Probes are only armed while the gateway has pending work: an
        idle degraded gateway stops probing so ``Engine.run`` can drain
        (a later :meth:`submit` re-arms probing).
        """
        if not self._degraded or self._probe_pending or self.resilience is None:
            return
        if not self.outstanding:
            return
        self._probe_pending = True
        self._engine.schedule(self.resilience.probe_interval, self._launch_probe)

    def _launch_probe(self) -> None:
        policy = self.resilience
        if not self._degraded or policy is None:
            self._probe_pending = False
            return
        timeout = policy.effective_probe_timeout

        def probe_duration(start: float) -> float:
            actual = self.timeline.transfer_end(start, policy.probe_bytes) - start
            if timeout is not None and actual > timeout:
                self._probe_timed_out = True
                return timeout
            self._probe_timed_out = False
            return actual

        def after_probe(start: float, end: float) -> None:
            self._probe_pending = False
            self.metrics.counter("probes").increment()
            if self._probe_timed_out:
                self._probe_timed_out = False
                self._schedule_probe()
                return
            self.estimator.observe(policy.probe_bytes, end - start)
            self._recover()

        self._uplink.acquire("probe", probe_duration, after_probe)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, makespan: float) -> dict:
        """JSON-safe metrics report of this server's run (see docs/serving.md).

        ``makespan`` is the drained fleet engine's clock. Engine cache
        totals are published into the gateway's own registry as gauges
        first, so the snapshot (and any Prometheus exposition built
        from it) carries serving counters and planner cache health side
        by side.
        """
        self.planner.to_metrics(self.metrics)
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        horizon = max(makespan, 1e-12)
        # under a shared batching cloud, utilization reports the shared
        # GPU this gateway rides on (same object for every gateway wired
        # to it)
        cloud = self._cloud if self._cloud_server is None else self._cloud_server.resource
        # a drained run leaves nothing outstanding (dispatch fires on
        # every CPU idle); anything counted here means it was truncated
        pending = self.outstanding
        report = {
            "scheme": self.scheme,
            "makespan": makespan,
            "counters": counters,
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "replans": self.replan_events,
            "estimator": {
                "planned_bps": self.estimator.planned_bps,
                "estimate_bps": self.estimator.estimate_bps,
                "observations": self.estimator.observations,
            },
            "utilization": {
                "mobile": self._mobile.total_busy_time / horizon,
                "uplink": self._uplink.total_busy_time / horizon,
                "cloud": cloud.total_busy_time / horizon,
            },
            "throughput_rps": counters.get("served", 0) / horizon,
            "pending": pending,
            "balance_ok": (
                counters.get("served", 0)
                + counters.get("degraded", 0)
                + counters.get("dropped", 0)
                + pending
                == counters.get("arrived", 0)
            ),
            "engine_cache": self.planner.stats_snapshot()["totals"],
        }
        # opt-in sections: absent on fault-free gateways so their reports
        # stay byte-identical to the pre-fault code
        if self.resilience is not None:
            report["resilience"] = {
                "policy": self.resilience.as_dict(),
                "degraded_at_end": self._degraded,
            }
        if self.faults is not None:
            report["faults"] = self.faults.snapshot()
        return report

