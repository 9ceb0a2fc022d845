"""The offload gateway: multi-client serving on the event engine.

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
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.baselines import single_job_optimal_cut
from repro.core.plans import JobPlan
from repro.engine import PlanningEngine
from repro.extensions.online import OnlineJpsScheduler
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.net.timeline import BandwidthTimeline
from repro.obs.slo import NULL_BOARD
from repro.obs.timeseries import NULL_HUB
from repro.obs.tracer import NullTracer, Tracer
from repro.profiling.latency import CostTable
from repro.serving.estimator import AdaptiveChannelEstimator
from repro.obs.metrics import MetricsRegistry
from repro.serving.workload import Request
from repro.sim.engine import Engine, Resource
from repro.utils.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cloud.server import BatchingServer

__all__ = ["Gateway", "GatewayResult", "ServedRecord", "GATEWAY_SCHEMES"]

#: Schemes the gateway can serve under. ``JPS`` adapts its cut mix on
#: re-plans; the baselines' cut choices are bandwidth-invariant.
GATEWAY_SCHEMES = ("JPS", "LO", "CO", "PO")

#: Attempts per transfer the bare (no-policy) gateway retransmits a
#: corrupted payload before the link layer gives up and the request is
#: dropped — a safety valve, not a policy (with corruption probability
#: p the chance of hitting it is p**100).
MAX_BARE_RETRANSMITS = 100


@dataclass
class _ModelState:
    """Per-model planning state, rebuilt on every re-plan."""

    table: CostTable
    payloads: tuple[float, ...]       # upload bytes per cut position
    mix: tuple[int, ...]              # JPS round-robin cut sequence
    assigned: int = 0                 # monotone round-robin pointer


@dataclass
class _Ticket:
    """One admitted request moving through the pipeline."""

    request: Request
    plan: JobPlan
    payload_bytes: float
    admitted_at: float
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
    degraded: bool = False            # completed (or will complete) locally
    local_tail: float = 0.0           # mobile time of the layers past the cut
    # which GPU batch served the cloud stage (shared batching cloud only)
    batch_info: dict | None = None


class _HeadIndex:
    """Incremental Johnson/FIFO/expiry index over the queue heads.

    Four lazy-deletion heaps replace the per-event rebuild of the
    ``heads`` list: S1 (communication-heavy heads by ascending ``f``)
    and S2 (computation-heavy by descending ``g``) realize Johnson's
    rule as two peeks, ``fifo`` orders heads by arrival for the
    baselines, and ``expiry`` surfaces the earliest deadline so a burst
    of expiries drains in O(drops · log clients) instead of
    O(drops × clients). Entries are pushed once — when a ticket becomes
    its queue's head — and go stale when it stops being the head; stale
    entries are detected against the live queues on peek and popped
    exactly once, so ties never compare tickets (a sequence number
    breaks them first) and the index never needs rebuilding, not even on
    re-plans (queued tickets keep their admission-time plans).
    """

    def __init__(
        self, queues: dict[str, deque[_Ticket]], client_pos: dict[str, int]
    ) -> None:
        self._queues = queues
        self._client_pos = client_pos
        self._seq = 0
        self._s1: list[tuple[float, int, int, _Ticket]] = []
        self._s2: list[tuple[float, int, int, _Ticket]] = []
        self._fifo: list[tuple[float, int, int, _Ticket]] = []
        self._expiry: list[tuple[float, int, _Ticket]] = []

    def push(self, ticket: _Ticket) -> None:
        """Index a ticket that just became its queue's head."""
        self._seq += 1
        seq = self._seq
        pos = self._client_pos[ticket.request.client_id]
        f, g = ticket.plan.stages
        if f < g:
            heapq.heappush(self._s1, (f, pos, seq, ticket))
        else:
            heapq.heappush(self._s2, (-g, pos, seq, ticket))
        heapq.heappush(
            self._fifo,
            (ticket.request.arrival, ticket.request.request_id, seq, ticket),
        )
        if ticket.request.expiry != float("inf"):
            heapq.heappush(self._expiry, (ticket.request.expiry, seq, ticket))

    def _is_head(self, ticket: _Ticket) -> bool:
        queue = self._queues.get(ticket.request.client_id)
        return bool(queue) and queue[0] is ticket

    def _peek(self, heap: list) -> _Ticket | None:
        while heap and not self._is_head(heap[0][-1]):
            heapq.heappop(heap)
        return heap[0][-1] if heap else None

    def johnson_head(self) -> _Ticket | None:
        """The head Johnson's rule runs next: S1 by (f, client), else S2."""
        head = self._peek(self._s1)
        return head if head is not None else self._peek(self._s2)

    def fifo_head(self) -> _Ticket | None:
        return self._peek(self._fifo)

    def expired_head(self, now: float) -> _Ticket | None:
        """The earliest-deadline head, if it has already expired."""
        head = self._peek(self._expiry)
        if head is not None and head.request.expiry < now:
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


@dataclass
class GatewayResult:
    """What one gateway run produced."""

    scheme: str
    makespan: float
    records: list[ServedRecord]
    metrics: MetricsRegistry
    replan_events: list[dict]
    mobile: Resource
    uplink: Resource
    cloud: Resource
    pending: int                      # admitted but unfinished (truncated runs)


class Gateway:
    """Admission + adaptive dispatch over one simulated device fleet.

    ``timeline`` is the ground-truth uplink; the gateway never reads it
    directly — transfers are priced by the event engine at grant time
    and observed through the estimator. ``planner`` is shared across
    schemes/runs on purpose: the bandwidth-independent structure caches
    are what make adaptive re-planning affordable.
    """

    def __init__(
        self,
        timeline: BandwidthTimeline,
        planner: PlanningEngine | None = None,
        scheme: str = "JPS",
        estimator: AdaptiveChannelEstimator | None = None,
        initial_bps: float | None = None,
        max_queue_depth: int = 64,
        nominal_burst: int = 8,
        include_cloud: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        resilience: ResiliencePolicy | None = None,
        faults: FaultInjector | FaultPlan | None = None,
        engine: Engine | None = None,
        name: str | None = None,
        cloud_server: "BatchingServer | None" = None,
        telemetry=None,
        slo=None,
    ) -> None:
        if scheme not in GATEWAY_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r} (use one of {GATEWAY_SCHEMES})")
        require_positive(max_queue_depth, "max_queue_depth")
        require_positive(nominal_burst, "nominal_burst")
        self.timeline = timeline
        self.planner = planner or PlanningEngine()
        self.scheme = scheme
        self.estimator = estimator or AdaptiveChannelEstimator(
            initial_bps=initial_bps or timeline.rates_bps[0],
            setup_latency=timeline.setup_latency,
            header_bytes=timeline.header_bytes,
            protocol_overhead=timeline.protocol_overhead,
        )
        self.max_queue_depth = max_queue_depth
        self.nominal_burst = nominal_burst
        self.include_cloud = include_cloud
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NullTracer()
        self.replan_events: list[dict] = []
        self._models: dict[str, _ModelState] = {}
        self._queues: dict[str, deque[_Ticket]] = {}
        self._client_order: list[str] = []
        self._client_pos: dict[str, int] = {}
        self._index = _HeadIndex(self._queues, self._client_pos)
        self._records: list[ServedRecord] = []
        # a fleet passes a shared engine (one virtual clock across all
        # servers) and a name (per-server trace lanes); standalone
        # gateways own their engine and keep the historical lane names
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
        self._engine = engine if engine is not None else Engine()
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
        self.faults = faults.injector() if isinstance(faults, FaultPlan) else faults
        self._degraded = False
        self._consecutive_failures = 0
        self._probe_pending = False
        self._probe_timed_out = False

    @property
    def engine(self) -> Engine:
        """The underlying event engine (read-only; invariant monitors
        attach their clock observers here)."""
        return self._engine

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

    def _publish_drop(self, reason: str) -> None:
        """One dropped request: windowed counter + bad SLO outcome."""
        now = self._engine.now
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
        mix = OnlineJpsScheduler(priced.table, nominal_burst=self.nominal_burst).cut_mix
        return _ModelState(table=priced.table, payloads=priced.payloads, mix=mix)

    def _state_of(self, model: str) -> _ModelState:
        if model not in self._models:
            self._models[model] = self._build_model_state(model)
        return self._models[model]

    def _next_position(self, state: _ModelState) -> int:
        if self._degraded:
            # degraded mode: everything runs on the device until a
            # recovery probe brings the uplink back
            return state.table.k - 1
        if self.scheme == "LO":
            return state.table.k - 1
        if self.scheme == "CO":
            return 0
        if self.scheme == "PO":
            return single_job_optimal_cut(state.table)
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
            self.metrics.counter("dropped").increment()
            self.metrics.counter("dropped_disconnected").increment()
            self.tracer.instant(
                "gateway/drop",
                timestamp=self._engine.now,
                lane=self._events_lane,
                request_id=request.request_id,
                client=request.client_id,
                reason="disconnected",
            )
            self._records.append(
                ServedRecord(request.request_id, request.client_id, "failed", None)
            )
            self._publish_drop("disconnected")
            return
        if request.client_id not in self._queues:
            self._queues[request.client_id] = deque()
            self._client_pos[request.client_id] = len(self._client_order)
            self._client_order.append(request.client_id)
        queue = self._queues[request.client_id]
        if len(queue) >= self.max_queue_depth:
            self.metrics.counter("dropped").increment()
            self.metrics.counter("dropped_queue_full").increment()
            self.tracer.instant(
                "gateway/drop",
                timestamp=self._engine.now,
                lane=self._events_lane,
                request_id=request.request_id,
                client=request.client_id,
                reason="queue_full",
            )
            self._records.append(
                ServedRecord(request.request_id, request.client_id, "rejected", None)
            )
            self._publish_drop("queue_full")
            return
        state = self._state_of(request.model)
        position = self._next_position(state)
        f, g = state.table.stage_lengths(position)
        plan = JobPlan(
            job_id=request.request_id,
            model=request.model,
            cut_position=position,
            compute_time=f,
            comm_time=g,
            cloud_time=state.table.cloud_rest(position),
            cut_label=state.table.positions[position],
        )
        ticket = _Ticket(
            request=request,
            plan=plan,
            payload_bytes=state.payloads[position],
            admitted_at=self._engine.now,
            # mobile time of the layers past the cut — what a local
            # fallback must still execute after the transfer is abandoned
            local_tail=max(0.0, state.table.local_only_time - f),
            degraded=self._degraded,
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
            self.metrics.counter("dropped").increment()
            self.metrics.counter("dropped_deadline").increment()
            self.tracer.instant(
                "gateway/drop",
                timestamp=now,
                lane=self._events_lane,
                request_id=expired.request.request_id,
                client=expired.request.client_id,
                reason="deadline",
            )
            self._records.append(
                ServedRecord(
                    expired.request.request_id,
                    expired.request.client_id,
                    "expired",
                    None,
                )
            )
            self._publish_drop("deadline")
        ticket = (
            self._index.johnson_head()
            if self.scheme == "JPS"
            else self._index.fifo_head()
        )
        if ticket is None:
            return
        self._pop_head(ticket)
        self._start(ticket)

    def _start(self, ticket: _Ticket) -> None:
        self._cpu_claimed = True
        self._inflight += 1
        ticket.started = self._engine.now
        self.metrics.histogram("queue_wait").observe(
            self._engine.now - ticket.request.arrival
        )
        rid = ticket.request.request_id
        label = f"req{rid}"
        policy = self.resilience
        injector = self.faults
        # executed (not planned) costs: cost-model misestimation makes the
        # run diverge from the plan without the planner knowing
        compute_time = ticket.plan.compute_time
        wire_payload = ticket.payload_bytes
        if injector is not None:
            compute_time = compute_time * injector.compute_factor(rid)
            wire_payload = wire_payload * injector.payload_factor(rid)

        def comm_duration(start: float) -> float:
            actual = self.timeline.transfer_end(start, wire_payload) - start
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

        def send() -> None:
            self._uplink.acquire(f"{label}/comm", comm_duration, after_comm)

        def after_compute(start: float, end: float) -> None:
            ticket.compute_window = (start, end)
            # the CPU is free the instant the compute stage ends: hand it
            # to the Johnson-next request before this one queues uplink
            self._cpu_claimed = False
            self._dispatch()
            if ticket.payload_bytes > 0:
                send()
            else:
                enter_cloud()

        def after_comm(start: float, end: float) -> None:
            attempt = ticket.attempts
            ticket.attempts += 1
            if ticket.timed_out:
                ticket.timed_out = False
                transfer_failed("timeout")
                return
            if injector is not None and injector.corrupted(rid, attempt, start):
                transfer_failed("corrupt")
                return
            ticket.comm_window = (start, end)
            self._consecutive_failures = 0
            self.estimator.observe(ticket.payload_bytes, end - start)
            if self.scheme == "JPS" and self.estimator.drifted():
                self._replan()
            enter_cloud()

        def transfer_failed(reason: str) -> None:
            self.metrics.counter("transfer_failures").increment()
            self.metrics.counter(
                "transfer_timeouts" if reason == "timeout" else "transfer_corruptions"
            ).increment()
            self._consecutive_failures += 1
            self.tracer.instant(
                "gateway/transfer_failure",
                timestamp=self._engine.now,
                lane=self._events_lane,
                request_id=rid,
                reason=reason,
                attempt=ticket.attempts - 1,
            )
            if policy is None:
                # bare link layer: immediate retransmit until the safety
                # valve trips (models TCP with no application policy)
                if ticket.attempts >= MAX_BARE_RETRANSMITS:
                    fail()
                else:
                    send()
                return
            if (
                not self._degraded
                and self._consecutive_failures >= policy.degrade_after_failures
            ):
                self._enter_degraded()
            if ticket.attempts <= policy.max_retries:
                self.metrics.counter("transfer_retries").increment()
                self._engine.schedule(policy.backoff(ticket.attempts - 1), send)
            elif policy.local_fallback:
                local_fallback()
            else:
                fail()

        def local_fallback() -> None:
            # retries exhausted: run the remaining layers on the device
            # instead of dropping the request
            self.metrics.counter("local_fallbacks").increment()
            ticket.degraded = True
            if ticket.local_tail > 0:
                self._mobile.acquire(f"{label}/fallback", ticket.local_tail, after_fallback)
            else:
                finish()

        def after_fallback(start: float, end: float) -> None:
            ticket.fallback_window = (start, end)
            finish()

        def fail() -> None:
            self._inflight -= 1
            self.metrics.counter("dropped").increment()
            self.metrics.counter("dropped_transfer_failed").increment()
            self.tracer.instant(
                "gateway/drop",
                timestamp=self._engine.now,
                lane=self._events_lane,
                request_id=rid,
                client=ticket.request.client_id,
                reason="transfer_failed",
            )
            self._records.append(
                ServedRecord(rid, ticket.request.client_id, "failed", None)
            )
            self._publish_drop("transfer_failed")

        def enter_cloud() -> None:
            if self.include_cloud and ticket.plan.cloud_time > 0:
                if self._cloud_server is not None:
                    self._cloud_server.submit(
                        f"{label}/cloud",
                        ticket.plan.cloud_time,
                        after_cloud,
                        slack=ticket.request.expiry - self._engine.now,
                    )
                else:
                    self._cloud.acquire(
                        f"{label}/cloud", ticket.plan.cloud_time, after_cloud
                    )
            else:
                finish()

        def after_cloud(start: float, end: float) -> None:
            ticket.cloud_window = (start, end)
            if self._cloud_server is not None:
                # the batch that just completed is still current: link
                # this request to its co-batched peers in the trace tree
                ticket.batch_info = self._cloud_server.current_batch
            finish()

        def finish() -> None:
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
            self._record_spans(ticket, latency)
            self._records.append(
                ServedRecord(
                    rid,
                    ticket.request.client_id,
                    outcome,
                    latency,
                )
            )

        self._mobile.acquire(f"{label}/compute", compute_time, after_compute)

    def _record_spans(self, ticket: _Ticket, latency: float) -> None:
        """Retro-record one served request's lifecycle as tracer spans.

        Virtual-time stage windows only become known as their DES
        callbacks fire, so the whole family — request parent, queue
        wait, then one span per executed stage — is recorded at finish.
        Each request is its own lane process (``req <id>``) with one
        track per stage, mirroring :func:`repro.sim.trace.pipeline_spans`.
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
    def _has_work(self) -> bool:
        return self._inflight > 0 or any(self._queues.values())

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
        if not self._has_work():
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
    # driving
    # ------------------------------------------------------------------
    def run(self, requests: list[Request], until: float | None = None) -> GatewayResult:
        """Serve a request stream; drains fully unless ``until`` is set."""
        for request in sorted(requests, key=lambda r: (r.arrival, r.request_id)):
            self._engine.schedule(
                request.arrival - self._engine.now, _submitter(self, request)
            )
        makespan = self._engine.run(until=until)
        return self.collect(makespan)

    def collect(self, makespan: float | None = None) -> GatewayResult:
        """Assemble the result of a run someone else drove.

        A fleet drives many gateways on one shared engine and calls this
        after draining it; ``makespan`` defaults to the engine clock.
        """
        # a drained run leaves empty queues (dispatch fires on every CPU
        # idle); anything counted here means the run was truncated
        pending = sum(len(q) for q in self._queues.values()) + self._inflight
        return GatewayResult(
            scheme=self.scheme,
            makespan=self._engine.now if makespan is None else makespan,
            records=self._records,
            metrics=self.metrics,
            replan_events=self.replan_events,
            mobile=self._mobile,
            uplink=self._uplink,
            # under a shared batching cloud, utilization reports the
            # shared GPU this gateway rides on (same object for every
            # gateway wired to it)
            cloud=(
                self._cloud
                if self._cloud_server is None
                else self._cloud_server.resource
            ),
            pending=pending,
        )

    def report(self, result: GatewayResult) -> dict:
        """JSON-safe metrics report of one run (see docs/serving.md).

        Engine cache totals are published into the gateway's own
        registry as gauges first, so the snapshot (and any Prometheus
        exposition built from it) carries serving counters and planner
        cache health side by side.
        """
        self.planner.to_metrics(self.metrics)
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        horizon = max(result.makespan, 1e-12)
        report = {
            "scheme": result.scheme,
            "makespan": result.makespan,
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
                "mobile": result.mobile.total_busy_time / horizon,
                "uplink": result.uplink.total_busy_time / horizon,
                "cloud": result.cloud.total_busy_time / horizon,
            },
            "throughput_rps": counters.get("served", 0) / horizon,
            "pending": result.pending,
            "balance_ok": (
                counters.get("served", 0)
                + counters.get("degraded", 0)
                + counters.get("dropped", 0)
                + result.pending
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


def _submitter(gateway: Gateway, request: Request):
    # default-arg binding would also work; a closure factory reads clearer
    return lambda: gateway.submit(request)
