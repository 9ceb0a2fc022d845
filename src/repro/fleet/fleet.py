"""The federated fleet: N gateways, one clock, one entry point.

A :class:`FleetGateway` instantiates one
:class:`~repro.serving.gateway.Gateway` per
:class:`~repro.fleet.config.ServerSpec`, all sharing a single
:class:`~repro.sim.engine.Engine` (one virtual clock; per-server
``_HeadIndex`` heaps keep dispatch exactly the single-gateway code), and
routes every arriving request through fleet admission → placement →
``server.submit``. Each server keeps its own uplink timeline, channel
estimator, fault injector, and resilience policy, so a blackout on one
uplink degrades one server while the rest keep offloading — and the
affinity placement policy migrates clients away from it.

:func:`run_system` is the single entry point: it executes a
:class:`~repro.fleet.config.SystemConfig` end to end (workload
generation, fleet run, invariant audit) and returns a
:class:`SystemReport`. ``repro serve``, ``repro fleet``, ``repro trace``
and the serving/fleet/cloud experiments all run through it.

Accounting is exact by construction: a request is either rejected at
the fleet boundary (never reaching a server) or submitted to exactly
one server, so per-server ``arrived`` counters plus fleet rejects tile
the fleet's arrivals — :func:`repro.fleet.invariants.fleet_accounting_violations`
audits exactly that, on top of every server's own conservation law.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cloud.server import BatchingServer, LeastQueuedRouter
from repro.core.plans import json_safe
from repro.engine import PlanningEngine
from repro.faults.invariants import MonotoneClockMonitor, accounting_violations
from repro.fleet.config import ServerSpec, SystemConfig
from repro.fleet.invariants import fleet_accounting_violations
from repro.fleet.placement import Placer
from repro.obs.metrics import MetricsRegistry, StreamingHistogram
from repro.obs.slo import NULL_BOARD, SloBoard
from repro.obs.timeseries import NULL_HUB, TelemetryHub
from repro.obs.tracer import NullTracer, Tracer
from repro.serving.estimator import AdaptiveChannelEstimator
from repro.serving.gateway import Gateway, GatewayResult, ServedRecord
from repro.serving.workload import Request, generate_requests
from repro.sim.engine import Engine

__all__ = [
    "FleetGateway",
    "FleetResult",
    "SystemReport",
    "events_by_kind",
    "run_system",
]

#: Trace lane of fleet-level instants (rejects, migrations).
FLEET_LANE = ("fleet", "events")


def events_by_kind(events: list[dict]) -> dict[str, int]:
    """Histogram of replan-event kinds (untagged events count as drift)."""
    out: dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "drift")
        out[kind] = out.get(kind, 0) + 1
    return out


@dataclass
class FleetResult:
    """What one fleet run produced, before reporting."""

    makespan: float
    arrivals: int
    requests: list[Request]
    results: dict[str, GatewayResult]
    records: list[ServedRecord]        # fleet-boundary rejects only


class FleetGateway:
    """Admission + placement over named gateways on one shared engine."""

    def __init__(
        self,
        config: SystemConfig,
        planner: PlanningEngine | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        self.config = config
        self.planner = planner or PlanningEngine()
        self.tracer = tracer or NullTracer()
        # one shared virtual clock for every server
        self.engine = Engine()
        self.metrics = MetricsRegistry()
        self.records: list[ServedRecord] = []
        self.per_server_arrivals: dict[str, int] = {}
        self.servers: dict[str, Gateway] = {}
        # strictly opt-in windowed telemetry + SLO board (null twins keep
        # the disabled path byte-identical to the pre-telemetry code)
        obs = config.observability
        self.telemetry = (
            TelemetryHub(bucket_width=obs.telemetry_bucket)
            if obs.telemetry
            else NULL_HUB
        )
        self.slo_board = (
            SloBoard(obs.slos, tracer=self.tracer, metrics=self.metrics)
            if obs.slos
            else NULL_BOARD
        )
        # opt-in shared batching cloud: K hold-and-batch GPUs on the one
        # fleet engine, gateway i riding GPU i % K (absent CloudConfig,
        # every gateway keeps its private free GPU — golden-locked path)
        self.cloud_pool: list[BatchingServer] = []
        self.cloud_of: dict[str, BatchingServer | LeastQueuedRouter] = {}
        self.cloud_router: LeastQueuedRouter | None = None
        if config.cloud is not None:
            self.cloud_pool = [
                BatchingServer(
                    self.engine,
                    model=config.cloud.model,
                    max_batch=config.cloud.max_batch,
                    max_wait=config.cloud.max_wait,
                    policy=config.cloud.policy,
                    name=f"cloud-gpu{k}",
                    tracer=self.tracer,
                    telemetry=self.telemetry,
                )
                for k in range(config.cloud.gpus)
            ]
            # least-queued assignment shares one router across servers;
            # a single-GPU pool routes identically either way, so it
            # keeps the direct wiring (and the PR 7 byte-identity)
            if config.cloud.assignment == "least_queued" and len(self.cloud_pool) > 1:
                self.cloud_router = LeastQueuedRouter(self.cloud_pool)
        named = config.observability.per_server_lanes
        for index, spec in enumerate(config.servers):
            cloud: BatchingServer | LeastQueuedRouter | None = None
            if self.cloud_router is not None:
                cloud = self.cloud_router
            elif self.cloud_pool:
                cloud = self.cloud_pool[index % len(self.cloud_pool)]
            if cloud is not None:
                self.cloud_of[spec.name] = cloud
            self.servers[spec.name] = self._build_server(spec, named, cloud)
            self.per_server_arrivals[spec.name] = 0
        self.placer = Placer(
            config.placement,
            self.servers,
            cloud_of=self.cloud_of or None,
            tracer=self.tracer,
            metrics=self.metrics,
            telemetry=self.telemetry,
            events=config.observability.fleet_events,
        )

    def _planner_for(self, spec: ServerSpec) -> PlanningEngine:
        if spec.mobile_speedup == 1.0 and spec.cloud_speedup == 1.0:
            # homogeneous servers share the fleet planner: one warm
            # structure cache prices every re-plan on every server
            return self.planner
        return PlanningEngine(
            mobile=self.planner.mobile.scaled(spec.mobile_speedup),
            cloud=self.planner.cloud.scaled(spec.cloud_speedup),
            max_entries=self.planner.max_entries,
            tracer=self.planner.tracer,
        )

    def _build_server(
        self,
        spec: ServerSpec,
        named: bool,
        cloud: "BatchingServer | LeastQueuedRouter | None" = None,
    ) -> Gateway:
        config = self.config
        timeline = config.timeline_for(spec)
        return Gateway(
            timeline=timeline,
            planner=self._planner_for(spec),
            scheme=config.scheme,
            estimator=AdaptiveChannelEstimator(
                initial_bps=timeline.rates_bps[0],
                alpha=config.channel.ewma_alpha,
                drift_threshold=config.channel.drift_threshold,
                setup_latency=config.channel.setup_latency,
                header_bytes=config.channel.header_bytes,
                protocol_overhead=config.channel.protocol_overhead,
            ),
            max_queue_depth=spec.max_queue_depth,
            nominal_burst=spec.nominal_burst,
            include_cloud=spec.include_cloud,
            tracer=self.tracer,
            resilience=config.resilience_for(spec),
            # a FaultPlan becomes a fresh injector per gateway, so servers
            # (and reruns) never share mutable fault state
            faults=config.fault_plan_for(spec),
            engine=self.engine,
            name=spec.name if named else None,
            cloud_server=cloud,
            telemetry=self.telemetry,
            slo=self.slo_board,
        )

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Admitted-but-unfinished requests across the whole fleet."""
        return sum(server.outstanding for server in self.servers.values())

    def submit(self, request: Request) -> None:
        """Route one arriving request: fleet admission, then placement."""
        self.metrics.counter("arrived").increment()
        if self.telemetry.enabled:
            self.telemetry.record("fleet_arrivals", self.engine.now)
        limit = self.config.admission.max_fleet_outstanding
        if limit is not None and self.outstanding >= limit:
            self.metrics.counter("rejected_fleet").increment()
            self.records.append(
                ServedRecord(request.request_id, request.client_id, "rejected", None)
            )
            if self.config.observability.fleet_events:
                self.tracer.instant(
                    "fleet/reject",
                    timestamp=self.engine.now,
                    lane=FLEET_LANE,
                    request_id=request.request_id,
                    client=request.client_id,
                    outstanding=self.outstanding,
                )
            if self.telemetry.enabled:
                self.telemetry.record(
                    "dropped", self.engine.now, server="fleet", reason="fleet_reject"
                )
            if self.slo_board.enabled:
                self.slo_board.outcome(self.engine.now, False)
            return
        migrations_before = len(self.placer.migrations)
        name = self.placer.place(request, self.engine.now)
        if (
            self.config.observability.fleet_events
            and len(self.placer.migrations) > migrations_before
        ):
            self.tracer.instant(
                "fleet/migrate",
                timestamp=self.engine.now,
                lane=FLEET_LANE,
                **self.placer.migrations[-1],
            )
        self.per_server_arrivals[name] += 1
        if (
            self.config.observability.fleet_events
            and self.tracer.enabled
            and self.placer.last_decision is not None
        ):
            # the placement decision joins the request's trace tree as a
            # child span when the request finishes on its server
            self.servers[name].note_placement(
                request.request_id, **self.placer.last_decision
            )
        self.servers[name].submit(request)

    def _submitter(self, request: Request):
        return lambda: self.submit(request)

    def run(self, requests: list[Request], until: float | None = None) -> FleetResult:
        """Serve a request stream; drains fully unless ``until`` is set."""
        for request in sorted(requests, key=lambda r: (r.arrival, r.request_id)):
            self.engine.schedule(
                request.arrival - self.engine.now, self._submitter(request)
            )
        makespan = self.engine.run(until=until)
        # end-of-run SLO pass: publishes burn-rate gauges and leaves any
        # still-burning alert active (no forced clear)
        self.slo_board.finalize(makespan)
        return FleetResult(
            makespan=makespan,
            arrivals=len(requests),
            requests=list(requests),
            results={
                name: server.collect(makespan)
                for name, server in self.servers.items()
            },
            records=self.records,
        )

    # ------------------------------------------------------------------
    def report(self, result: FleetResult) -> dict:
        """The system document: per-server audit blocks + fleet totals."""
        deadlines = {r.request_id: r.deadline for r in result.requests}
        servers: dict[str, dict] = {}
        totals = {"served": 0, "degraded": 0, "dropped": 0, "pending": 0}
        arrived_servers = completed_total = within_total = 0
        for name, res in result.results.items():
            gateway = self.servers[name]
            raw = gateway.report(res)
            counters = raw["counters"]
            completed = [rec for rec in res.records if rec.latency is not None]
            within = sum(
                1
                for rec in completed
                if deadlines.get(rec.request_id) is None
                or rec.latency <= deadlines[rec.request_id]
            )
            servers[name] = {
                "report": raw,
                "completed": len(completed),
                "within_deadline": within,
                "events": events_by_kind(gateway.replan_events),
                "violations": accounting_violations(raw),
            }
            for key in totals:
                totals[key] += counters.get(key, 0) if key != "pending" else res.pending
            arrived_servers += counters.get("arrived", 0)
            completed_total += len(completed)
            within_total += within
        snapshot = self.metrics.snapshot()["counters"]
        # fleet-wide completion-latency distribution: the per-server
        # DDSketch histograms share one bucket grid, so the merge keeps
        # the same relative-error bound on p50/p95/p99
        latency = StreamingHistogram(self.metrics.relative_accuracy)
        for gateway in self.servers.values():
            latency.merge(gateway.metrics.histogram("latency"))
        fleet = {
            "arrivals": result.arrivals,
            "arrived_servers": arrived_servers,
            "rejected_fleet": snapshot.get("rejected_fleet", 0),
            **totals,
            "completed": completed_total,
            "within_deadline": within_total,
            "makespan": result.makespan,
            "throughput_rps": totals["served"] / max(result.makespan, 1e-12),
            # sustained throughput under open arrivals: completions per
            # second of the arrival window, the objective that matters
            # once the cloud stage saturates (vs. one-shot makespan)
            "sustained_rps": completed_total / self.config.workload.horizon,
            "latency": latency.as_dict(),
            "placement": {
                "policy": self.config.placement.policy,
                "assignments": dict(self.placer.assignments),
                "per_server_arrivals": dict(self.per_server_arrivals),
                "migrations": list(self.placer.migrations),
            },
        }
        if self.cloud_pool:
            config = self.config.cloud
            fleet["cloud"] = {
                "gpus": len(self.cloud_pool),
                "policy": config.policy,
                "max_batch": config.max_batch,
                "max_wait": config.max_wait,
                "model": config.model.as_dict(),
                "servers": [gpu.stats() for gpu in self.cloud_pool],
                "assignment_policy": config.assignment,
                "assignment": {
                    name: gpu.name for name, gpu in self.cloud_of.items()
                },
            }
            if self.cloud_router is not None:
                fleet["cloud"]["routed"] = dict(self.cloud_router.routed)
            # per-GPU busy fraction as registry gauges, Prometheus-ready
            horizon = max(result.makespan, 1e-12)
            for gpu in self.cloud_pool:
                self.metrics.gauge("gpu_busy_fraction", gpu=gpu.name).set(
                    gpu.resource.total_busy_time / horizon
                )
        document = {"servers": servers, "fleet": fleet}
        if self.telemetry.enabled:
            timeline = self.telemetry.timeline()
            # full fleet registry snapshot rides along so one artifact
            # feeds both the ASCII renderers and Prometheus exposition
            timeline["metrics"] = self.metrics.snapshot()
            document["timeline"] = timeline
        if self.slo_board.enabled:
            document["alerts"] = self.slo_board.report()
        return document


@dataclass(frozen=True)
class SystemReport:
    """Audited outcome of one :func:`run_system` execution.

    ``servers`` maps server name → audit block (raw gateway report,
    completion/deadline counts, replan-event census, per-server
    accounting violations); ``fleet`` holds the tiled totals and the
    placement record. ``baseline``/``comparison`` are present only when
    :class:`~repro.fleet.config.FaultsConfig` asked for the no-policy
    comparison run.
    """

    config: dict
    arrivals: int
    offered_load_rps: float
    makespan: float
    servers: dict
    fleet: dict
    violations: tuple[str, ...]
    clock_violations: tuple[str, ...]
    baseline: "SystemReport | None" = None
    comparison: dict | None = field(default=None)
    # opt-in observability artifacts (None unless the config enables
    # telemetry / declares SLOs — absent keys keep the golden identical)
    timeline: dict | None = field(default=None)
    alerts: dict | None = field(default=None)

    @property
    def ok(self) -> bool:
        """True when every accounting and clock invariant held."""
        return not self.violations and not self.clock_violations

    @property
    def served(self) -> int:
        return self.fleet["served"]

    @property
    def within_deadline(self) -> int:
        return self.fleet["within_deadline"]

    @property
    def p99_latency(self) -> float:
        """Fleet-wide p99 completion latency (merged server histograms)."""
        return self.fleet["latency"]["p99"]

    @property
    def sustained_rps(self) -> float:
        """Completions per second of the arrival window."""
        return self.fleet["sustained_rps"]

    def as_dict(self) -> dict:
        """JSON-safe document (what ``repro fleet --json`` writes)."""
        out = {
            "config": self.config,
            "arrivals": self.arrivals,
            "offered_load_rps": self.offered_load_rps,
            "makespan": self.makespan,
            "servers": self.servers,
            "fleet": self.fleet,
            "violations": list(self.violations),
            "clock_violations": list(self.clock_violations),
        }
        if self.baseline is not None:
            out["baseline"] = self.baseline.as_dict()
        if self.comparison is not None:
            out["comparison"] = self.comparison
        if self.timeline is not None:
            out["timeline"] = self.timeline
        if self.alerts is not None:
            out["alerts"] = self.alerts
        return json_safe(out)


def _run_once(
    config: SystemConfig,
    planner: PlanningEngine,
    tracer: "Tracer | NullTracer | None",
) -> SystemReport:
    workload = config.workload
    requests = generate_requests(
        list(workload.clients), workload.horizon, workload.seed
    )
    fleet = FleetGateway(config, planner=planner, tracer=tracer)
    clock = MonotoneClockMonitor().attach(fleet.engine)
    result = fleet.run(requests)
    document = fleet.report(result)
    return SystemReport(
        config=config.as_dict(),
        arrivals=len(requests),
        offered_load_rps=len(requests) / workload.horizon,
        makespan=result.makespan,
        servers=document["servers"],
        fleet=document["fleet"],
        violations=tuple(fleet_accounting_violations(document)),
        clock_violations=tuple(clock.violations),
        timeline=document.get("timeline"),
        alerts=document.get("alerts"),
    )


def run_system(
    config: SystemConfig,
    planner: PlanningEngine | None = None,
    tracer: "Tracer | NullTracer | None" = None,
) -> SystemReport:
    """Execute a :class:`SystemConfig` end to end (see module docstring).

    ``planner`` is shared across servers and both comparison passes on
    purpose — the bandwidth-independent structure caches are what make
    fleet-scale re-planning affordable. When
    ``config.faults.compare_no_policy`` is set, the identical arrival
    stream is replayed with every resilience policy stripped (bare pass
    untraced) and the report carries the baseline plus a
    policy-vs-no-policy comparison.
    """
    planner = planner or PlanningEngine()
    if config.faults is None or not config.faults.compare_no_policy:
        return _run_once(config, planner, tracer)

    # policy pass first (traced), then the stripped baseline untraced —
    # the order and span tests/data/golden_fault_scenario.json pins
    obs = tracer or NullTracer()
    with obs.span("faults/policy", lane=("scenario", "policy")):
        report = _run_once(config, planner, tracer)
    bare = _run_once(config.without_resilience(), planner, None)

    def _census(rep: SystemReport, kind: str) -> int:
        return sum(block["events"].get(kind, 0) for block in rep.servers.values())

    comparison = {
        "within_deadline_policy": report.fleet["within_deadline"],
        "within_deadline_no_policy": bare.fleet["within_deadline"],
        "within_deadline_gain": (
            report.fleet["within_deadline"] - bare.fleet["within_deadline"]
        ),
        "degradations": _census(report, "degrade"),
        "recovery_replans": _census(report, "recovery"),
    }
    return replace(report, baseline=bare, comparison=comparison)
