"""Client→server placement: which gateway serves the next request.

Three policies, selected by :class:`~repro.fleet.config.PlacementConfig`:

* ``least_loaded`` — every request goes to the server with the fewest
  outstanding (queued + in-flight) requests; ties break by server
  order. Stateless per request, the classic load balancer.
* ``eft`` — every request goes to the server with the smallest
  *estimated finish time*: each server prices the request's model at
  its estimator's current rate, takes the single-job optimal cut, and
  estimates ``outstanding × f + (f + g + cloud)`` — the backlog
  serialized on the mobile stage plus one request's own pipeline —
  plus, on a shared batching cloud, its GPU lane's queue delay. Ties
  go to the first server. Per arrival this costs one
  :meth:`~repro.engine.PlanningEngine.pricing_kernel` lookup per
  server (a warm cache hit, counted by the engine's cache statistics),
  one vectorized :meth:`~repro.engine.PricingKernel.single_job_cuts`
  pass per distinct (kernel, ``include_cloud``) group — homogeneous
  servers share one — and one ``queue_delay()`` read per distinct
  cloud lane.
* ``affinity`` — each client binds to one server on first contact
  (least-loaded at that instant) and the binding is sticky. A binding
  *migrates* when its server has carried at least
  ``migration_backlog`` outstanding requests for
  ``migration_patience`` seconds of sustained overload, or the moment
  the server's resilience policy degrades it to local-only serving
  (``migrate_on_degraded``) — i.e. on sustained overload or uplink
  degradation, never on transient blips.

The placer only ever *reads* gateway state (``outstanding``,
``degraded_mode``, estimator rates); submission stays with the fleet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fleet.config import PlacementConfig
from repro.obs.timeseries import NULL_HUB
from repro.obs.tracer import NullTracer
from repro.serving.gateway import Gateway
from repro.serving.workload import Request

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cloud.server import BatchingServer
    from repro.engine import PricingKernel

__all__ = ["Placer"]

#: Trace lane of placement instants — same lane as the fleet's
#: reject/migrate markers so one track tells the whole routing story.
PLACEMENT_LANE = ("fleet", "events")


class Placer:
    """Stateful placement + migration over a named set of gateways."""

    def __init__(
        self,
        config: PlacementConfig,
        servers: dict[str, Gateway],
        cloud_of: "dict[str, BatchingServer] | None" = None,
        tracer=None,
        metrics=None,
        telemetry=None,
        events: bool = False,
    ) -> None:
        self.config = config
        self.servers = servers
        # server -> shared batching GPU, when the fleet runs a shared
        # cloud: lets the EFT scorer price the GPU queue it would join
        self.cloud_of = cloud_of or {}
        # decision observability: labeled counters in the fleet registry,
        # windowed telemetry, and (when ``events``) per-decision trace
        # instants on the fleet lane
        self.tracer = tracer or NullTracer()
        self.metrics = metrics
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        self.events = events
        #: The most recent decision: {"server", "policy", "eft"(opt)} —
        #: the fleet attaches it to the request's trace tree.
        self.last_decision: dict | None = None
        self._order = list(servers)
        #: last (or sticky) server per client — the report's assignment map
        self.assignments: dict[str, str] = {}
        #: migration audit: {"time", "client", "from", "to", "reason"}
        self.migrations: list[dict] = []
        # overload clocks: when each server's backlog first crossed the
        # migration threshold (None while below it), sampled at arrivals
        self._overloaded_since: dict[str, float | None] = {
            name: None for name in servers
        }

    # ------------------------------------------------------------------
    # scorers
    # ------------------------------------------------------------------
    def _least_loaded(self, exclude: str | None = None) -> str:
        best = None
        best_load = None
        for name in self._order:
            if name == exclude:
                continue
            load = self.servers[name].outstanding
            if best_load is None or load < best_load:
                best, best_load = name, load
        assert best is not None
        return best

    def _eft(self, request: Request) -> tuple[str, float]:
        # one kernel lookup per server: the engine's cache counters (and
        # so the fleet report) count exactly these
        groups: dict[tuple[int, bool], tuple[PricingKernel, list[int]]] = {}
        rates = []
        for index, name in enumerate(self._order):
            server = self.servers[name]
            estimator = server.estimator
            kernel = server.planner.pricing_kernel(
                request.model,
                setup_latency=estimator.setup_latency,
                header_bytes=estimator.header_bytes,
                protocol_overhead=estimator.protocol_overhead,
            )
            rates.append(estimator.estimate_bps)
            key = (id(kernel), server.include_cloud)
            groups.setdefault(key, (kernel, []))[1].append(index)
        # one vectorized cut pass per (kernel, include_cloud) group
        f = [0.0] * len(rates)
        unit = [0.0] * len(rates)
        for (_, include_cloud), (kernel, members) in groups.items():
            _, f_cut, unit_cut = kernel.single_job_cuts(
                [rates[i] for i in members], include_cloud
            )
            for i, f_i, unit_i in zip(members, f_cut.tolist(), unit_cut.tolist()):
                f[i], unit[i] = f_i, unit_i
        best = None
        best_eft = None
        delays: dict[int, float] = {}
        for index, name in enumerate(self._order):
            # backlog serializes on the mobile stage; the new request then
            # pays its own full pipeline
            eft = self.servers[name].outstanding * f[index] + unit[index]
            cloud = self.cloud_of.get(name)
            if cloud is not None:
                # shared batching cloud: also pay the queue of formed-but-
                # unfinished batches (plus the current hold) on this
                # server's GPU lane, read once per lane per arrival — two
                # servers tied on mobile backlog now split by how
                # congested their cloud lane is
                lane = id(cloud)
                if lane not in delays:
                    delays[lane] = cloud.queue_delay()
                eft += delays[lane]
            if best_eft is None or eft < best_eft:
                best, best_eft = name, eft
        assert best is not None and best_eft is not None
        return best, best_eft

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def _update_overload_clocks(self, now: float) -> None:
        threshold = self.config.migration_backlog
        if threshold is None:
            return
        for name, server in self.servers.items():
            if server.outstanding >= threshold:
                if self._overloaded_since[name] is None:
                    self._overloaded_since[name] = now
            else:
                self._overloaded_since[name] = None

    def _migration_reason(self, name: str, now: float) -> str | None:
        server = self.servers[name]
        if self.config.migrate_on_degraded and server.degraded_mode:
            return "degraded"
        since = self._overloaded_since.get(name)
        if since is not None and now - since >= self.config.migration_patience:
            return "overload"
        return None

    # ------------------------------------------------------------------
    # the one entry point
    # ------------------------------------------------------------------
    def place(self, request: Request, now: float) -> str:
        """Pick the serving gateway for one arriving request."""
        policy = self.config.policy
        estimate = None
        if policy == "least_loaded":
            name = self._least_loaded()
        elif policy == "eft":
            name, estimate = self._eft(request)
        else:  # affinity
            name = self._place_affinity(request, now)
        self.assignments[request.client_id] = name
        self.last_decision = {"server": name, "policy": policy}
        if estimate is not None:
            self.last_decision["eft"] = estimate
        if self.metrics is not None:
            self.metrics.counter("placements", server=name).increment()
        if self.telemetry.enabled:
            self.telemetry.record("placements", now, server=name)
        if self.events and self.tracer.enabled:
            self.tracer.instant(
                "fleet/place",
                timestamp=now,
                lane=PLACEMENT_LANE,
                request_id=request.request_id,
                client=request.client_id,
                **self.last_decision,
            )
        return name

    def _place_affinity(self, request: Request, now: float) -> str:
        self._update_overload_clocks(now)
        bound = self.assignments.get(request.client_id)
        if bound is None:
            return self._least_loaded()
        if len(self.servers) == 1:
            return bound
        reason = self._migration_reason(bound, now)
        if reason is None:
            return bound
        target = self._least_loaded(exclude=bound)
        healthy = not (
            self.config.migrate_on_degraded and self.servers[target].degraded_mode
        )
        # only move when the destination is actually better off —
        # fleet-wide overload must not trigger migration storms
        if healthy and (
            reason == "degraded"
            or self.servers[target].outstanding < self.servers[bound].outstanding
        ):
            self.migrations.append(
                {
                    "time": now,
                    "client": request.client_id,
                    "from": bound,
                    "to": target,
                    "reason": reason,
                }
            )
            if self.metrics is not None:
                self.metrics.counter("migrations", reason=reason).increment()
            if self.telemetry.enabled:
                self.telemetry.record("migrations", now, reason=reason)
            return target
        return bound
