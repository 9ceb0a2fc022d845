"""The unified scenario surface: one ``SystemConfig``, one entry point.

:class:`SystemConfig` describes a whole run as one JSON-round-trippable
dataclass hierarchy, from a single offload gateway up to a *fleet* of
edge/cloud servers.

The hierarchy mirrors the questions a run must answer:

* :class:`WorkloadConfig` — who sends requests (clients, horizon, seed);
* :class:`ServerSpec` — one edge/cloud server: its own uplink
  :class:`~repro.net.timeline.BandwidthTimeline`, heterogeneous device
  speedups, queue bounds, and optional per-uplink
  :class:`~repro.faults.plan.FaultPlan` /
  :class:`~repro.faults.policy.ResiliencePolicy`;
* :class:`PlacementConfig` — how clients map to servers (least-loaded,
  sticky affinity with migration, estimated-finish-time);
* :class:`AdmissionConfig` — fleet-level admission control;
* :class:`ChannelConfig` — estimator/framing constants shared by every
  uplink;
* :class:`FaultsConfig` — a fleet-wide fault plan + resilience policy
  and the policy-vs-no-policy comparison switch;
* :class:`~repro.cloud.config.CloudConfig` — opt-in shared batching
  cloud: N gateways contend for K hold-and-batch GPUs instead of each
  getting a free private one (absent: pre-batching behavior, golden
  byte-identical);
* :class:`ObservabilityConfig` — per-server trace lanes and fleet
  placement/migration instant events.

:func:`repro.fleet.run_system` executes a :class:`SystemConfig` and
returns a :class:`~repro.fleet.fleet.SystemReport`. The builders below
name the acceptance scenarios: :func:`bandwidth_drop_scenario` (one
gateway, mid-run rate drop), :func:`blackout_fleet_scenario` (blackout
→ degrade → recover), and the fleet/cloud/SLO scenarios.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.cloud.config import CloudConfig
from repro.cloud.model import CloudGpuModel
from repro.faults.plan import Blackout, CostMisestimation, FaultPlan, TransferCorruption
from repro.faults.policy import ResiliencePolicy
from repro.net.channel import DEFAULT_HEADER_BYTES, DEFAULT_SETUP_LATENCY
from repro.net.timeline import BandwidthTimeline
from repro.nn.zoo import MODELS
from repro.obs.slo import SloConfig, default_slos
from repro.serving.gateway import GATEWAY_SCHEMES
from repro.serving.workload import ClientSpec
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import (
    require_finite,
    require_non_negative,
    require_positive,
    require_positive_integer,
)

__all__ = [
    "PLACEMENT_POLICIES",
    "WorkloadConfig",
    "ServerSpec",
    "PlacementConfig",
    "AdmissionConfig",
    "ChannelConfig",
    "FaultsConfig",
    "ObservabilityConfig",
    "SystemConfig",
    "default_fleet",
    "bandwidth_drop_scenario",
    "capacity_scenario",
    "contended_cloud_scenario",
    "blackout_fleet_scenario",
    "steady_fleet_scenario",
    "with_slo_telemetry",
    "SCENARIO_SLO",
    "slo_acceptance_scenario",
    "SLO_SCENARIOS",
]

#: Client→server placement policies :mod:`repro.fleet.placement` knows.
PLACEMENT_POLICIES = ("least_loaded", "affinity", "eft")


def _required(data: dict, key: str, path: str | None = None):
    """``data[key]``; a missing key raises ``ValueError`` naming its path."""
    if key not in data:
        raise ValueError(f"{path or key} is required")
    return data[key]


def _block(data, path: str, cls) -> dict:
    """``data`` as the ``cls`` block at ``path``: a mapping whose keys
    all name fields of ``cls`` (a typo must not fall back to a default)."""
    where = f"{path}: " if path else ""
    if not isinstance(data, dict):
        raise ValueError(f"{where}expected a mapping, got {type(data).__name__}")
    known = [f.name for f in fields(cls) if f.init]
    for key in data:
        if key not in known:
            raise ValueError(f"{where}unknown key {key!r} (known: {', '.join(known)})")
    return data


def _items(data, path: str) -> list | tuple:
    """``data`` as the list at ``path``."""
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"{path}: expected a list, got {type(data).__name__}")
    return data


#: A message that starts with a path of its own (``fault_plan: …``,
#: ``bandwidth_steps[1] …``), which a parent path joins with a dot.
_NESTED = re.compile(r"[A-Za-z_]\w*[.:\[]")


def _prefixed(path: str, build, data, sep: str = ": "):
    """``build(data)``, with ``path`` in front of what it raises.

    A ``ValueError``, or the ``TypeError`` or ``OverflowError`` of a
    value of the wrong type or size, is re-raised as a ``ValueError``
    naming ``path``: joined by ``sep`` (a dot, for blocks whose messages
    start with their field), by a dot to a nested path, and left alone
    when the message already starts with ``path``.
    """
    try:
        return build(data)
    except (ValueError, TypeError, OverflowError) as error:
        message = str(error)
        if message.startswith(path):
            raise ValueError(message) from None
        if not isinstance(error, ValueError):
            sep = ": "
        elif _NESTED.match(message):
            sep = "."
        raise ValueError(f"{path}{sep}{message}") from None


def _fault_plan(data) -> FaultPlan:
    _block(data, "", FaultPlan)
    for key, cls in (("corruption", TransferCorruption), ("misestimation", CostMisestimation)):
        if data.get(key) is not None:
            _block(data[key], key, cls)
    return FaultPlan.from_dict(data)


def _resilience(data) -> ResiliencePolicy:
    return ResiliencePolicy.from_dict(_block(data, "", ResiliencePolicy))


def _cloud(data) -> CloudConfig:
    model = data.get("model")
    if model is not None:
        # built here once for its path; CloudConfig.from_dict builds the same model
        _prefixed("model", CloudGpuModel.from_dict, _block(model, "model", CloudGpuModel))
    return CloudConfig.from_dict(data)


def _client_as_dict(client: ClientSpec) -> dict:
    return {
        "name": client.name,
        "model": client.model,
        "process": client.process,
        "rate": client.rate,
        "burst_size": client.burst_size,
        "period": client.period,
        "deadline": client.deadline,
    }


@dataclass(frozen=True)
class WorkloadConfig:
    """The request side of a system run: clients, horizon, and seed."""

    clients: tuple[ClientSpec, ...]
    horizon: float = 60.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        if not self.clients:
            raise ValueError("need at least one client")
        require_positive(self.horizon, "horizon")
        require_finite(self.horizon, "horizon")  # an endless run never reports
        # numpy's SeedSequence takes any non-negative int; a bool would run
        # as 0 or 1, and anything else fails deep inside the generator
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, (int, np.integer))
            or self.seed < 0
        ):
            raise ValueError(
                f"workload.seed must be a non-negative integer, got {self.seed!r}"
            )
        for index, client in enumerate(self.clients):
            if client.model not in MODELS:
                raise ValueError(
                    f"workload.clients[{index}].model: unknown model "
                    f"{client.model!r} (available: {', '.join(sorted(MODELS))})"
                )

    def as_dict(self) -> dict:
        return {
            "clients": [_client_as_dict(c) for c in self.clients],
            "horizon": self.horizon,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadConfig":
        clients = _items(_required(data, "clients", "workload.clients"), "workload.clients")
        return cls(
            clients=tuple(
                _prefixed(
                    f"workload.clients[{index}]",
                    lambda c: ClientSpec(**_block(c, "", ClientSpec)),
                    client,
                )
                for index, client in enumerate(clients)
            ),
            horizon=data.get("horizon", 60.0),
            seed=data.get("seed", DEFAULT_SEED),
        )


@dataclass(frozen=True)
class ChannelConfig:
    """Estimator + framing constants shared by every server uplink."""

    ewma_alpha: float = 0.3
    drift_threshold: float = 0.25
    setup_latency: float = DEFAULT_SETUP_LATENCY
    header_bytes: float = DEFAULT_HEADER_BYTES
    protocol_overhead: float = 1.05

    def __post_init__(self) -> None:
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha!r}")
        for name in ("drift_threshold", "setup_latency", "header_bytes", "protocol_overhead"):
            require_finite(getattr(self, name), name)
        require_positive(self.drift_threshold, "drift_threshold")
        require_non_negative(self.setup_latency, "setup_latency")
        require_non_negative(self.header_bytes, "header_bytes")
        require_positive(self.protocol_overhead, "protocol_overhead")

    def as_dict(self) -> dict:
        return {
            "ewma_alpha": self.ewma_alpha,
            "drift_threshold": self.drift_threshold,
            "setup_latency": self.setup_latency,
            "header_bytes": self.header_bytes,
            "protocol_overhead": self.protocol_overhead,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelConfig":
        return cls(**data)


@dataclass(frozen=True)
class ServerSpec:
    """One edge/cloud server of the fleet.

    ``bandwidth_steps`` is this server's own uplink trace (so PR 5
    fault plans compose *per link*); ``mobile_speedup``/``cloud_speedup``
    scale the calibrated device profiles
    (:meth:`repro.profiling.device.DeviceModel.scaled`) for
    heterogeneous hardware. ``fault_plan``/``resilience`` override the
    fleet-wide :class:`FaultsConfig` for this uplink only.
    """

    name: str
    bandwidth_steps: tuple[tuple[float, float], ...] = ((0.0, 8.0),)
    mobile_speedup: float = 1.0
    cloud_speedup: float = 1.0
    max_queue_depth: int = 64
    nominal_burst: int = 8
    include_cloud: bool = True
    fault_plan: FaultPlan | None = None
    resilience: ResiliencePolicy | None = None

    def __post_init__(self) -> None:
        # every message starts with its field, so SystemConfig.from_dict
        # can name the server's path in front of it
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not self.name:
            raise ValueError("name must be non-empty")
        steps = tuple(self.bandwidth_steps)
        if not steps:
            raise ValueError("bandwidth_steps must hold at least one step")
        for index, pair in enumerate(steps):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(
                    f"bandwidth_steps[{index}] must be a (time, Mbps) pair, got {pair!r}"
                )
        object.__setattr__(self, "bandwidth_steps", tuple(tuple(s) for s in steps))
        for index, (time, rate) in enumerate(self.bandwidth_steps):
            step = f"bandwidth_steps[{index}]"
            require_finite(time, f"{step} time")
            if index == 0 and time != 0.0:
                raise ValueError(f"{step} time must be 0.0, got {time!r}")
            if index > 0 and not time > self.bandwidth_steps[index - 1][0]:
                raise ValueError(f"{step} time must be > the previous step's, got {time!r}")
            require_finite(rate, f"{step} rate")
            require_positive(rate, f"{step} rate")
        for name in ("mobile_speedup", "cloud_speedup"):
            # an infinite speedup prices and runs every stage on it in 0 s
            require_finite(getattr(self, name), name)
            require_positive(getattr(self, name), name)
        require_positive_integer(self.max_queue_depth, "max_queue_depth")
        require_positive_integer(self.nominal_burst, "nominal_burst")

    def as_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "bandwidth_steps": [list(s) for s in self.bandwidth_steps],
            "mobile_speedup": self.mobile_speedup,
            "cloud_speedup": self.cloud_speedup,
            "max_queue_depth": self.max_queue_depth,
            "nominal_burst": self.nominal_burst,
            "include_cloud": self.include_cloud,
        }
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.as_dict()
        if self.resilience is not None:
            out["resilience"] = self.resilience.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ServerSpec":
        plan = data.get("fault_plan")
        policy = data.get("resilience")
        return cls(
            name=_required(data, "name"),
            bandwidth_steps=_items(_required(data, "bandwidth_steps"), "bandwidth_steps"),
            mobile_speedup=data.get("mobile_speedup", 1.0),
            cloud_speedup=data.get("cloud_speedup", 1.0),
            max_queue_depth=data.get("max_queue_depth", 64),
            nominal_burst=data.get("nominal_burst", 8),
            include_cloud=data.get("include_cloud", True),
            fault_plan=None if plan is None else _prefixed("fault_plan", _fault_plan, plan),
            resilience=(
                None if policy is None else _prefixed("resilience", _resilience, policy)
            ),
        )


@dataclass(frozen=True)
class PlacementConfig:
    """How clients map to servers, and when a binding migrates.

    ``least_loaded`` and ``eft`` place every request independently
    (fewest outstanding requests / smallest estimated finish time
    through :meth:`~repro.engine.PlanningEngine.priced_table`).
    ``affinity`` binds each client to one server on first contact and
    keeps the binding sticky; a binding migrates when its server has
    held ``migration_backlog`` or more outstanding requests for at
    least ``migration_patience`` seconds, or — when
    ``migrate_on_degraded`` — the instant the server's resilience
    policy degrades it to local-only serving.
    """

    policy: str = "least_loaded"
    migration_backlog: int | None = None
    migration_patience: float = 2.0
    migrate_on_degraded: bool = True

    def __post_init__(self) -> None:
        if self.policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.policy!r} (use {PLACEMENT_POLICIES})"
            )
        if self.migration_backlog is not None:
            require_positive(self.migration_backlog, "migration_backlog")
        require_positive(self.migration_patience, "migration_patience")

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "migration_backlog": self.migration_backlog,
            "migration_patience": self.migration_patience,
            "migrate_on_degraded": self.migrate_on_degraded,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlacementConfig":
        return cls(**data)


@dataclass(frozen=True)
class AdmissionConfig:
    """Fleet-level admission control, ahead of any per-server queue.

    ``max_fleet_outstanding`` caps the total admitted-but-unfinished
    requests across all servers; arrivals beyond it are rejected at the
    fleet boundary (they never reach a server, so per-server accounting
    still tiles: per-server arrivals + fleet rejects == fleet arrivals).
    """

    max_fleet_outstanding: int | None = None

    def __post_init__(self) -> None:
        if self.max_fleet_outstanding is not None:
            require_positive(self.max_fleet_outstanding, "max_fleet_outstanding")

    def as_dict(self) -> dict:
        return {"max_fleet_outstanding": self.max_fleet_outstanding}

    @classmethod
    def from_dict(cls, data: dict) -> "AdmissionConfig":
        return cls(**data)


@dataclass(frozen=True)
class FaultsConfig:
    """Fleet-wide fault injection and resilience.

    ``plan`` applies to every uplink that does not carry its own
    per-server plan; ``resilience`` likewise. ``compare_no_policy``
    reruns the identical arrival stream with every resilience policy
    stripped and attaches the baseline + comparison to the report; it
    needs some server with an effective plan and some server with an
    effective policy, or the baseline would replay the run itself.
    """

    plan: FaultPlan | None = None
    resilience: ResiliencePolicy | None = None
    compare_no_policy: bool = False

    def as_dict(self) -> dict:
        out: dict = {"compare_no_policy": self.compare_no_policy}
        if self.plan is not None:
            out["plan"] = self.plan.as_dict()
        if self.resilience is not None:
            out["resilience"] = self.resilience.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultsConfig":
        plan = data.get("plan")
        policy = data.get("resilience")
        return cls(
            plan=None if plan is None else _prefixed("plan", _fault_plan, plan),
            resilience=None if policy is None else _prefixed("resilience", _resilience, policy),
            compare_no_policy=data.get("compare_no_policy", False),
        )


@dataclass(frozen=True)
class ObservabilityConfig:
    """What the fleet emits into a live tracer.

    ``per_server_lanes`` names each gateway so its request/event lanes
    read ``<server>/req N`` in the exported trace; ``fleet_events``
    adds ``fleet/migrate`` and ``fleet/reject`` instant markers. Both
    are off in :func:`bandwidth_drop_scenario`, so its single-gateway
    trace reads ``req N`` / ``gateway`` lanes.

    ``telemetry`` turns on the windowed
    :class:`~repro.obs.timeseries.TelemetryHub` (arrival/outcome/queue/
    batch series bucketed every ``telemetry_bucket`` virtual seconds →
    ``SystemReport.timeline``); ``slos`` declares burn-rate objectives
    evaluated online by an :class:`~repro.obs.slo.SloBoard` →
    ``SystemReport.alerts``. Both default off so the fault-free
    ``run_system`` output stays byte-identical to the golden.
    """

    per_server_lanes: bool = True
    fleet_events: bool = True
    telemetry: bool = False
    telemetry_bucket: float = 0.5
    slos: tuple[SloConfig, ...] = ()

    def __post_init__(self) -> None:
        require_positive(self.telemetry_bucket, "telemetry_bucket")
        # an infinite bucket lands every sample of the run in one point
        require_finite(self.telemetry_bucket, "telemetry_bucket")
        object.__setattr__(self, "slos", tuple(self.slos))

    def as_dict(self) -> dict:
        out: dict = {
            "per_server_lanes": self.per_server_lanes,
            "fleet_events": self.fleet_events,
        }
        # new keys only when set, so legacy config dumps stay unchanged
        if self.telemetry:
            out["telemetry"] = True
            out["telemetry_bucket"] = self.telemetry_bucket
        if self.slos:
            out["slos"] = [s.as_dict() for s in self.slos]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ObservabilityConfig":
        return cls(
            per_server_lanes=data.get("per_server_lanes", True),
            fleet_events=data.get("fleet_events", True),
            telemetry=data.get("telemetry", False),
            telemetry_bucket=data.get("telemetry_bucket", 0.5),
            slos=tuple(
                _prefixed(f"slos[{index}]", SloConfig.from_dict, _block(slo, f"slos[{index}]", SloConfig))
                for index, slo in enumerate(_items(data.get("slos", ()), "slos"))
            ),
        )


@dataclass(frozen=True)
class SystemConfig:
    """One reproducible run of the whole system (see module docstring)."""

    workload: WorkloadConfig
    servers: tuple[ServerSpec, ...]
    scheme: str = "JPS"
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    faults: FaultsConfig | None = None
    cloud: CloudConfig | None = None
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", tuple(self.servers))
        if not self.servers:
            raise ValueError("need at least one server")
        names = [s.name for s in self.servers]
        if len(set(names)) != len(names):
            raise ValueError(f"server names must be unique, got {names}")
        if self.scheme not in GATEWAY_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r} (use {GATEWAY_SCHEMES})")
        if self.faults is not None and self.faults.compare_no_policy:
            if all(self.fault_plan_for(s) is None for s in self.servers):
                raise ValueError(
                    "faults.compare_no_policy needs a fault plan on some server "
                    "(faults.plan or a server's fault_plan)"
                )
            if all(self.resilience_for(s) is None for s in self.servers):
                raise ValueError(
                    "faults.compare_no_policy needs a resilience policy on some "
                    "server (faults.resilience or a server's resilience)"
                )

    # ------------------------------------------------------------------
    # effective per-server settings (spec overrides the fleet-wide block)
    # ------------------------------------------------------------------
    def fault_plan_for(self, spec: ServerSpec) -> FaultPlan | None:
        if spec.fault_plan is not None:
            return spec.fault_plan
        return self.faults.plan if self.faults is not None else None

    def resilience_for(self, spec: ServerSpec) -> ResiliencePolicy | None:
        if spec.resilience is not None:
            return spec.resilience
        return self.faults.resilience if self.faults is not None else None

    def timeline_for(self, spec: ServerSpec) -> BandwidthTimeline:
        """One server's ground-truth uplink, fault windows overlaid."""
        base = BandwidthTimeline.steps_mbps(
            list(spec.bandwidth_steps),
            setup_latency=self.channel.setup_latency,
            header_bytes=self.channel.header_bytes,
            protocol_overhead=self.channel.protocol_overhead,
        )
        plan = self.fault_plan_for(spec)
        return base if plan is None else plan.apply_to_timeline(base)

    def without_resilience(self) -> "SystemConfig":
        """The no-policy twin ``compare_no_policy`` runs as baseline."""
        servers = tuple(replace(s, resilience=None) for s in self.servers)
        faults = (
            None
            if self.faults is None
            else replace(self.faults, resilience=None, compare_no_policy=False)
        )
        return replace(self, servers=servers, faults=faults)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        out = {
            "workload": self.workload.as_dict(),
            "servers": [s.as_dict() for s in self.servers],
            "scheme": self.scheme,
            "placement": self.placement.as_dict(),
            "admission": self.admission.as_dict(),
            "channel": self.channel.as_dict(),
            "observability": self.observability.as_dict(),
        }
        if self.faults is not None:
            out["faults"] = self.faults.as_dict()
        if self.cloud is not None:
            out["cloud"] = self.cloud.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Inverse of :meth:`as_dict`.

        Every malformed document raises ``ValueError`` naming the path of
        what is wrong (``servers[1].max_queue_depth …``,
        ``workload.clients[0]: rate …``): a missing required key, a
        block that is not a mapping or a list that is not a list, an
        unknown key in any block, and a value of the wrong type.
        """
        _block(data, "", cls)
        workload = _block(_required(data, "workload"), "workload", WorkloadConfig)
        servers = _items(_required(data, "servers"), "servers")

        def block(key: str, config_cls, build=None):
            value = _block(data.get(key, {}), key, config_cls)
            return _prefixed(key, build or config_cls.from_dict, value)

        return cls(
            workload=_prefixed("workload", WorkloadConfig.from_dict, workload),
            servers=tuple(
                _prefixed(
                    f"servers[{index}]",
                    ServerSpec.from_dict,
                    _block(spec, f"servers[{index}]", ServerSpec),
                    sep=".",
                )
                for index, spec in enumerate(servers)
            ),
            scheme=data.get("scheme", "JPS"),
            placement=block("placement", PlacementConfig),
            admission=block("admission", AdmissionConfig),
            channel=block("channel", ChannelConfig),
            faults=None if data.get("faults") is None else block("faults", FaultsConfig),
            cloud=None if data.get("cloud") is None else block("cloud", CloudConfig, _cloud),
            observability=block("observability", ObservabilityConfig),
        )


def default_fleet(
    servers: int = 4,
    clients: int = 32,
    rate: float = 3.0,
    horizon: float = 12.0,
    model: str = "alexnet",
    mbps: float = 8.0,
    deadline: float | None = 1.0,
    seed: int = DEFAULT_SEED,
    placement: str = "least_loaded",
    scheme: str = "JPS",
    max_queue_depth: int = 64,
    speedups: tuple[float, ...] | None = None,
) -> SystemConfig:
    """A homogeneous N-server fleet under a Poisson client swarm.

    ``speedups`` (cycled over servers) makes the fleet heterogeneous:
    server ``i`` runs its mobile stage ``speedups[i % len]`` times the
    calibrated profile's speed.
    """
    require_positive(servers, "servers")
    require_positive(clients, "clients")
    return SystemConfig(
        workload=WorkloadConfig(
            clients=tuple(
                ClientSpec(
                    name=f"client{i}",
                    model=model,
                    process="poisson",
                    rate=rate,
                    deadline=deadline,
                )
                for i in range(clients)
            ),
            horizon=horizon,
            seed=seed,
        ),
        servers=tuple(
            ServerSpec(
                name=f"server{i}",
                bandwidth_steps=((0.0, mbps),),
                max_queue_depth=max_queue_depth,
                mobile_speedup=(
                    1.0 if speedups is None else speedups[i % len(speedups)]
                ),
            )
            for i in range(servers)
        ),
        scheme=scheme,
        placement=PlacementConfig(policy=placement),
    )


def bandwidth_drop_scenario(
    clients: int = 3,
    rate: float = 2.0,
    horizon: float = 60.0,
    model: str = "alexnet",
    seed: int = DEFAULT_SEED,
    drop_at: float | None = None,
    mbps_before: float = 8.0,
    mbps_after: float = 4.0,
    deadline: float | None = None,
    scheme: str = "JPS",
) -> SystemConfig:
    """The single-gateway serving scenario behind ``repro serve``.

    ``clients`` Poisson streams of ``rate`` req/s each, served by one
    server named ``gateway`` over an uplink that starts at
    ``mbps_before`` and drops to ``mbps_after`` at ``drop_at`` (default:
    mid-horizon), enough drift to force the JPS gateway through at least
    one re-plan. Trace lanes keep the single-gateway names (no server
    prefix, no fleet markers).
    """
    config = default_fleet(
        servers=1,
        clients=clients,
        rate=rate,
        horizon=horizon,
        model=model,
        deadline=deadline,
        seed=seed,
        scheme=scheme,
    )
    when = horizon / 2 if drop_at is None else drop_at
    return replace(
        config,
        servers=(
            ServerSpec(
                name="gateway",
                bandwidth_steps=((0.0, mbps_before), (when, mbps_after)),
            ),
        ),
        observability=ObservabilityConfig(per_server_lanes=False, fleet_events=False),
    )


def capacity_scenario(
    servers: int = 4, clients: int = 32, seed: int = DEFAULT_SEED
) -> SystemConfig:
    """The capacity-bound acceptance scenario (ROADMAP "multi-server fleet").

    At 32 deadline-bound clients a single gateway is capacity-bound —
    its one mobile CPU saturates and most requests expire — so an
    N-server fleet on the *identical* arrival stream must serve
    strictly more within deadline. The capacity acceptance test runs
    this config at ``servers=1`` and ``servers=4`` and asserts exactly
    that, plus zero accounting/clock violations.
    """
    return default_fleet(
        servers=servers,
        clients=clients,
        rate=3.0,
        horizon=8.0,
        deadline=1.0,
        seed=seed,
    )


def contended_cloud_scenario(
    servers: int = 4,
    clients: int = 32,
    gpus: int = 1,
    max_batch: int = 8,
    max_wait: float = 0.25,
    policy: str = "batch",
    overhead_fraction: float = 0.9,
    cloud_speedup: float = 0.02,
    rate: float = 3.0,
    horizon: float = 8.0,
    deadline: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> SystemConfig:
    """The shared-cloud acceptance scenario: N gateways, K slow GPUs.

    The 32-client capacity fleet, but the cloud is no longer free: all
    ``servers`` gateways contend for ``gpus`` shared GPUs that execute
    ``1 / cloud_speedup`` times slower than the planner's calibrated
    profile believes (the contention the cost model cannot see), with
    ``overhead_fraction`` of every solo inference being per-batch
    launch cost. Serve-now saturates the GPU on launch overhead;
    hold-and-batch amortizes it across the batch and must serve
    strictly more within deadline on the identical arrival stream —
    the ISSUE 7 acceptance criterion, test-locked in
    ``tests/test_cloud_system.py``.
    """
    base = default_fleet(
        servers=servers,
        clients=clients,
        rate=rate,
        horizon=horizon,
        deadline=deadline,
        seed=seed,
    )
    return replace(
        base,
        cloud=CloudConfig(
            gpus=gpus,
            max_batch=max_batch,
            max_wait=max_wait,
            policy=policy,
            model=CloudGpuModel(
                name="contended-gpu",
                overhead_fraction=overhead_fraction,
                speedup=cloud_speedup,
            ),
        ),
    )


def blackout_fleet_scenario(
    clients: int = 3,
    rate: float = 2.5,
    horizon: float = 20.0,
    model: str = "alexnet",
    seed: int = DEFAULT_SEED,
    blackout_start: float = 8.0,
    blackout_duration: float = 2.0,
    deadline: float = 1.0,
    mbps: float = 8.0,
) -> SystemConfig:
    """The blackout → degrade → recover scenario.

    ``clients`` Poisson streams with a relative ``deadline`` over a flat
    ``mbps`` uplink that blacks out for ``blackout_duration`` seconds at
    ``blackout_start``. The paired policy is tuned so the blackout is
    detected well inside the deadline: two quarter-second timeouts
    trigger degradation to local-only serving, and quarter-second probes
    find the recovered channel fast enough to replan within the run.
    ``repro serve --faults`` runs it with ``faults.compare_no_policy``
    set; under SLO telemetry the deadline-hit-rate alert must fire
    during the blackout and clear after recovery.
    """
    plan = FaultPlan(
        seed=seed,
        blackouts=(Blackout(blackout_start, blackout_start + blackout_duration),),
        metadata={"scenario": "blackout-degrade-recover"},
    )
    policy = ResiliencePolicy(
        max_retries=1,
        backoff_base=0.05,
        backoff_factor=2.0,
        transfer_timeout=0.25,
        degrade_after_failures=2,
        local_fallback=True,
        probe_interval=0.25,
        probe_bytes=16 * 1024.0,
    )
    return SystemConfig(
        workload=WorkloadConfig(
            clients=tuple(
                ClientSpec(
                    name=f"client{i}",
                    model=model,
                    process="poisson",
                    rate=rate,
                    deadline=deadline,
                )
                for i in range(clients)
            ),
            horizon=horizon,
            seed=seed,
        ),
        servers=(
            ServerSpec(
                name="server0",
                bandwidth_steps=((0.0, mbps),),
            ),
        ),
        faults=FaultsConfig(plan=plan, resilience=policy),
    )


def steady_fleet_scenario(
    servers: int = 2,
    clients: int = 4,
    rate: float = 1.0,
    horizon: float = 12.0,
    deadline: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> SystemConfig:
    """The fault-free acceptance scenario: a fleet with slack to spare.

    Light Poisson load on a healthy fleet — every request lands well
    inside its deadline, so a correctly calibrated SLO board must fire
    **zero** alerts here (the negative control the slo-smoke CI job
    asserts).
    """
    return default_fleet(
        servers=servers,
        clients=clients,
        rate=rate,
        horizon=horizon,
        deadline=deadline,
        seed=seed,
    )


def with_slo_telemetry(
    config: SystemConfig,
    slos: tuple[SloConfig, ...] | None = None,
    bucket_width: float = 0.25,
) -> SystemConfig:
    """The same run with windowed telemetry + SLO alerting switched on."""
    return replace(
        config,
        observability=replace(
            config.observability,
            telemetry=True,
            telemetry_bucket=bucket_width,
            slos=tuple(slos) if slos is not None else default_slos(),
        ),
    )


#: The objective the acceptance scenarios are test-locked against:
#: ≥60% of requests inside deadline over any 4 s window, with a 2 s fast
#: window so post-recovery churn must *sustain* before an alert clears.
#: Calibrated so the steady fleet never fires, the blackout fires during
#: the outage and clears after recovery, and the contended cloud fires
#: within the first two seconds and stays active to the end.
SCENARIO_SLO = SloConfig(target=0.6, fast_window=2.0)

#: The slo-smoke scenario names (CLI ``repro trace fleet --scenario``).
SLO_SCENARIOS = ("steady", "blackout", "contended")


def slo_acceptance_scenario(name: str) -> SystemConfig:
    """One of the slo-smoke scenarios, telemetry + locked SLO attached.

    The CLI, the CI ``slo-smoke`` job, and the alert acceptance tests
    all build their runs through this single definition, so "the
    blackout scenario fires its expected alerts" means the same thing
    everywhere.
    """
    builders = {
        "steady": steady_fleet_scenario,
        "blackout": blackout_fleet_scenario,
        "contended": contended_cloud_scenario,
    }
    if name not in builders:
        raise ValueError(f"unknown SLO scenario {name!r} (use {SLO_SCENARIOS})")
    return with_slo_telemetry(builders[name](), slos=(SCENARIO_SLO,))
