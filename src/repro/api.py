"""Stable user-facing facade over the reproduction.

One import serves the common workflow — pick a zoo model, pick a
bandwidth, plan a job set, compare schemes — without knowing which
internal package owns each piece:

>>> from repro.api import plan, compare, list_models
>>> schedule = plan("alexnet", n=100, bandwidth=10.0)
>>> schedule.makespan < compare("alexnet", n=100, bandwidth=10.0)["LO"].makespan
True

``plan``/``compare`` route through a shared module-level
:class:`~repro.engine.PlanningEngine`, so repeated calls for the same
model hit the memoized structure caches. Construct your own engine for
custom devices or isolated cache statistics.

The old deep import paths (``repro.core.jps``, ``repro.nn.zoo``, ...)
keep working; this module only re-exports, it does not move anything.
"""

from __future__ import annotations

from repro.cloud import (
    BATCHING_POLICIES,
    GPU_ASSIGNMENTS,
    BatchingServer,
    CloudConfig,
    CloudGpuModel,
    LeastQueuedRouter,
)
from repro.core.joint import SplitMode, Structure, jps, jps_dag
from repro.core.plans import JobPlan, Schedule
from repro.dag.metrics import DuplicationMetrics, duplication_metrics
from repro.dag.oracle import (
    DagInstance,
    check_dag_instance,
    dag_exhaustive_optimal,
    random_dag,
)
from repro.dag.partition import (
    DagCutTable,
    dag_cut_table,
    dag_pareto_cuts,
    dag_schedule_from_table,
    duplication_schedule,
    partition_dag,
)
from repro.engine import CacheStats, PlanningEngine
from repro.extensions.online import (
    OnlineJpsScheduler,
    ReleasedJob,
    clairvoyant_makespan,
    offline_lower_bound,
)
from repro.faults import (
    Blackout,
    ClientOutage,
    CostMisestimation,
    FaultInjector,
    FaultPlan,
    MonotoneClockMonitor,
    RateSpike,
    ResiliencePolicy,
    TransferCorruption,
    accounting_violations,
    check_instance,
    exhaustive_optimal,
)
from repro.fleet import (
    SCENARIO_SLO,
    SLO_SCENARIOS,
    AdmissionConfig,
    ChannelConfig,
    FaultsConfig,
    FleetGateway,
    ObservabilityConfig,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    SystemReport,
    WorkloadConfig,
    bandwidth_drop_scenario,
    blackout_fleet_scenario,
    capacity_scenario,
    contended_cloud_scenario,
    default_fleet,
    fleet_accounting_violations,
    run_system,
    slo_acceptance_scenario,
    steady_fleet_scenario,
    with_slo_telemetry,
)
from repro.net.bandwidth import (
    FOUR_G,
    PRESETS,
    THREE_G,
    WIFI,
    BandwidthPreset,
    TrafficShaper,
)
from repro.net.channel import Channel, as_channel
from repro.net.timeline import BandwidthTimeline
from repro.nn.network import Network
from repro.nn.zoo import MODELS, get_model
from repro.obs import (
    InstantEvent,
    NullTracer,
    SloBoard,
    SloConfig,
    Span,
    TelemetryHub,
    TimeSeries,
    Tracer,
    chrome_trace_events,
    default_slos,
    exposition_from_snapshot,
    parse_prometheus,
    render_timeline,
    to_prometheus,
    validate_chrome_events,
    watch_table,
    well_formed,
    write_chrome_trace,
)
from repro.profiling.device import DeviceModel, gtx1080_server, raspberry_pi_4
from repro.serving import (
    AdaptiveChannelEstimator,
    ClientSpec,
    Gateway,
    MetricsRegistry,
    Request,
)
from repro.sim.trace import pipeline_spans, write_pipeline_trace

__all__ = [
    "plan",
    "compare",
    "list_models",
    "default_engine",
    "as_channel",
    "PlanningEngine",
    "CacheStats",
    # online scheduling (beyond-the-paper release times)
    "OnlineJpsScheduler",
    "ReleasedJob",
    "clairvoyant_makespan",
    "offline_lower_bound",
    # serving gateway
    "Gateway",
    "AdaptiveChannelEstimator",
    "MetricsRegistry",
    "ClientSpec",
    "Request",
    "BandwidthTimeline",
    # fleet serving behind the unified scenario API (repro.fleet)
    "SystemConfig",
    "SystemReport",
    "WorkloadConfig",
    "ServerSpec",
    "PlacementConfig",
    "AdmissionConfig",
    "ChannelConfig",
    "FaultsConfig",
    "ObservabilityConfig",
    "FleetGateway",
    "run_system",
    "default_fleet",
    "bandwidth_drop_scenario",
    "capacity_scenario",
    "fleet_accounting_violations",
    "steady_fleet_scenario",
    "blackout_fleet_scenario",
    "with_slo_telemetry",
    "slo_acceptance_scenario",
    "SCENARIO_SLO",
    "SLO_SCENARIOS",
    # cloud-side batching (repro.cloud)
    "CloudGpuModel",
    "BatchingServer",
    "CloudConfig",
    "BATCHING_POLICIES",
    "GPU_ASSIGNMENTS",
    "LeastQueuedRouter",
    "contended_cloud_scenario",
    # fault injection + resilience (repro.faults)
    "FaultPlan",
    "FaultInjector",
    "ResiliencePolicy",
    "Blackout",
    "RateSpike",
    "TransferCorruption",
    "ClientOutage",
    "CostMisestimation",
    "accounting_violations",
    "MonotoneClockMonitor",
    "check_instance",
    "exhaustive_optimal",
    # observability (repro.obs)
    "Tracer",
    "NullTracer",
    "Span",
    "InstantEvent",
    "well_formed",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_events",
    "to_prometheus",
    "exposition_from_snapshot",
    "parse_prometheus",
    "pipeline_spans",
    "write_pipeline_trace",
    # windowed telemetry + SLO alerting (repro.obs)
    "TimeSeries",
    "TelemetryHub",
    "SloConfig",
    "SloBoard",
    "default_slos",
    "render_timeline",
    "watch_table",
    # true DAG partitioning + its differential oracle (repro.dag)
    "jps_dag",
    "partition_dag",
    "DagCutTable",
    "dag_cut_table",
    "dag_pareto_cuts",
    "dag_schedule_from_table",
    "duplication_schedule",
    "DuplicationMetrics",
    "duplication_metrics",
    "DagInstance",
    "check_dag_instance",
    "dag_exhaustive_optimal",
    "random_dag",
    "Schedule",
    "JobPlan",
    "Structure",
    "SplitMode",
    "Channel",
    "BandwidthPreset",
    "TrafficShaper",
    "THREE_G",
    "FOUR_G",
    "WIFI",
    "PRESETS",
    "Network",
    "DeviceModel",
    "raspberry_pi_4",
    "gtx1080_server",
    "MODELS",
    "get_model",
    "jps",
]

#: Shared engine behind the module-level ``plan``/``compare`` helpers.
_ENGINE: PlanningEngine | None = None


def default_engine() -> PlanningEngine:
    """The lazily-built engine the module-level helpers plan through."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = PlanningEngine()
    return _ENGINE


def plan(
    model: str | Network,
    n: int = 100,
    bandwidth: Channel | BandwidthPreset | float = 10.0,
    scheme: str = "JPS",
    structure: str | Structure = Structure.AUTO,
    split: str | SplitMode = SplitMode.EXACT,
    engine: PlanningEngine | None = None,
) -> Schedule:
    """Plan ``n`` inference jobs of ``model`` at the given bandwidth.

    ``model`` is a zoo name (see :func:`list_models`) or a
    :class:`Network`; ``bandwidth`` a :class:`Channel`, a preset, or an
    uplink rate in Mbps. ``scheme`` is ``"JPS"`` or a baseline
    (``"LO"``, ``"CO"``, ``"PO"``); ``structure`` and ``split`` select
    the JPS variant (:class:`Structure`, :class:`SplitMode`).
    """
    chosen = engine or default_engine()
    return chosen.plan(
        model, n, as_channel(bandwidth), scheme=scheme, structure=structure, split=split
    )


def compare(
    model: str | Network,
    n: int = 100,
    bandwidth: Channel | BandwidthPreset | float = 10.0,
    schemes: list[str] | None = None,
    engine: PlanningEngine | None = None,
) -> dict[str, Schedule]:
    """All schemes side by side on shared memoized tables."""
    chosen = engine or default_engine()
    return chosen.compare(model, n, as_channel(bandwidth), schemes=schemes)


def list_models() -> list[str]:
    """Zoo model names accepted by :func:`plan` and :func:`compare`."""
    return sorted(MODELS)
