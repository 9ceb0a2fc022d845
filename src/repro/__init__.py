"""repro — Joint Optimization of DNN Partition and Scheduling for Mobile
Cloud Computing (Duan & Wu, ICPP 2021): a full reimplementation.

Quick tour
----------
The stable facade is :mod:`repro.api` (also re-exported here):

>>> from repro.api import plan, compare, list_models
>>> "alexnet" in list_models()
True
>>> schedule = plan("alexnet", n=100, bandwidth=10.0)   # Mbps uplink
>>> side_by_side = compare("alexnet", n=100, bandwidth=10.0)
>>> schedule.makespan <= side_by_side["LO"].makespan
True

``plan()`` routes through a shared :class:`~repro.engine.PlanningEngine`
that memoizes the expensive structure work (graph linearization,
frontier-cut enumeration) behind content-addressed keys, so sweeping
bandwidths or job counts over one model costs only the binary search
and the Johnson sort per call.

Packages: ``repro.api`` (stable facade), ``repro.engine`` (memoized
planning engine), ``repro.dag`` (computation graphs, cuts, and the
true-DAG partitioner with its brute-force oracle — see ``docs/dag.md``),
``repro.nn`` (layers + model zoo), ``repro.profiling`` (device cost
models and estimators), ``repro.net`` (bandwidth/channel models),
``repro.core`` (the paper's algorithms), ``repro.sim`` (discrete-event
pipeline), ``repro.runtime`` (system prototype), ``repro.experiments``
(per-figure harnesses + campaign runner), ``repro.extensions``
(beyond-the-paper features), ``repro.serving`` (multi-client offload
gateway with adaptive re-planning and metrics), ``repro.fleet``
(multi-server fleet behind the unified ``SystemConfig``/``run_system``
scenario API — see ``docs/serving.md``), ``repro.cloud`` (shared
batching GPU model and hold-and-batch dispatch — see
``docs/serving.md``), ``repro.obs`` (unified
tracing & telemetry: spans, Chrome-trace export, Prometheus
exposition — see ``docs/observability.md``), ``repro.faults`` (seeded
fault injection, gateway resilience policies, and the differential
oracle — see ``docs/robustness.md``).
"""

__version__ = "9.0.0"

#: Facade names re-exported lazily from :mod:`repro.api` (PEP 562), so
#: ``import repro`` stays light and experiment modules that import
#: ``repro.__version__`` during facade construction see no cycle.
_API_EXPORTS = frozenset(
    {
        "plan",
        "compare",
        "list_models",
        "default_engine",
        "as_channel",
        "PlanningEngine",
        "CacheStats",
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
        "MODELS",
        "get_model",
        # true DAG partitioning + its differential oracle (repro.dag)
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
        # online scheduling + serving gateway
        "OnlineJpsScheduler",
        "ReleasedJob",
        "clairvoyant_makespan",
        "offline_lower_bound",
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
    }
)

__all__ = ["__version__", *sorted(_API_EXPORTS)]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
