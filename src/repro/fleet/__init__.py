"""Multi-server fleet serving behind the unified scenario API.

``SystemConfig`` describes a whole run (workload, N heterogeneous
servers with per-uplink fault plans, placement, admission, channel,
observability) as one JSON-round-trippable dataclass hierarchy;
``run_system`` executes it and returns an audited ``SystemReport``.
See :mod:`repro.fleet.config` and :mod:`repro.fleet.fleet` for the
design notes, and docs/serving.md for the user-facing tour.
"""

from repro.fleet.config import (
    PLACEMENT_POLICIES,
    SCENARIO_SLO,
    SLO_SCENARIOS,
    AdmissionConfig,
    ChannelConfig,
    FaultsConfig,
    ObservabilityConfig,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    bandwidth_drop_scenario,
    blackout_fleet_scenario,
    capacity_scenario,
    contended_cloud_scenario,
    default_fleet,
    slo_acceptance_scenario,
    steady_fleet_scenario,
    with_slo_telemetry,
)
from repro.fleet.fleet import (
    FleetGateway,
    FleetResult,
    SystemReport,
    events_by_kind,
    run_system,
)
from repro.fleet.invariants import fleet_accounting_violations
from repro.fleet.placement import Placer

__all__ = [
    "PLACEMENT_POLICIES",
    "SCENARIO_SLO",
    "SLO_SCENARIOS",
    "AdmissionConfig",
    "ChannelConfig",
    "FaultsConfig",
    "FleetGateway",
    "FleetResult",
    "ObservabilityConfig",
    "Placer",
    "PlacementConfig",
    "ServerSpec",
    "SystemConfig",
    "SystemReport",
    "WorkloadConfig",
    "bandwidth_drop_scenario",
    "blackout_fleet_scenario",
    "capacity_scenario",
    "contended_cloud_scenario",
    "default_fleet",
    "events_by_kind",
    "fleet_accounting_violations",
    "run_system",
    "slo_acceptance_scenario",
    "steady_fleet_scenario",
    "with_slo_telemetry",
]
