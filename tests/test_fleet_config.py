"""SystemConfig: the unified scenario surface round-trips through JSON.

The point of one dataclass hierarchy is that a run is *one* document:
``SystemConfig.from_dict(json.loads(json.dumps(cfg.as_dict()))) == cfg``
must hold for every combination of blocks, including per-server fault
plans and the fleet-wide FaultsConfig sub-config.
"""

import json
import math

import pytest

from repro.faults.plan import (
    Blackout,
    ClientOutage,
    CostMisestimation,
    FaultPlan,
    RateSpike,
    TransferCorruption,
)
from repro.faults.policy import ResiliencePolicy
from repro.fleet import (
    AdmissionConfig,
    FaultsConfig,
    ObservabilityConfig,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    bandwidth_drop_scenario,
    capacity_scenario,
    default_fleet,
)
from repro.serving.workload import ClientSpec


def _rich_plan() -> FaultPlan:
    return FaultPlan(
        seed=7,
        blackouts=(Blackout(1.0, 2.0),),
        spikes=(RateSpike(3.0, 4.0, 0.5),),
        corruption=TransferCorruption(probability=0.1, start=0.5, end=9.0),
        outages=(ClientOutage("client0", 2.0, 3.0),),
        misestimation=CostMisestimation(compute_scale=1.2, jitter=0.05),
        metadata={"scenario": "round-trip"},
    )


def _rich_config() -> SystemConfig:
    return SystemConfig(
        workload=WorkloadConfig(
            clients=(
                ClientSpec(name="client0", rate=2.0, deadline=1.5),
                ClientSpec(name="client1", process="burst", burst_size=3, period=2.0),
            ),
            horizon=12.0,
            seed=99,
        ),
        servers=(
            ServerSpec(name="edge0", bandwidth_steps=((0.0, 8.0), (5.0, 2.0))),
            ServerSpec(
                name="edge1",
                bandwidth_steps=((0.0, 4.0),),
                mobile_speedup=2.0,
                cloud_speedup=0.5,
                max_queue_depth=8,
                fault_plan=_rich_plan(),
                resilience=ResiliencePolicy(max_retries=1, transfer_timeout=0.25),
            ),
        ),
        scheme="PO",
        placement=PlacementConfig(
            policy="affinity", migration_backlog=6, migration_patience=1.0
        ),
        admission=AdmissionConfig(max_fleet_outstanding=40),
        faults=FaultsConfig(
            plan=FaultPlan(blackouts=(Blackout(2.0, 2.5),)),
            resilience=ResiliencePolicy(),
            compare_no_policy=True,
        ),
        observability=ObservabilityConfig(per_server_lanes=False, fleet_events=False),
    )


def test_rich_config_round_trips_through_json():
    config = _rich_config()
    wire = json.dumps(config.as_dict(), sort_keys=True)
    rebuilt = SystemConfig.from_dict(json.loads(wire))
    assert rebuilt == config
    # and the round-trip is a fixed point on the wire, too
    assert json.dumps(rebuilt.as_dict(), sort_keys=True) == wire


def test_builders_round_trip_and_are_json_safe():
    for config in (
        default_fleet(servers=3, clients=4, speedups=(1.0, 2.0)),
        capacity_scenario(servers=2, clients=4),
        bandwidth_drop_scenario(clients=2, deadline=2.0, scheme="LO"),
    ):
        wire = json.dumps(config.as_dict())  # raises if not JSON-safe
        assert SystemConfig.from_dict(json.loads(wire)) == config


def test_faults_config_collapses_the_old_knob_split():
    """Fault plan, policy and the comparison switch live in one sub-config."""
    config = _rich_config()
    data = config.as_dict()["faults"]
    assert data["compare_no_policy"] is True
    assert data["plan"]["blackouts"] == [[2.0, 2.5]]
    assert data["resilience"]["max_retries"] == ResiliencePolicy().max_retries
    rebuilt = FaultsConfig.from_dict(json.loads(json.dumps(data)))
    assert rebuilt == config.faults


def test_per_server_overrides_win_over_fleet_wide_faults():
    config = _rich_config()
    edge0, edge1 = config.servers
    # edge0 has no overrides: the fleet-wide FaultsConfig applies
    assert config.fault_plan_for(edge0) is config.faults.plan
    assert config.resilience_for(edge0) is config.faults.resilience
    # edge1 carries its own plan/policy: the spec wins
    assert config.fault_plan_for(edge1) is edge1.fault_plan
    assert config.resilience_for(edge1) is edge1.resilience


def test_timeline_for_overlays_the_effective_plan():
    config = _rich_config()
    edge0, edge1 = config.servers
    # the fleet-wide blackout pins edge0's rate inside [2.0, 2.5)
    assert config.timeline_for(edge0).rate_at(2.2) < 1.0
    # edge1's own blackout window is [1.0, 2.0) instead
    assert config.timeline_for(edge1).rate_at(1.5) < 1.0
    assert config.timeline_for(edge1).rate_at(2.2) > 1.0


def test_without_resilience_strips_every_policy():
    bare = _rich_config().without_resilience()
    assert bare.faults.resilience is None
    assert bare.faults.compare_no_policy is False
    assert all(s.resilience is None for s in bare.servers)
    # fault plans stay: the baseline suffers the same faults, unprotected
    assert bare.faults.plan is not None
    assert bare.servers[1].fault_plan is not None


def test_bandwidth_drop_scenario_drops_the_one_gateway_uplink():
    (server,) = bandwidth_drop_scenario(horizon=10.0).servers
    assert server.name == "gateway"
    assert server.bandwidth_steps == ((0.0, 8.0), (5.0, 4.0))  # mid-horizon
    (server,) = bandwidth_drop_scenario(horizon=10.0, drop_at=2.0, mbps_after=1.0).servers
    assert server.bandwidth_steps == ((0.0, 8.0), (2.0, 1.0))


def test_validation_rejects_bad_configs():
    workload = WorkloadConfig(clients=(ClientSpec(name="c"),), horizon=5.0)
    with pytest.raises(ValueError, match="at least one server"):
        SystemConfig(workload=workload, servers=())
    with pytest.raises(ValueError, match="unique"):
        SystemConfig(
            workload=workload,
            servers=(ServerSpec(name="a"), ServerSpec(name="a")),
        )
    with pytest.raises(ValueError, match="scheme"):
        SystemConfig(workload=workload, servers=(ServerSpec(name="a"),), scheme="XX")
    with pytest.raises(ValueError, match="placement policy"):
        PlacementConfig(policy="random")
    with pytest.raises(ValueError, match="at least one client"):
        WorkloadConfig(clients=())
    with pytest.raises(ValueError):
        ServerSpec(name="")


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "path, value, message",
    [
        # unbounded workloads: the arrival loop or the run never ends
        ("workload.horizon", INF, "horizon must be finite"),
        ("workload.clients.0.rate", INF, "rate must be finite"),
        ("workload.clients.1.period", INF, "period must be finite"),
        # uplink steps: finite, from 0, strictly increasing; rates finite and > 0
        ("servers.0.bandwidth_steps", [[0.0, 0.0]], r"\[0\] rate must be > 0"),
        ("servers.0.bandwidth_steps", [[0.0, -2.0]], r"\[0\] rate must be > 0"),
        ("servers.0.bandwidth_steps", [[0.0, NAN]], r"\[0\] rate must be finite"),
        ("servers.0.bandwidth_steps", [[0.0, INF]], r"\[0\] rate must be finite"),
        ("servers.0.bandwidth_steps", [[1.0, 8.0]], r"\[0\] time must be 0.0"),
        ("servers.0.bandwidth_steps", [[0.0, 8.0], [NAN, 4.0]], r"\[1\] time must be finite"),
        ("servers.0.bandwidth_steps", [[0.0, 8.0], [INF, 4.0]], r"\[1\] time must be finite"),
        ("servers.1.bandwidth_steps", [[0.0, 8.0], [0.0, 4.0]], r"\[1\] time must be >"),
        ("servers.1.bandwidth_steps", [[0.0, 8.0], [5.0, 4.0], [3.0, 2.0]], r"\[2\] time"),
        # channel framing and estimator constants
        ("channel.ewma_alpha", 0.0, r"ewma_alpha must be in \(0, 1\]"),
        ("channel.ewma_alpha", 1.5, r"ewma_alpha must be in \(0, 1\]"),
        ("channel.ewma_alpha", NAN, r"ewma_alpha must be in \(0, 1\]"),
        ("channel.drift_threshold", 0.0, "drift_threshold must be > 0"),
        ("channel.drift_threshold", INF, "drift_threshold must be finite"),
        ("channel.drift_threshold", NAN, "drift_threshold must be finite"),
        ("channel.setup_latency", -0.01, "setup_latency must be >= 0"),
        ("channel.setup_latency", NAN, "setup_latency must be finite"),
        ("channel.setup_latency", INF, "setup_latency must be finite"),
        ("channel.header_bytes", -1.0, "header_bytes must be >= 0"),
        ("channel.header_bytes", NAN, "header_bytes must be finite"),
        ("channel.header_bytes", INF, "header_bytes must be finite"),
        ("channel.protocol_overhead", 0.0, "protocol_overhead must be > 0"),
        ("channel.protocol_overhead", NAN, "protocol_overhead must be finite"),
        ("channel.protocol_overhead", INF, "protocol_overhead must be finite"),
    ],
)
def test_from_dict_rejects_configs_that_cannot_run(path, value, message):
    """A config that would hang, or fail deep inside ``run_system``, is
    rejected at construction by a ``ValueError`` naming the field."""
    data = default_fleet(servers=2, clients=2).as_dict()
    *parents, leaf = [int(key) if key.isdigit() else key for key in path.split(".")]
    node = data
    for key in parents:
        node = node[key]
    node[leaf] = value
    with pytest.raises(ValueError, match=message):
        SystemConfig.from_dict(data)
