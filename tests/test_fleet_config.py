"""SystemConfig: the unified scenario surface round-trips through JSON.

The point of one dataclass hierarchy is that a run is *one* document:
``SystemConfig.from_dict(json.loads(json.dumps(cfg.as_dict()))) == cfg``
must hold for every combination of blocks, including per-server fault
plans and the fleet-wide FaultsConfig sub-config.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudConfig
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
    SLO_SCENARIOS,
    AdmissionConfig,
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
#: a ``value`` that deletes the key instead of setting it
MISSING = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        # unbounded workloads: the arrival loop or the run never ends
        ("workload.horizon", INF, "horizon must be finite"),
        ("workload.clients.0.rate", INF, "rate must be finite"),
        ("workload.clients.1.period", INF, "period must be finite"),
        # seeds numpy would reject deep inside, or silently run as 1
        ("workload.seed", -1, "workload.seed must be a non-negative integer, got -1"),
        ("workload.seed", 1.5, "workload.seed must be a non-negative integer, got 1.5"),
        ("workload.seed", True, "workload.seed must be a non-negative integer, got True"),
        ("workload.seed", None, "workload.seed must be a non-negative integer, got None"),
        # a model the planner cannot resolve failed with a KeyError mid-run
        ("workload.clients.1.model", "alexnet-9000", r"workload.clients\[1\].model: unknown"),
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
        # a NaN backoff reached the event engine as a NaN delay
        ("faults.resilience.backoff_base", NAN, "backoff_base must be >= 0"),
        # observability windows: overflow, or one bucket for the whole run
        ("observability.telemetry_bucket", INF, "telemetry_bucket must be finite"),
        ("observability.slos.0.window", INF, "window must be finite"),
        ("observability.slos.0.fast_window", INF, "fast_window must be finite"),
        ("observability.slos.0.burn_threshold", INF, "burn_threshold must be finite"),
        ("observability.slos.0.bucket_width", INF, "bucket_width must be finite"),
        # an error inside a server spec names the server's index and the field
        ("servers.1.max_queue_depth", 2.5,
         r"^servers\[1\]\.max_queue_depth must be a positive integer, got 2.5$"),
        ("servers.1.bandwidth_steps", [[0.0, 8.0], [2.0, -1.0]],
         r"^servers\[1\]\.bandwidth_steps\[1\] rate must be > 0"),
        ("servers.0.bandwidth_steps", [[0.0, 8.0, 1.0]],
         r"^servers\[0\]\.bandwidth_steps\[0\] must be a \(time, Mbps\) pair"),
        ("servers.0.bandwidth_steps", [],
         r"^servers\[0\]\.bandwidth_steps must hold at least one step$"),
        ("servers.1.name", "", r"^servers\[1\]\.name must be non-empty$"),
        ("servers.0.cloud_speedup", INF, r"^servers\[0\]\.cloud_speedup must be finite"),
        ("servers.1.nominal_burst", True,
         r"^servers\[1\]\.nominal_burst must be a positive integer, got True$"),
        ("servers.1.fault_plan", {"blackouts": [[5.0, 3.0]]},
         r"^servers\[1\]\.fault_plan: blackout end 3.0 must be > start 5.0$"),
        ("servers.0.resilience", {"backoff_base": NAN},
         r"^servers\[0\]\.resilience: backoff_base must be >= 0"),
        # a missing required key is a ValueError naming its path, not a KeyError
        ("workload", MISSING, r"^workload is required$"),
        ("workload.clients", MISSING, r"^workload\.clients is required$"),
        ("servers", MISSING, r"^servers is required$"),
        ("servers.1.name", MISSING, r"^servers\[1\]\.name is required$"),
        ("servers.0.bandwidth_steps", MISSING, r"^servers\[0\]\.bandwidth_steps is required$"),
    ],
)
def test_from_dict_rejects_configs_that_cannot_run(path, value, message):
    """A config that would hang, or fail deep inside ``run_system``, is
    rejected at construction by a ``ValueError`` naming the field; inside
    a server spec, or for a missing required key, by its whole path."""
    # every block a case can name is present: faults and SLO telemetry too
    config = with_slo_telemetry(default_fleet(servers=2, clients=2))
    data = replace(config, faults=FaultsConfig(resilience=ResiliencePolicy())).as_dict()
    *parents, leaf = [int(key) if key.isdigit() else key for key in path.split(".")]
    node = data
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[leaf]
    else:
        node[leaf] = value
    with pytest.raises(ValueError, match=message):
        SystemConfig.from_dict(data)


@pytest.mark.parametrize(
    "path, value, message",
    [
        # range() of a float pool size failed deep inside the fleet build
        ("cloud.gpus", 1.5, r"cloud.gpus must be a positive integer, got 1.5"),
        ("cloud.gpus", True, r"cloud.gpus must be a positive integer, got True"),
        # fractional or boolean batch caps ran, flushing at ceil(2.5) or 1
        ("cloud.max_batch", 2.5, r"cloud.max_batch must be a positive integer, got 2.5"),
        ("cloud.max_batch", True, r"cloud.max_batch must be a positive integer, got True"),
        ("cloud.max_batch", 0, r"cloud.max_batch must be a positive integer, got 0"),
        ("servers.0.max_queue_depth", 2.5, "max_queue_depth must be a positive integer"),
        ("servers.1.max_queue_depth", True, "max_queue_depth must be a positive integer"),
        ("servers.0.nominal_burst", 1.5, "nominal_burst must be a positive integer"),
        ("servers.0.nominal_burst", False, "nominal_burst must be a positive integer"),
        # an infinitely fast device ran every stage on it in 0 s
        ("cloud.model.speedup", INF, "speedup must be finite"),
        ("servers.0.mobile_speedup", INF, "mobile_speedup must be finite"),
        ("servers.1.cloud_speedup", INF, "cloud_speedup must be finite"),
        ("servers.0.mobile_speedup", NAN, "mobile_speedup must be finite"),
    ],
)
def test_from_dict_rejects_non_integer_counts_and_infinite_speedups(path, value, message):
    """Counts are positive integers (never bools) and speedups are finite,
    or the config is rejected at construction naming the field."""
    data = replace(
        default_fleet(servers=2, clients=2), cloud=CloudConfig(gpus=2)
    ).as_dict()
    *parents, leaf = [int(key) if key.isdigit() else key for key in path.split(".")]
    node = data
    for key in parents:
        node = node[key]
    node[leaf] = value
    with pytest.raises(ValueError, match=message):
        SystemConfig.from_dict(data)


def test_workload_accepts_any_non_negative_integer_seed():
    clients = (ClientSpec(name="c"),)
    for seed in (0, 7, np.int64(3), 2**40):
        assert WorkloadConfig(clients=clients, seed=seed).seed == seed


def _every_block() -> dict:
    """A document with every block present: faults, cloud, SLO telemetry."""
    config = replace(
        with_slo_telemetry(_rich_config()), cloud=CloudConfig(gpus=2, max_batch=4)
    )
    return json.loads(json.dumps(config.as_dict()))


def test_every_written_and_committed_config_loads():
    configs = [
        _rich_config(),
        default_fleet(servers=2, clients=2),
        bandwidth_drop_scenario(),
        capacity_scenario(),
        contended_cloud_scenario(),
        blackout_fleet_scenario(),
        steady_fleet_scenario(),
        *(slo_acceptance_scenario(name) for name in SLO_SCENARIOS),
    ]
    for config in configs:
        assert SystemConfig.from_dict(json.loads(json.dumps(config.as_dict()))) == config
    assert SystemConfig.from_dict(_every_block()).as_dict() == _every_block()
    golden = json.loads((Path(__file__).parent / "data" / "golden_eft_reports.json").read_text())
    for report in golden.values():
        assert SystemConfig.from_dict(report["config"]).as_dict() == report["config"]


def _set(data: dict, path: str, value) -> dict:
    *parents, leaf = [int(key) if key.isdigit() else key for key in path.split(".")]
    node = data
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[leaf]
    else:
        node[leaf] = value
    return data


@pytest.mark.parametrize(
    "path, value, message",
    [
        # a bad client names its index
        ("workload.clients.1.rate", INF, r"^workload\.clients\[1\]: rate must be finite, got inf$"),
        ("workload.clients.0.process", "x", r"^workload\.clients\[0\]: unknown arrival process"),
        # unknown keys are rejected in every block, not dropped or a TypeError
        ("shceme", "LO", r"^unknown key 'shceme' \(known: workload, servers, scheme,"),
        ("workload.bogus", 1, r"^workload: unknown key 'bogus'"),
        ("workload.clients.1.bogus", 1, r"^workload\.clients\[1\]: unknown key 'bogus'"),
        ("servers.1.bogus", 1, r"^servers\[1\]: unknown key 'bogus'"),
        ("servers.1.fault_plan.bogus", 1, r"^servers\[1\]\.fault_plan: unknown key 'bogus'"),
        ("servers.1.fault_plan.corruption.bogus", 1,
         r"^servers\[1\]\.fault_plan\.corruption: unknown key 'bogus'"),
        ("servers.1.resilience.bogus", 1, r"^servers\[1\]\.resilience: unknown key 'bogus'"),
        ("placement.bogus", 1, r"^placement: unknown key 'bogus'"),
        ("admission.bogus", 1, r"^admission: unknown key 'bogus'"),
        ("channel.bogus", 1, r"^channel: unknown key 'bogus'"),
        ("faults.bogus", 1, r"^faults: unknown key 'bogus'"),
        ("faults.plan.bogus", 1, r"^faults\.plan: unknown key 'bogus'"),
        ("faults.resilience.bogus", 1, r"^faults\.resilience: unknown key 'bogus'"),
        ("cloud.bogus", 1, r"^cloud: unknown key 'bogus'"),
        ("cloud.model.bogus", 1, r"^cloud\.model: unknown key 'bogus'"),
        ("observability.bogus", 1, r"^observability: unknown key 'bogus'"),
        ("observability.slos.0.bogus", 1, r"^observability\.slos\[0\]: unknown key 'bogus'"),
        # a scalar where a list or a mapping belongs
        ("servers.0.bandwidth_steps", 5,
         r"^servers\[0\]\.bandwidth_steps: expected a list, got int$"),
        ("workload.clients", 3, r"^workload\.clients: expected a list, got int$"),
        ("servers", {"a": {"name": "a"}}, r"^servers: expected a list, got dict$"),
        ("servers.0", "edge0", r"^servers\[0\]: expected a mapping, got str$"),
        ("placement", None, r"^placement: expected a mapping, got NoneType$"),
        ("cloud.model", [1], r"^cloud\.model: expected a mapping, got list$"),
        ("observability.slos", 2, r"^observability\.slos: expected a list, got int$"),
        # a value of the wrong type names the block it sits in
        ("servers.1.name", ["edge1"], r"^servers\[1\]\.name must be a string, got \['edge1'\]$"),
        ("workload.horizon", "12", r"^workload: '>' not supported"),
        ("channel.setup_latency", "5ms", r"^channel: must be real number, not str$"),
        ("cloud.model.speedup", INF, r"^cloud\.model: speedup must be finite"),
        ("servers.1.fault_plan.blackouts", 4, r"^servers\[1\]\.fault_plan: "),
        ("faults.plan.metadata", "ab", r"^faults\.plan: dictionary update sequence"),
    ],
)
def test_from_dict_names_the_path_of_every_malformed_block(path, value, message):
    with pytest.raises(ValueError, match=message):
        SystemConfig.from_dict(_set(_every_block(), path, value))


def _paths(node, prefix: tuple = ()):
    """Every key path in a JSON document, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(("JPS", "alexnet", "poisson", "batch", "eft")),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_dict_raises_only_value_errors(data):
    """Whatever a document holds, ``from_dict`` builds a config or raises
    ``ValueError``; never a TypeError, KeyError or AttributeError."""
    document = _every_block()
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(document))
        *parents, leaf = data.draw(st.sampled_from(paths))
        node = document
        for key in parents:
            node = node[key]
        action = data.draw(st.sampled_from(("replace", "delete", "add")))
        if action == "delete":
            del node[leaf]
        elif action == "add" and isinstance(node[leaf], dict):
            node[leaf][data.draw(st.text(max_size=6))] = data.draw(JSON)
        else:
            node[leaf] = data.draw(JSON)
    try:
        SystemConfig.from_dict(document)
    except ValueError:
        pass
