"""Gateway resilience under injected faults, plus the acceptance scenario.

The headline test is the PR's acceptance criterion: under a seeded 2 s
uplink blackout, the JPS gateway with a resilience policy (timeouts →
degradation to local-only → probe-driven recovery replan) serves
strictly more requests within deadline than the policy-free gateway on
the identical stream, with zero accounting violations and at least one
degradation and one recovery replan event. The rest of the file pins
each policy mechanism in isolation and the strict opt-in contract
(fault-free gateways emit byte-identical reports).
"""

import json
from dataclasses import replace

import pytest

from repro.faults import (
    Blackout,
    ClientOutage,
    CostMisestimation,
    FaultPlan,
    ResiliencePolicy,
    TransferCorruption,
    accounting_violations,
)
from repro.fleet import FaultsConfig, SystemConfig, bandwidth_drop_scenario, run_system
from repro.net.timeline import BandwidthTimeline
from repro.serving import Gateway, Request
from repro.serving.gateway import MAX_BARE_RETRANSMITS
from tests.helpers import compared_blackout


def flat_timeline(rate_mbps: float = 8.0) -> BandwidthTimeline:
    return BandwidthTimeline.steps_mbps([(0.0, rate_mbps)])


def requests_at(times, model="alexnet", deadline=None, client="c0"):
    return [
        Request(
            client_id=client, request_id=i, model=model, arrival=t, deadline=deadline
        )
        for i, t in enumerate(times)
    ]


def spread(n: float, every: float = 0.5):
    return [i * every for i in range(int(n))]


# ----------------------------------------------------------------------
# acceptance scenario (test-locked)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fault_report():
    return run_system(compared_blackout())


def test_acceptance_policy_beats_bare_within_deadline(fault_report):
    comparison = fault_report.comparison
    assert comparison["within_deadline_policy"] > comparison["within_deadline_no_policy"]


def test_acceptance_degrades_and_recovers(fault_report):
    comparison = fault_report.comparison
    assert comparison["degradations"] >= 1
    assert comparison["recovery_replans"] >= 1
    kinds = [e.get("kind") for e in fault_report.servers["server0"]["report"]["replans"]]
    assert "degrade" in kinds and "recovery" in kinds


def test_acceptance_accounting_is_exact(fault_report):
    for side in (fault_report, fault_report.baseline):
        assert side.violations == () and side.clock_violations == ()
        assert side.servers["server0"]["report"]["balance_ok"]
        assert side.servers["server0"]["report"]["pending"] == 0


def test_acceptance_is_deterministic(fault_report):
    again = run_system(compared_blackout())

    def strip(report):
        # engine cache counters depend on planner reuse, drop them
        out = json.loads(json.dumps(report.as_dict()))
        for side in (out, out["baseline"]):
            gateway = side["servers"]["server0"]["report"]
            gateway.pop("engine_cache", None)
            gateway["counters"] = {
                k: v for k, v in gateway["counters"].items()
                if not k.startswith("engine_")
            }
        return out

    assert strip(again) == strip(fault_report)


def test_acceptance_report_shape(fault_report):
    document = fault_report.as_dict()
    gateway = document["servers"]["server0"]["report"]
    assert gateway["resilience"]["policy"]["max_retries"] == 1
    assert gateway["faults"]["plan"]["blackouts"] == [[8.0, 10.0]]
    config = document["config"]
    assert config["faults"]["plan"]["seed"] == config["workload"]["seed"]
    json.dumps(document)                          # JSON-safe end to end


def test_fault_scenario_rejects_incomplete_configs():
    """Without a plan or a policy the baseline would replay the run itself."""
    config = compared_blackout()
    for faults, missing in (
        (FaultsConfig(compare_no_policy=True), "fault plan"),
        (replace(config.faults, resilience=None), "resilience policy"),
    ):
        with pytest.raises(ValueError, match=f"faults.compare_no_policy needs a {missing}"):
            replace(config, faults=faults)
        with pytest.raises(ValueError, match=f"faults.compare_no_policy needs a {missing}"):
            SystemConfig.from_dict({**config.as_dict(), "faults": faults.as_dict()})
    # a per-server plan and policy count as well
    (server,) = config.servers
    plan, policy = config.faults.plan, config.faults.resilience
    replace(
        config,
        servers=(replace(server, fault_plan=plan, resilience=policy),),
        faults=FaultsConfig(compare_no_policy=True),
    )


# ----------------------------------------------------------------------
# strict opt-in: fault-free gateways are unchanged
# ----------------------------------------------------------------------

def test_fault_free_report_has_no_fault_surface():
    gateway = Gateway(flat_timeline(), scheme="JPS")
    result = gateway.run(requests_at(spread(12)))
    report = gateway.report(result)
    assert "resilience" not in report and "faults" not in report
    assert all("kind" not in event for event in report["replans"])
    fault_counters = {
        "degraded", "degradations", "recoveries", "probes", "local_fallbacks",
        "transfer_failures", "transfer_timeouts", "transfer_corruptions",
        "transfer_retries", "dropped_disconnected", "dropped_transfer_failed",
    }
    assert fault_counters.isdisjoint(report["counters"])
    assert report["balance_ok"]


def test_fault_free_scenario_echo_is_unchanged():
    echo = json.dumps(bandwidth_drop_scenario(horizon=10.0).as_dict())
    assert "fault" not in echo and "resilience" not in echo


# ----------------------------------------------------------------------
# corruption: bare retransmit vs policy retry
# ----------------------------------------------------------------------

def test_bare_gateway_retransmits_corrupt_transfers():
    plan = FaultPlan(seed=5, corruption=TransferCorruption(0.3))
    gateway = Gateway(flat_timeline(), scheme="JPS", faults=plan)
    result = gateway.run(requests_at(spread(20)))
    counters = result.metrics.snapshot()["counters"]
    assert counters["transfer_corruptions"] > 0
    assert counters["served"] == 20               # every corruption retransmitted
    assert "transfer_retries" not in counters     # that's the policy counter
    assert accounting_violations(gateway.report(result)) == []


def test_bare_gateway_gives_up_after_max_retransmits():
    plan = FaultPlan(seed=5, corruption=TransferCorruption(1.0))
    gateway = Gateway(flat_timeline(), scheme="JPS", faults=plan)
    result = gateway.run(requests_at([0.0]))
    counters = result.metrics.snapshot()["counters"]
    assert counters["dropped_transfer_failed"] == 1
    assert counters["transfer_corruptions"] == MAX_BARE_RETRANSMITS
    assert result.records[-1].outcome == "failed"
    assert accounting_violations(gateway.report(result)) == []


def test_policy_retry_absorbs_corruption():
    plan = FaultPlan(seed=5, corruption=TransferCorruption(0.3))
    # degradation disabled so the test isolates the retry machinery
    policy = ResiliencePolicy(
        max_retries=4, backoff_base=0.01, degrade_after_failures=999
    )
    gateway = Gateway(flat_timeline(), scheme="JPS", faults=plan, resilience=policy)
    result = gateway.run(requests_at(spread(20)))
    counters = result.metrics.snapshot()["counters"]
    assert counters["transfer_retries"] > 0
    assert counters["served"] == 20
    assert accounting_violations(gateway.report(result)) == []


def test_policy_falls_back_locally_when_retries_exhaust():
    plan = FaultPlan(seed=5, corruption=TransferCorruption(1.0))
    policy = ResiliencePolicy(max_retries=1, backoff_base=0.01, degrade_after_failures=999)
    gateway = Gateway(flat_timeline(), scheme="JPS", faults=plan, resilience=policy)
    result = gateway.run(requests_at(spread(5)))
    counters = result.metrics.snapshot()["counters"]
    assert counters["local_fallbacks"] == 5
    assert counters["degraded"] == 5
    assert counters.get("served", 0) == 0
    assert all(r.outcome == "degraded" for r in result.records)
    assert all(r.latency is not None for r in result.records)
    assert accounting_violations(gateway.report(result)) == []


def test_policy_without_fallback_drops():
    plan = FaultPlan(seed=5, corruption=TransferCorruption(1.0))
    policy = ResiliencePolicy(
        max_retries=1, backoff_base=0.01, local_fallback=False,
        degrade_after_failures=999,
    )
    gateway = Gateway(flat_timeline(), scheme="JPS", faults=plan, resilience=policy)
    result = gateway.run(requests_at(spread(5)))
    counters = result.metrics.snapshot()["counters"]
    assert counters["dropped_transfer_failed"] == 5
    assert accounting_violations(gateway.report(result)) == []


# ----------------------------------------------------------------------
# blackout: timeouts, degradation, recovery
# ----------------------------------------------------------------------

def blackout_timeline(start=2.0, end=4.0):
    return FaultPlan(blackouts=(Blackout(start, end),)).apply_to_timeline(
        flat_timeline()
    )


def test_timeouts_fire_inside_blackout():
    policy = ResiliencePolicy(
        transfer_timeout=0.2, max_retries=0, backoff_base=0.01,
        degrade_after_failures=999,
    )
    gateway = Gateway(blackout_timeline(), scheme="JPS", resilience=policy)
    result = gateway.run(requests_at([0.0, 2.1, 2.2, 2.3]))
    counters = result.metrics.snapshot()["counters"]
    assert counters["transfer_timeouts"] > 0
    assert counters["local_fallbacks"] > 0
    assert accounting_violations(gateway.report(result)) == []


def test_degraded_mode_switches_admissions_to_local():
    policy = ResiliencePolicy(
        transfer_timeout=0.2, max_retries=0, degrade_after_failures=1,
        probe_interval=0.25,
    )
    gateway = Gateway(blackout_timeline(2.0, 30.0), scheme="JPS", resilience=policy)
    # the blackout never ends within the run: after degradation every
    # admission takes the LO cut and completes locally
    result = gateway.run(requests_at(spread(12)))
    counters = result.metrics.snapshot()["counters"]
    assert counters["degradations"] == 1
    assert counters["degraded"] > 0
    assert "recoveries" not in counters
    assert gateway.degraded_mode
    report = gateway.report(result)
    assert report["resilience"]["degraded_at_end"]
    assert accounting_violations(report) == []


def test_recovery_replan_after_blackout_lifts():
    policy = ResiliencePolicy(
        transfer_timeout=0.2, max_retries=0, degrade_after_failures=1,
        probe_interval=0.25,
    )
    gateway = Gateway(blackout_timeline(2.0, 4.0), scheme="JPS", resilience=policy)
    result = gateway.run(requests_at(spread(16)))
    counters = result.metrics.snapshot()["counters"]
    assert counters["degradations"] == 1
    assert counters["recoveries"] == 1
    assert counters["probes"] >= 1
    assert not gateway.degraded_mode
    kinds = [e.get("kind") for e in result.replan_events]
    assert "degrade" in kinds and "recovery" in kinds
    # offloading resumed: requests served after recovery used the uplink
    assert result.uplink.total_busy_time > 0
    assert accounting_violations(gateway.report(result)) == []


def test_probing_stops_when_idle():
    """A degraded gateway with no work must let the engine drain."""
    policy = ResiliencePolicy(
        transfer_timeout=0.2, max_retries=0, degrade_after_failures=1,
        probe_interval=0.25,
    )
    gateway = Gateway(blackout_timeline(0.5, 1e9), scheme="JPS", resilience=policy)
    result = gateway.run(requests_at([0.6, 0.7]))
    # run() returned at all — probes did not keep the engine alive forever
    assert result.pending == 0
    assert gateway.degraded_mode


# ----------------------------------------------------------------------
# disconnects and misestimation
# ----------------------------------------------------------------------

def test_disconnected_clients_are_dropped():
    plan = FaultPlan(outages=(ClientOutage("c0", 1.0, 2.0),))
    gateway = Gateway(flat_timeline(), scheme="LO", faults=plan)
    result = gateway.run(requests_at([0.0, 1.5, 2.5]))
    counters = result.metrics.snapshot()["counters"]
    assert counters["dropped_disconnected"] == 1
    assert counters["served"] == 2
    outcomes = [r.outcome for r in result.records]
    assert outcomes.count("failed") == 1
    report = gateway.report(result)
    assert report["faults"]["disconnect_drops"] == 1
    assert accounting_violations(report) == []


def test_misestimation_slows_execution_without_touching_plans():
    requests = requests_at(spread(10))
    clean = Gateway(flat_timeline(), scheme="JPS")
    clean_result = clean.run(list(requests))
    slow_plan = FaultPlan(misestimation=CostMisestimation(compute_scale=2.0))
    slow = Gateway(flat_timeline(), scheme="JPS", faults=slow_plan)
    slow_result = slow.run(list(requests))
    assert slow_result.makespan > clean_result.makespan
    # the plan itself is untouched: same cut choices on both gateways
    assert [r.request_id for r in slow_result.records] == [
        r.request_id for r in clean_result.records
    ]
    assert accounting_violations(slow.report(slow_result)) == []
