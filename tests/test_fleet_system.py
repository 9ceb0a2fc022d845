"""run_system end to end: capacity, compat, placement, admission.

The two locks that matter most:

* **capacity acceptance** — the ROADMAP's capacity-bound scenario
  (32 deadline-bound clients saturating one mobile CPU) must serve
  strictly more within deadline on a 4-server fleet than on a single
  gateway, over the *identical* seeded arrival stream, with zero
  accounting/clock violations. The counts are pinned: per-server
  dispatch is byte-for-byte the single-gateway code, so any drift here
  is a real behavior change, not noise.
* **pre-fleet golden bytes** — ``tests/data/golden_system_compat.json``
  was captured from the pre-fleet single-gateway and fault-scenario
  implementations; ``run_system`` on :func:`bandwidth_drop_scenario`
  and :func:`blackout_fleet_scenario` must still reproduce every
  gateway report and audit block in it byte for byte (same JSON
  serialization, same key order under sort_keys).
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.engine import PlanningEngine
from repro.faults.plan import Blackout, FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.fleet import (
    AdmissionConfig,
    FleetGateway,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    bandwidth_drop_scenario,
    capacity_scenario,
    default_fleet,
    run_system,
)
from repro.serving.workload import ClientSpec
from tests.helpers import compared_blackout

GOLDEN = Path(__file__).parent / "data" / "golden_system_compat.json"


# ----------------------------------------------------------------------
# capacity acceptance: the fleet breaks the single-CPU ceiling
# ----------------------------------------------------------------------


def test_fleet_serves_strictly_more_than_single_gateway_under_overload():
    planner = PlanningEngine()
    single = run_system(capacity_scenario(servers=1), planner=planner)
    fleet = run_system(capacity_scenario(servers=4), planner=planner)

    # identical arrival stream: workload generation never sees the fleet
    assert single.arrivals == fleet.arrivals == 801

    # zero invariant violations on both sides
    assert single.violations == () and single.clock_violations == ()
    assert fleet.violations == () and fleet.clock_violations == ()

    # the acceptance criterion: strictly more served within deadline
    assert fleet.within_deadline > single.within_deadline
    assert fleet.served > single.served

    # pinned counts: per-server dispatch is the single-gateway code, so
    # these only move when behavior actually changes
    assert (single.served, single.within_deadline) == (73, 22)
    assert (fleet.served, fleet.within_deadline) == (286, 104)


# ----------------------------------------------------------------------
# run_system against the pre-fleet golden capture
# ----------------------------------------------------------------------


def _sorted_json(value) -> str:
    return json.dumps(value, sort_keys=True)


def test_run_system_reproduces_the_pre_fleet_golden_bytes():
    golden = json.loads(GOLDEN.read_text())

    # one gateway, three schemes in order on one planner: the reports
    # embed the planner's cumulative engine_cache gauges
    scenario = golden["scenario"]
    assert set(scenario) == {"config", "arrivals", "offered_load_rps", "schemes"}
    assert set(scenario["schemes"]) == {"JPS", "LO", "CO"}
    planner = PlanningEngine()
    config = bandwidth_drop_scenario(clients=2, rate=1.5, horizon=24.0, deadline=2.0)
    for scheme in ("JPS", "LO", "CO"):
        produced = run_system(replace(config, scheme=scheme), planner=planner).as_dict()
        assert _sorted_json(produced["servers"]["gateway"]["report"]) == _sorted_json(
            scenario["schemes"][scheme]
        ), scheme
        assert produced["arrivals"] == scenario["arrivals"]
        assert produced["offered_load_rps"] == scenario["offered_load_rps"]

    # the blackout scenario with its no-policy baseline
    fault = golden["fault"]
    assert set(fault) == {"config", "arrivals", "policy", "no_policy", "comparison"}
    produced = run_system(compared_blackout(clients=2, rate=2.0, horizon=16.0)).as_dict()
    for side, document in (("policy", produced), ("no_policy", produced["baseline"])):
        ((_, block),) = document["servers"].items()
        audit = {**block, "clock_violations": document["clock_violations"]}
        assert _sorted_json(audit) == _sorted_json(fault[side]), side
    assert _sorted_json(produced["comparison"]) == _sorted_json(fault["comparison"])
    assert produced["arrivals"] == fault["arrivals"]


# ----------------------------------------------------------------------
# placement and migration
# ----------------------------------------------------------------------


def _clients(n: int, rate: float, deadline: float | None = None):
    return tuple(
        ClientSpec(name=f"c{i}", rate=rate, deadline=deadline) for i in range(n)
    )


def test_affinity_migrates_off_a_sustained_overloaded_server():
    config = SystemConfig(
        workload=WorkloadConfig(clients=_clients(6, 2.0), horizon=10.0),
        servers=(
            ServerSpec(name="slow", mobile_speedup=0.25),
            ServerSpec(name="fast", mobile_speedup=2.0),
        ),
        placement=PlacementConfig(
            policy="affinity", migration_backlog=3, migration_patience=0.5
        ),
    )
    report = run_system(config)
    migrations = report.fleet["placement"]["migrations"]
    assert migrations, "sustained overload on the slow server must migrate clients"
    assert {m["reason"] for m in migrations} == {"overload"}
    # at this load both servers back up at times, but the slow server
    # must shed toward the fast one at least once
    assert any(m["from"] == "slow" and m["to"] == "fast" for m in migrations)
    assert report.violations == () and report.clock_violations == ()


def test_affinity_migrates_off_a_degraded_uplink():
    policy = ResiliencePolicy(
        max_retries=1,
        transfer_timeout=0.25,
        degrade_after_failures=2,
        probe_interval=0.25,
        probe_bytes=16 * 1024.0,
    )
    config = SystemConfig(
        workload=WorkloadConfig(clients=_clients(4, 2.0, deadline=1.0), horizon=12.0),
        servers=(
            ServerSpec(
                name="dark",
                fault_plan=FaultPlan(blackouts=(Blackout(2.0, 8.0),)),
                resilience=policy,
            ),
            ServerSpec(name="healthy"),
        ),
        placement=PlacementConfig(policy="affinity", migrate_on_degraded=True),
    )
    report = run_system(config)
    migrations = report.fleet["placement"]["migrations"]
    assert migrations, "a degraded server must shed its bound clients"
    assert {m["reason"] for m in migrations} == {"degraded"}
    assert all(m["from"] == "dark" for m in migrations)
    assert report.violations == ()


def test_eft_placement_prices_through_the_shared_planner():
    planner = PlanningEngine()
    config = default_fleet(servers=3, clients=9, rate=2.0, horizon=6.0,
                           placement="eft")
    report = run_system(config, planner=planner)
    arrivals = report.fleet["placement"]["per_server_arrivals"]
    # eft balances: every server takes a nontrivial share of the stream
    assert set(arrivals) == {"server0", "server1", "server2"}
    assert all(count > 0 for count in arrivals.values())
    assert report.violations == ()
    # the scorer's pricing_kernel lookups hit the planner's warm caches
    assert planner.stats_snapshot()["totals"]["hits"] > 0


def test_fleet_admission_rejects_and_still_tiles():
    config = replace(
        default_fleet(servers=2, clients=8, rate=3.0, horizon=6.0),
        admission=AdmissionConfig(max_fleet_outstanding=4),
    )
    report = run_system(config)
    fleet = report.fleet
    assert fleet["rejected_fleet"] > 0
    # exact accounting: server sums + fleet rejects tile the arrivals
    assert fleet["arrived_servers"] + fleet["rejected_fleet"] == fleet["arrivals"]
    assert report.violations == () and report.clock_violations == ()


def test_heterogeneous_servers_get_scaled_planners():
    config = default_fleet(servers=2, clients=2, rate=0.5, horizon=4.0,
                           speedups=(1.0, 2.0))
    planner = PlanningEngine()
    fleet = FleetGateway(config, planner=planner)
    assert fleet.servers["server0"].planner is planner
    fast = fleet.servers["server1"].planner
    assert fast is not planner
    assert fast.mobile.default_throughput == planner.mobile.default_throughput * 2.0


def test_compare_no_policy_attaches_baseline_and_comparison():
    report = run_system(
        compared_blackout(clients=2, rate=1.5, horizon=10.0, blackout_start=3.0)
    )
    assert report.baseline is not None
    assert report.baseline.baseline is None  # no recursion
    comparison = report.comparison
    assert comparison["within_deadline_policy"] == report.within_deadline
    assert comparison["within_deadline_no_policy"] == report.baseline.within_deadline
    assert comparison["degradations"] >= 1
    assert report.ok and report.baseline.ok
    # the as_dict document embeds the baseline and survives JSON
    document = json.loads(json.dumps(report.as_dict()))
    assert document["baseline"]["fleet"]["within_deadline"] == (
        comparison["within_deadline_no_policy"]
    )
