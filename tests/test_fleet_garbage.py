"""A fleet run leaves no garbage for the cycle collector.

Every object a ``run_system`` call allocates — tickets, the callbacks a
gateway hands to resources, the engine and the cloud, busy logs,
records, the fleet itself — must be freed by reference counting alone
once the call returns. A reference cycle would leave it for the cycle
collector, whose passes over a fleet's live objects cost a served run
far more than the scheduling does (docs/performance.md, "Served-path
garbage").

The census: warm a planner with one run (so its caches are built), then
collect, switch the collector off, run again and count what a full
collection finds unreachable. It must be nothing, also when the second
run builds a fresh planner of its own, as ``run_system`` does when given
none: the engine, its caches and the cut spaces it builds are freed by
reference counting too.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.engine import PlanningEngine
from repro.faults.plan import FaultPlan, TransferCorruption
from repro.fleet import (
    FaultsConfig,
    blackout_fleet_scenario,
    contended_cloud_scenario,
    default_fleet,
    run_system,
    with_slo_telemetry,
)
from repro.obs.tracer import Tracer

SMALL = default_fleet(servers=2, clients=8, horizon=4.0)

CONFIGS = {
    **{
        f"default-{scheme}": replace(SMALL, scheme=scheme)
        for scheme in ("JPS", "LO", "CO", "PO")
    },
    "contended-cloud": contended_cloud_scenario(),
    # the served_batching shape, scaled down: a least-queued router over
    # four batching GPUs, with windowed telemetry and SLO alerting
    "least-queued-pool": with_slo_telemetry(
        contended_cloud_scenario(servers=4, clients=16, gpus=4, horizon=4.0)
    ),
    # resilience policy: timeouts, retries, degraded mode and probes
    "blackout": blackout_fleet_scenario(),
    # no policy: every corrupted upload is retransmitted at once
    "corruption-only": replace(
        SMALL,
        faults=FaultsConfig(plan=FaultPlan(seed=5, corruption=TransferCorruption(0.3))),
    ),
}


def census(config, traced: bool = False, fresh: bool = False):
    """``(report, unreachable objects)`` of one run on a warm planner, or
    (``fresh``) on the new planner ``run_system`` builds when given none."""
    warm = PlanningEngine()
    run_system(config, planner=warm)
    planner = None if fresh else warm
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        report = run_system(config, planner=planner, tracer=Tracer() if traced else None)
        return report, gc.collect()
    finally:
        if enabled:
            gc.enable()


def _counter(report, name: str) -> int:
    return sum(
        block["report"]["counters"].get(name, 0) for block in report.servers.values()
    )


@pytest.mark.parametrize("name", CONFIGS)
def test_a_fleet_run_leaves_no_cyclic_garbage(name):
    report, unreachable = census(CONFIGS[name])
    assert report.ok
    assert _counter(report, "served") > 0
    assert unreachable == 0


def test_the_cases_reach_the_paths_they_name():
    """Each case runs the lifecycle path it is listed for."""
    pool = run_system(CONFIGS["least-queued-pool"])
    assert sum(1 for count in pool.fleet["cloud"]["routed"].values() if count) > 1
    corrupt = run_system(CONFIGS["corruption-only"])
    assert _counter(corrupt, "transfer_corruptions") > 0
    assert _counter(corrupt, "transfer_retries") == 0
    blackout = run_system(CONFIGS["blackout"])
    for name in ("transfer_timeouts", "transfer_retries", "degradations", "probes"):
        assert _counter(blackout, name) > 0, name


def test_a_traced_run_leaves_no_cyclic_garbage():
    report, unreachable = census(SMALL, traced=True)
    assert report.ok
    assert unreachable == 0


@pytest.mark.parametrize("name", ["default-JPS", "least-queued-pool"])
def test_a_run_on_a_fresh_planner_leaves_no_cyclic_garbage(name):
    report, unreachable = census(CONFIGS[name], fresh=True)
    assert report.ok
    assert unreachable == 0
