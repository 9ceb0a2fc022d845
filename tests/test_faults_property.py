"""Property suite: invariants that hold for *every* fault plan.

Hypothesis drives randomized fault plans (blackouts, corruption,
outages, misestimation, with and without a resilience policy) through a
small one-server fleet run and asserts the three load-bearing guarantees:

* accounting — served + degraded + dropped + pending == arrived, drop
  reasons tile the dropped total, no negative histogram observations;
* liveness — the engine drains (no stuck probes/retries) and virtual
  time never moves backwards;
* replay — the same seed reproduces a bit-identical report.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    Blackout,
    ClientOutage,
    CostMisestimation,
    FaultPlan,
    ResiliencePolicy,
    TransferCorruption,
    accounting_violations,
)
from repro.serving import Request
from tests.helpers import serve_one


@st.composite
def fault_plans(draw) -> FaultPlan:
    seed = draw(st.integers(0, 2**31 - 1))
    blackouts = ()
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 3.0))
        duration = draw(st.floats(0.3, 2.0))
        blackouts = (Blackout(start, start + duration),)
    corruption = None
    probability = draw(st.sampled_from([0.0, 0.2, 0.8]))
    if probability:
        corruption = TransferCorruption(probability)
    outages = ()
    if draw(st.booleans()):
        outages = (ClientOutage("c0", 1.0, 2.5),)
    misestimation = None
    if draw(st.booleans()):
        misestimation = CostMisestimation(
            compute_scale=draw(st.sampled_from([0.5, 1.0, 1.7])),
            payload_scale=draw(st.sampled_from([1.0, 1.5])),
            jitter=draw(st.sampled_from([0.0, 0.2])),
        )
    return FaultPlan(
        seed=seed,
        blackouts=blackouts,
        corruption=corruption,
        outages=outages,
        misestimation=misestimation,
    )


@st.composite
def policies(draw) -> "ResiliencePolicy | None":
    if not draw(st.booleans()):
        return None
    return ResiliencePolicy(
        max_retries=draw(st.integers(0, 3)),
        backoff_base=0.02,
        transfer_timeout=draw(st.sampled_from([0.2, 0.5, None])),
        degrade_after_failures=draw(st.integers(1, 3)),
        local_fallback=draw(st.booleans()),
        probe_interval=0.25,
    )


def _workload(deadline):
    return [
        Request(
            client_id=f"c{i % 2}",
            request_id=i,
            model="alexnet",
            arrival=0.35 * i,
            deadline=deadline,
        )
        for i in range(10)
    ]


def _run(plan: FaultPlan, policy, deadline):
    gateway, makespan, clock = serve_one(
        _workload(deadline), scheme="JPS", fault_plan=plan, resilience=policy
    )
    return gateway, makespan, gateway.report(makespan), clock


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=fault_plans(), policy=policies(), deadline=st.sampled_from([None, 1.5]))
def test_accounting_holds_for_every_fault_plan(plan, policy, deadline):
    gateway, _, report, clock = _run(plan, policy, deadline)
    assert accounting_violations(report) == []
    assert clock.violations == []
    # the run drained: no request is stuck behind a retry or probe loop
    assert gateway.outstanding == 0
    counters = report["counters"]
    total = (
        counters.get("served", 0)
        + counters.get("degraded", 0)
        + counters.get("dropped", 0)
    )
    assert total == counters["arrived"] == 10
    # every admitted request has exactly one terminal record
    assert len(gateway.records) == 10
    assert len({r.request_id for r in gateway.records}) == 10


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=fault_plans(), policy=policies(), deadline=st.sampled_from([None, 1.5]))
def test_queue_depths_and_waits_never_negative(plan, policy, deadline):
    _, _, report, _ = _run(plan, policy, deadline)
    for name in ("queue_depth", "queue_wait", "latency"):
        histogram = report["histograms"].get(name)
        if histogram and histogram["count"]:
            assert histogram["min"] >= 0.0


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=fault_plans(), policy=policies(), deadline=st.sampled_from([None, 1.5]))
def test_replay_is_bit_identical(plan, policy, deadline):
    gateway_a, makespan_a, report_a, _ = _run(plan, policy, deadline)
    gateway_b, makespan_b, report_b, _ = _run(plan, policy, deadline)
    assert json.dumps(report_a, sort_keys=True) == json.dumps(
        report_b, sort_keys=True
    )
    assert makespan_a == makespan_b
    assert [(r.request_id, r.outcome, r.latency) for r in gateway_a.records] == [
        (r.request_id, r.outcome, r.latency) for r in gateway_b.records
    ]
