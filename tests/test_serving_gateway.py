"""Offload gateway: estimator, admission, dispatch, adaptive re-planning.

The headline test is the PR's acceptance scenario: three Poisson clients
over a trace with a mid-run rate drop must drive at least one adaptive
re-plan, keep the served/dropped/arrived accounting exact, and give JPS
a better p95 than the all-mobile and all-cloud baselines.
"""

import json
from dataclasses import replace

import pytest

from repro.engine import PlanningEngine
from repro.fleet import bandwidth_drop_scenario, run_system
from repro.net.timeline import BandwidthTimeline
from repro.serving import AdaptiveChannelEstimator, Gateway, Request
from repro.utils.units import mbps


# ----------------------------------------------------------------------
# estimator
# ----------------------------------------------------------------------

def test_estimator_recovers_rate_from_clean_sample():
    est = AdaptiveChannelEstimator(initial_bps=mbps(8.0), alpha=1.0)
    # 1 Mbit over 1 second = 1 Mbps, no framing
    sample = est.observe(payload_bytes=125_000, duration=1.0)
    assert sample == pytest.approx(mbps(1.0))
    assert est.estimate_bps == pytest.approx(mbps(1.0))


def test_estimator_backs_out_framing():
    est = AdaptiveChannelEstimator(
        initial_bps=mbps(8.0),
        alpha=1.0,
        setup_latency=0.5,
        header_bytes=1000,
        protocol_overhead=2.0,
    )
    sample = est.observe(payload_bytes=124_000, duration=2.5)
    # (124000 + 1000) * 2 * 8 bits over 2 s of airtime
    assert sample == pytest.approx(1e6)


def test_estimator_ewma_and_drift_gate():
    est = AdaptiveChannelEstimator(
        initial_bps=1e6, alpha=0.5, drift_threshold=0.25, min_observations=3
    )
    # samples at half the planned rate: EWMA converges toward 0.5e6
    for _ in range(2):
        est.observe(payload_bytes=62_500, duration=1.0)   # 0.5 Mbps
    assert est.drift > 0.25
    assert not est.drifted()          # below min_observations
    est.observe(payload_bytes=62_500, duration=1.0)
    assert est.drifted()
    planned = est.rebase()
    assert planned == est.estimate_bps
    assert not est.drifted()


def test_estimator_channel_prices_like_the_link():
    est = AdaptiveChannelEstimator(
        initial_bps=mbps(4.0), setup_latency=0.01, header_bytes=64,
        protocol_overhead=1.1,
    )
    channel = est.channel()
    assert channel.uplink_bps == mbps(4.0)
    assert channel.setup_latency == 0.01
    assert channel.header_bytes == 64
    assert channel.protocol_overhead == 1.1


def test_estimator_validation():
    with pytest.raises(ValueError):
        AdaptiveChannelEstimator(initial_bps=0.0)
    with pytest.raises(ValueError, match="alpha"):
        AdaptiveChannelEstimator(initial_bps=1e6, alpha=1.5)
    est = AdaptiveChannelEstimator(initial_bps=1e6, setup_latency=1.0)
    with pytest.raises(ValueError, match="setup latency"):
        est.observe(payload_bytes=100.0, duration=0.5)


# ----------------------------------------------------------------------
# the acceptance scenario
# ----------------------------------------------------------------------

def serve_schemes() -> dict:
    """The acceptance scenario under JPS, LO and CO on one shared planner."""
    config, planner = bandwidth_drop_scenario(), PlanningEngine()
    return {
        scheme: run_system(replace(config, scheme=scheme), planner=planner).as_dict()
        for scheme in ("JPS", "LO", "CO")
    }


def gateway(document: dict) -> dict:
    return document["servers"]["gateway"]["report"]


@pytest.fixture(scope="module")
def acceptance_report():
    return serve_schemes()


def test_acceptance_accounting_balances(acceptance_report):
    for scheme, document in acceptance_report.items():
        arrivals = document["arrivals"]
        assert arrivals > 0
        data = gateway(document)
        counters = data["counters"]
        assert data["balance_ok"], scheme
        assert data["pending"] == 0
        assert counters["served"] + counters.get("dropped", 0) == arrivals
        assert counters["arrived"] == arrivals


def test_acceptance_triggers_adaptive_replan(acceptance_report):
    jps = gateway(acceptance_report["JPS"])
    assert jps["counters"]["replans"] >= 1
    assert len(jps["replans"]) == jps["counters"]["replans"]
    first = jps["replans"][0]
    # the re-plan reacts to the 8 -> 4 Mbps drop: estimate moved down
    assert first["new_bps"] < first["old_bps"]
    assert first["drift"] > 0.25


def test_acceptance_jps_beats_baselines_at_p95(acceptance_report):
    p95 = {
        scheme: gateway(document)["histograms"]["latency"]["p95"]
        for scheme, document in acceptance_report.items()
    }
    assert p95["JPS"] < p95["LO"]
    assert p95["JPS"] < p95["CO"]


def test_acceptance_report_is_json_serializable(acceptance_report):
    encoded = json.dumps(acceptance_report, sort_keys=True)
    assert "engine_cache" in encoded


def test_acceptance_is_deterministic(acceptance_report):
    again = serve_schemes()
    # engine cache counters differ run to run (fresh planner), drop them
    def strip(report):
        return {
            scheme: {k: v for k, v in gateway(document).items() if k != "engine_cache"}
            for scheme, document in report.items()
        }

    assert strip(again) == strip(acceptance_report)


# ----------------------------------------------------------------------
# admission control and dispatch mechanics
# ----------------------------------------------------------------------

def flat_timeline(rate_mbps: float = 8.0) -> BandwidthTimeline:
    return BandwidthTimeline.steps_mbps([(0.0, rate_mbps)])


def requests_at(times, model="alexnet", deadline=None):
    return [
        Request(
            client_id="c0", request_id=i, model=model, arrival=t, deadline=deadline
        )
        for i, t in enumerate(times)
    ]


def test_queue_bound_rejects_excess():
    gateway = Gateway(flat_timeline(), scheme="LO", max_queue_depth=2)
    # a burst of 10 simultaneous requests; LO service time >> 0, so at
    # most 1 running + 2 queued are admitted before the bound trips
    result = gateway.run(requests_at([0.0] * 10))
    counters = result.metrics.snapshot()["counters"]
    assert counters["arrived"] == 10
    assert counters["dropped_queue_full"] > 0
    assert counters["served"] + counters["dropped"] == 10
    outcomes = {r.outcome for r in result.records}
    assert outcomes == {"served", "rejected"}


def test_deadline_expiry_drops_queued_work():
    gateway = Gateway(flat_timeline(), scheme="LO", max_queue_depth=64)
    # back-to-back arrivals with a deadline shorter than one service
    # time: whoever queues behind the first job expires before starting
    result = gateway.run(requests_at([0.0] * 5, deadline=0.05))
    counters = result.metrics.snapshot()["counters"]
    assert counters["dropped_deadline"] > 0
    assert counters["served"] + counters["dropped"] == counters["arrived"]
    assert any(r.outcome == "expired" for r in result.records)


def test_served_records_match_counters():
    gateway = Gateway(flat_timeline(), scheme="JPS")
    result = gateway.run(requests_at([0.0, 0.1, 0.2, 0.3]))
    counters = result.metrics.snapshot()["counters"]
    served = [r for r in result.records if r.outcome == "served"]
    assert len(served) == counters["served"] == 4
    assert all(r.latency is not None and r.latency > 0 for r in served)
    assert result.pending == 0


def test_baselines_never_replan():
    for scheme in ("LO", "CO"):
        gateway = Gateway(
            BandwidthTimeline.steps_mbps([(0.0, 8.0), (1.0, 2.0)]), scheme=scheme
        )
        result = gateway.run(requests_at([0.1 * i for i in range(20)]))
        assert result.replan_events == []
        assert "replans" not in result.metrics.snapshot()["counters"]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        Gateway(flat_timeline(), scheme="FIFO")


def test_shared_planner_reuses_structure_across_schemes():
    planner = PlanningEngine()
    for scheme in ("JPS", "LO", "CO"):
        Gateway(flat_timeline(), planner=planner, scheme=scheme).run(
            requests_at([0.0, 0.5])
        )
    totals = planner.stats_snapshot()["totals"]
    # one structure + table build for the first scheme, warm hits after
    assert totals["hits"] >= 2
    assert totals["hit_rate"] >= 0.5


def test_frontier_model_serves_end_to_end():
    gateway = Gateway(flat_timeline(18.88), scheme="JPS", nominal_burst=4)
    result = gateway.run(requests_at([0.0, 0.2, 0.4], model="nin"))
    counters = result.metrics.snapshot()["counters"]
    assert counters["served"] == 3


def test_mobile_stage_reuses_cpu_before_upload_finishes():
    """Pipelining: total makespan < sum of per-job (f + g) serial time."""
    gateway = Gateway(flat_timeline(4.0), scheme="JPS")
    result = gateway.run(requests_at([0.0] * 6))
    serial = sum(
        r.latency for r in result.records if r.latency is not None
    )
    assert result.makespan < serial


def test_mass_expiry_burst_drains_every_queued_head():
    """Regression for the quadratic expiry drain: one dispatch pass after
    the anchor job completes must drop every expired head straight off
    the expiry heap, with exact accounting across many clients."""
    clients = 40
    requests = [
        Request(
            client_id=f"c{i}",
            request_id=i,
            model="alexnet",
            arrival=0.0,
            deadline=None if i == 0 else 0.05,
        )
        for i in range(clients)
    ]
    gateway = Gateway(flat_timeline(), scheme="JPS", max_queue_depth=4)
    result = gateway.run(requests)
    counters = result.metrics.snapshot()["counters"]
    assert counters["arrived"] == clients
    # c0 (no deadline) runs; every other client's lone request expires
    # while the CPU is busy, long before its turn comes up
    assert counters["served"] == 1
    assert counters["dropped_deadline"] == clients - 1
    assert counters["served"] + counters["dropped"] == counters["arrived"]
    expired = {r.client_id for r in result.records if r.outcome == "expired"}
    assert expired == {f"c{i}" for i in range(1, clients)}
    assert result.pending == 0
