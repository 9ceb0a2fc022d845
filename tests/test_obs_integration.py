"""Observability threaded through the stack: engine, gateway, CLI.

These tests exercise the *instrumented* code paths end to end: a cold
plan must show its table builds as nested spans (and a warm plan must
not), a traced serving scenario must emit one lifecycle span family per
served request plus re-plan instants, and ``repro trace`` must write a
schema-valid Chrome trace from a real run.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.engine import PlanningEngine
from repro.fleet import bandwidth_drop_scenario, run_system
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.obs import (
    Tracer,
    exposition_from_snapshot,
    parse_prometheus,
    validate_chrome_events,
    well_formed,
)
from repro.obs.metrics import MetricsRegistry
from repro.utils.units import mbps


def make_channel(uplink_mbps: float) -> Channel:
    return Channel(
        shaper=TrafficShaper(
            uplink_bps=mbps(uplink_mbps), downlink_bps=mbps(2 * uplink_mbps)
        )
    )


def small_scenario():
    return bandwidth_drop_scenario(clients=1, rate=1.0, horizon=10.0)


def traced_run(config, tracer):
    """One run with the planner sharing the tracer, as ``repro trace`` does."""
    report = run_system(config, planner=PlanningEngine(tracer=tracer), tracer=tracer)
    return report.servers["gateway"]["report"]


# ----------------------------------------------------------------------
# PlanningEngine spans + metrics bridge
# ----------------------------------------------------------------------


def test_cold_plan_nests_build_spans_warm_plan_does_not():
    engine = PlanningEngine(tracer=Tracer())
    channel = make_channel(10.0)
    engine.plan("alexnet", 8, channel)
    cold = [s for s in engine.tracer.spans if s.name == "engine/plan"]
    assert len(cold) == 1
    builds = [s for s in engine.tracer.spans if s.name == "engine/build"]
    assert builds, "a cold plan must build at least one structure/table"
    # builds chain up to the plan span (a table build contains the
    # structure build it triggered)
    by_id = {s.span_id: s for s in engine.tracer.spans}
    for build in builds:
        ancestor = by_id[build.parent_id]
        while ancestor.name == "engine/build":
            ancestor = by_id[ancestor.parent_id]
        assert ancestor is cold[0]
    kinds = {b.attributes["kind"] for b in builds}
    assert kinds <= {
        "line_structure", "frontier_structure", "line_table",
        "frontier_table", "alg3_plans",
    }

    before = len(engine.tracer.spans)
    engine.plan("alexnet", 8, channel)  # warm: every cache hits
    new = engine.tracer.spans[before:]
    assert [s.name for s in new] == ["engine/plan"]
    assert well_formed(engine.tracer.spans) == []


def test_engine_to_metrics_publishes_cache_gauges():
    engine = PlanningEngine()
    engine.plan("alexnet", 8, make_channel(10.0))
    registry = engine.to_metrics(MetricsRegistry())
    gauges = registry.snapshot()["gauges"]
    totals = engine.stats_snapshot()["totals"]
    assert gauges["engine_cache_misses"] == totals["misses"]
    assert gauges["engine_cache_hits"] == totals["hits"]
    assert any(key.startswith("engine_cache_misses{layer=") for key in gauges)
    # gauges are set, not accumulated: re-publishing overwrites
    engine.plan("alexnet", 8, make_channel(10.0))
    refreshed = engine.to_metrics(registry).snapshot()["gauges"]
    assert refreshed["engine_cache_hits"] == engine.stats_snapshot()["totals"]["hits"]


# ----------------------------------------------------------------------
# traced serving scenario
# ----------------------------------------------------------------------


def test_traced_scenario_emits_lifecycle_span_per_served_request():
    tracer = Tracer()
    served = traced_run(small_scenario(), tracer)["counters"]["served"]
    assert served > 0

    requests = [s for s in tracer.spans if s.name.startswith("request ")]
    assert len(requests) == served
    children_of = {}
    for span in tracer.spans:
        children_of.setdefault(span.parent_id, []).append(span)
    for request in requests:
        names = {c.name for c in children_of.get(request.span_id, [])}
        assert {"queue", "compute", "transfer"} <= names
        assert request.attributes["latency"] > 0
        assert request.lane == (f"req {request.attributes['request_id']}", "lifecycle")

    # planner table builds share the trace: the planner carries the run's
    # tracer, so its cold-cache builds land alongside the virtual-time
    # gateway spans
    assert any(s.name == "engine/build" for s in tracer.spans)
    assert well_formed(tracer.spans) == []
    events = tracer.chrome_trace()
    assert validate_chrome_events(events) == len(events)


def test_traced_scenario_records_replan_instants():
    tracer = Tracer()
    report = traced_run(bandwidth_drop_scenario(), tracer)
    replans = [i for i in tracer.instants if i.name == "gateway/replan"]
    assert len(replans) == len(report["replans"])
    assert replans, "the acceptance scenario must trigger a re-plan"
    for instant, logged in zip(replans, report["replans"]):
        assert instant.timestamp == logged["time"]
        assert instant.attributes["new_bps"] == logged["new_bps"]
        assert instant.lane == ("gateway", "events")


def test_report_gauges_round_trip_through_exposition():
    scheme_report = run_system(small_scenario()).servers["gateway"]["report"]
    assert any(k.startswith("engine_cache_") for k in scheme_report["gauges"])
    samples = parse_prometheus(exposition_from_snapshot(scheme_report))
    assert samples["repro_served_total"] == scheme_report["counters"]["served"]
    assert samples["repro_engine_cache_hits"] == scheme_report["gauges"][
        "engine_cache_hits"
    ]


def test_untraced_scenario_still_reports():
    """The NullTracer default keeps the plain path working unchanged."""
    report = run_system(small_scenario())
    assert report.servers["gateway"]["report"]["balance_ok"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_trace_experiment_writes_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "experiment", "--out", str(out)]) == 0
    events = json.loads(out.read_text())
    assert validate_chrome_events(events) == len(events)
    cells = [e for e in events if e["ph"] == "X"]
    assert cells and all(e["name"] == "experiment/cell" for e in cells)
    assert {e["args"]["model"] for e in cells} == {"alexnet", "googlenet"}
    processes = {
        e["args"]["name"] for e in events if e.get("name") == "process_name"
    }
    assert processes == {"experiments"}
    assert "perfetto" in capsys.readouterr().out


def test_cli_trace_experiment_rejects_prom(tmp_path, capsys):
    code = main(
        ["trace", "experiment", "--out", str(tmp_path / "t.json"), "--prom", "-"]
    )
    assert code == 2
    assert "serving" in capsys.readouterr().err
