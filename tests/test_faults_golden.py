"""Golden file: the canonical blackout → degrade → recover scenario.

:func:`repro.fleet.blackout_fleet_scenario` runs with its no-policy
comparison and single-gateway trace lanes; the policy pass runs under a
tracer, and its replan event log, the degrade/recover/replan instant
markers from the exported Chrome trace, and the span-structure census
must byte-match ``tests/data/golden_fault_scenario.json``. A structural
test (degrade strictly inside the blackout, recovery strictly after it)
cross-checks the same artifact against the scenario's physics, so the
golden file cannot silently drift into agreement with a broken
policy state machine. Regenerate with
``python -m tests.test_faults_golden`` after an intentional change.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from repro.fleet import ObservabilityConfig, run_system
from repro.obs import Tracer, chrome_trace_events, validate_chrome_events
from tests.helpers import compared_blackout

GOLDEN = Path(__file__).parent / "data" / "golden_fault_scenario.json"

#: Instant events that tell the scenario's story in the trace.
MARKER_NAMES = ("gateway/degrade", "gateway/recover", "gateway/replan")


def golden_document() -> dict:
    """The pinned artifact: replan log + trace markers + span census."""
    config = replace(
        compared_blackout(),
        # unprefixed request/event lanes, no fleet markers
        observability=ObservabilityConfig(per_server_lanes=False, fleet_events=False),
    )
    tracer = Tracer()
    report = run_system(config, tracer=tracer).as_dict()
    events = chrome_trace_events(tracer.spans, tracer.instants)
    validate_chrome_events(events)
    span_counts: Counter = Counter()
    for event in events:
        if event["ph"] == "X":
            name = event["name"]
            if name.startswith("request "):
                name = "request"
            span_counts[name] += 1
    markers = [
        {"name": e["name"], "ts": e["ts"], "args": e.get("args", {})}
        for e in events
        if e["ph"] == "i" and e["name"] in MARKER_NAMES
    ]
    return {
        "blackout": report["config"]["faults"]["plan"]["blackouts"][0],
        "comparison": report["comparison"],
        "replans": report["servers"]["server0"]["report"]["replans"],
        "markers": markers,
        "span_counts": dict(sorted(span_counts.items())),
    }


def test_golden_fault_scenario_matches_file():
    document = json.loads(json.dumps(golden_document(), sort_keys=True))
    assert document == json.loads(GOLDEN.read_text())


def test_golden_story_is_physically_consistent():
    """The pinned markers must obey the scenario's timeline."""
    document = json.loads(GOLDEN.read_text())
    blackout_start, blackout_end = document["blackout"]
    by_name = {}
    for marker in document["markers"]:
        by_name.setdefault(marker["name"], []).append(marker)
    degrade = by_name["gateway/degrade"][0]
    recover = by_name["gateway/recover"][0]
    # degradation is detected inside the blackout (after >= 1 timeout),
    # recovery only after the channel is back (ts is microseconds)
    assert blackout_start * 1e6 < degrade["ts"] < blackout_end * 1e6
    assert recover["ts"] > blackout_end * 1e6
    assert degrade["ts"] < recover["ts"]
    # the replan log tells the same story in the same order
    kinds = [event.get("kind") for event in document["replans"]]
    assert kinds.index("degrade") < kinds.index("recovery")
    recovery_event = document["replans"][kinds.index("recovery")]
    assert recovery_event["time"] > blackout_end
    assert recovery_event["new_bps"] is not None


def test_golden_span_structure_covers_degraded_service():
    document = json.loads(GOLDEN.read_text())
    counts = document["span_counts"]
    # every completed request contributes a lifecycle + queue span pair
    assert counts["request"] == counts["queue"] > 0
    assert counts["compute"] == counts["request"]
    # some requests were served via uplink + cloud, some degraded locally
    assert 0 < counts["transfer"] < counts["request"]
    assert counts.get("fallback", 0) > 0
    assert counts["faults/policy"] == 1


def main() -> int:
    GOLDEN.write_text(
        json.dumps(golden_document(), indent=1, sort_keys=True) + "\n"
    )
    print(f"golden fault scenario -> {GOLDEN}")
    return 0


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.exit(main())
