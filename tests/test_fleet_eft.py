"""EFT placement: golden report bytes and parity with the per-server scorer.

``tests/data/golden_eft_reports.json`` holds the sorted-JSON
``SystemReport.as_dict()`` of two small EFT fleets, captured from the
per-server scorer that priced one server at a time:

* ``pooled`` — eight homogeneous servers sharing a least-queued pool of
  two hold-and-batch GPUs (the benchmark's ``eft_placement`` shape,
  shortened);
* ``heterogeneous`` — ``default_fleet(speedups=(1.0, 2.0))`` with no
  cloud, so the two servers price through separate planners.

The reports embed the planners' ``engine_cache_*`` gauges, so the lock
also pins the number of pricing-kernel lookups the scorer makes (one
per server per arrival). Regenerate with ``python -m tests.test_fleet_eft``
only after an intentional behavior change.

The property test runs randomized EFT fleets with every placement
checked against :func:`reference_eft`, the per-server scorer the
batched pass replaced (one ``priced_table`` + Python cut loop + queue
read per server): the same server and the same ``eft`` float, bit for
bit, under heterogeneous planners, mixed ``include_cloud``, every cloud
wiring, and estimator rates moved by ``observe`` between arrivals.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import CloudConfig, CloudGpuModel
from repro.engine import PlanningEngine
from repro.fleet import (
    FleetGateway,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    default_fleet,
    run_system,
)
from repro.profiling.device import gtx1080_server
from repro.serving import generate_requests
from repro.serving.workload import ClientSpec

GOLDEN = Path(__file__).parent / "data" / "golden_eft_reports.json"


def golden_configs() -> dict:
    pooled = default_fleet(
        servers=8, clients=32, rate=2.0, horizon=2.0, seed=0, placement="eft"
    )
    pooled = replace(
        pooled,
        cloud=CloudConfig(
            gpus=2,
            max_batch=8,
            max_wait=0.25,
            policy="batch",
            assignment="least_queued",
            model=CloudGpuModel(
                name="contended-gpu", overhead_fraction=0.9, speedup=0.02
            ),
        ),
    )
    heterogeneous = default_fleet(
        servers=2,
        clients=8,
        rate=2.0,
        horizon=6.0,
        seed=0,
        speedups=(1.0, 2.0),
        placement="eft",
    )
    return {"pooled": pooled, "heterogeneous": heterogeneous}


def golden_text() -> str:
    document = {
        name: run_system(config).as_dict()
        for name, config in golden_configs().items()
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_eft_reports_match_the_golden_bytes():
    assert golden_text() == GOLDEN.read_text()


# ----------------------------------------------------------------------
# parity with the per-server scorer
# ----------------------------------------------------------------------

# warm fleet planners shared across examples (scaled servers build their
# own): the stock GPU, and one slow enough that the cloud rest moves the
# single-job cut, so include_cloud matters on servers sharing a kernel
PLANNERS = (PlanningEngine(), PlanningEngine(cloud=gtx1080_server().scaled(0.01)))


def reference_eft(placer, request) -> tuple[str, float]:
    """The per-server EFT scorer, kept as the oracle of the batched pass."""
    best = None
    best_eft = None
    for name in placer._order:
        server = placer.servers[name]
        estimator = server.estimator
        table = server.planner.priced_table(
            request.model,
            estimator.estimate_bps,
            setup_latency=estimator.setup_latency,
            header_bytes=estimator.header_bytes,
            protocol_overhead=estimator.protocol_overhead,
        ).table
        totals = table.f + table.g
        if server.include_cloud:
            totals = totals + np.array([table.cloud_rest(i) for i in range(table.k)])
        cut = int(np.argmin(totals))
        f, g = table.stage_lengths(cut)
        eft = server.outstanding * f + (f + g + table.cloud_rest(cut))
        cloud = placer.cloud_of.get(name)
        if cloud is not None:
            eft += cloud.queue_delay()
        if best_eft is None or eft < best_eft:
            best, best_eft = name, eft
    assert best is not None and best_eft is not None
    return best, best_eft


@st.composite
def eft_fleets(draw) -> SystemConfig:
    servers = tuple(
        ServerSpec(
            name=f"s{index}",
            bandwidth_steps=((0.0, draw(st.sampled_from([2.0, 8.0, 30.0]))),),
            mobile_speedup=draw(st.sampled_from([1.0, 1.0, 0.5, 2.0])),
            cloud_speedup=draw(st.sampled_from([1.0, 1.0, 4.0])),
            include_cloud=draw(st.booleans()),
        )
        for index in range(draw(st.integers(1, 5)))
    )
    clients = tuple(
        ClientSpec(
            name=f"c{i}",
            model=draw(st.sampled_from(["alexnet", "squeezenet", "multitask-perception"])),
            rate=draw(st.sampled_from([1.0, 3.0])),
            deadline=draw(st.sampled_from([None, 1.0])),
        )
        for i in range(draw(st.integers(1, 6)))
    )
    wiring = draw(st.sampled_from(["none", "round_robin", "least_queued"]))
    cloud = None
    if wiring != "none":
        cloud = CloudConfig(
            gpus=draw(st.integers(1, 3)),
            max_batch=4,
            max_wait=0.1,
            assignment=wiring,
            model=CloudGpuModel(overhead_fraction=0.9, speedup=0.05),
        )
    return SystemConfig(
        workload=WorkloadConfig(
            clients=clients, horizon=3.0, seed=draw(st.integers(0, 2**31 - 1))
        ),
        servers=servers,
        placement=PlacementConfig(policy="eft"),
        cloud=cloud,
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    config=eft_fleets(),
    slow_cloud=st.booleans(),
    nudges=st.lists(
        st.tuples(st.integers(0, 4), st.floats(0.5, 50.0)), max_size=8
    ),
)
def test_batched_eft_matches_the_per_server_scorer(config, slow_cloud, nudges):
    fleet = FleetGateway(config, planner=PLANNERS[slow_cloud])
    placer = fleet.placer
    place = placer.place
    decisions = []

    def checked_place(request, now):
        # before some arrivals, move one estimator's rate with a probe
        # upload sized to a drawn target rate
        if len(decisions) < len(nudges):
            index, target_mbps = nudges[len(decisions)]
            estimator = placer.servers[placer._order[index % len(placer._order)]].estimator
            payload = 100_000.0
            wire_bits = (payload + estimator.header_bytes) * estimator.protocol_overhead * 8
            estimator.observe(
                payload, estimator.setup_latency + wire_bits / (target_mbps * 1e6)
            )
        expected = reference_eft(placer, request)
        name = place(request, now)
        assert (name, placer.last_decision["eft"]) == expected
        decisions.append(name)
        return name

    placer.place = checked_place
    workload = config.workload
    fleet.run(generate_requests(list(workload.clients), workload.horizon, workload.seed))
    assert len(decisions) == fleet.metrics.counter("arrived").value


def main() -> int:
    GOLDEN.write_text(golden_text())
    print(f"golden EFT reports -> {GOLDEN}")
    return 0


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.exit(main())
