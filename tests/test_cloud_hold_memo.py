"""Property suite: the memoized hold latency is the recomputed one.

``BatchingServer.queue_delay`` keeps the hold's ``batch_latency`` until
the hold changes. Hypothesis drives random submit sequences — solo
times, arrival gaps, deadline slack — through one server or a
least-queued router over 2–4 GPUs, under every batching policy, so that
size flushes, ``max_wait`` timer firings, slack flushes and batch
completions interleave. Before every event and after the drain:

* every GPU's ``queue_delay()`` equals ``backlog_seconds`` plus
  ``model.batch_latency`` of its current hold, recomputed from scratch,
  to the last bit (compared with ``float.hex``), and the router's is the
  minimum over its pool;
* the batch logs, the routing and every member's completion window
  equal those of a reference server that recomputes the hold latency on
  every call.
"""

from __future__ import annotations

import math
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import BATCHING_POLICIES, BatchingServer, CloudGpuModel, LeastQueuedRouter
from repro.sim.engine import Engine


def recomputed_delay(gpu: BatchingServer) -> float:
    """Backlog plus ``batch_latency`` of the current hold, from scratch."""
    delay = gpu.backlog_seconds
    if gpu._hold:
        delay += gpu.model.batch_latency([unit for _, unit, _ in gpu._hold])
    return delay


class RecomputingServer(BatchingServer):
    """The reference: ``batch_latency`` over the whole hold on every call."""

    def queue_delay(self) -> float:
        return recomputed_delay(self)


@st.composite
def scenarios(draw) -> dict:
    return {
        "gpus": draw(st.integers(1, 4)),
        "policy": draw(st.sampled_from(BATCHING_POLICIES)),
        "max_batch": draw(st.integers(1, 8)),
        "max_wait": draw(st.sampled_from([0.0, 0.02, 0.25])),
        "model": CloudGpuModel(
            overhead_fraction=draw(st.sampled_from([0.0, 0.35, 0.9])),
            speedup=draw(st.sampled_from([0.02, 1.0, 3.0])),
        ),
        "submits": draw(
            st.lists(
                st.tuples(
                    st.floats(0.0, 0.3),                   # gap since the last submit
                    st.floats(0.0, 0.05),                  # planner-priced solo time
                    st.sampled_from([math.inf, 0.05, 0.5, 2.0]),  # deadline slack
                ),
                min_size=1,
                max_size=40,
            )
        ),
    }


def replay(scenario: dict, server_type: type) -> dict:
    """Run one scenario; return everything the two servers must agree on."""
    engine = Engine()
    pool = [
        server_type(
            engine,
            model=scenario["model"],
            max_batch=scenario["max_batch"],
            max_wait=scenario["max_wait"],
            policy=scenario["policy"],
            name=f"gpu{k}",
        )
        for k in range(scenario["gpus"])
    ]
    router = LeastQueuedRouter(pool) if len(pool) > 1 else None
    cloud = router or pool[0]
    delays: list[str] = []
    windows: list[tuple[str, float, float]] = []

    def check(_now: float | None = None) -> None:
        for gpu in pool:
            delay = gpu.queue_delay()
            assert delay.hex() == recomputed_delay(gpu).hex()
            delays.append(delay.hex())
        if router is not None:
            assert router.queue_delay().hex() == min(map(recomputed_delay, pool)).hex()

    def done(label: str, start: float, end: float) -> None:
        windows.append((label, start, end))

    engine.on_advance = check
    at = 0.0
    for index, (gap, solo, slack) in enumerate(scenario["submits"]):
        at += gap
        label = f"r{index}"
        engine.schedule(
            at, partial(cloud.submit, label, solo, partial(done, label), slack)
        )
    engine.run()
    check()
    return {
        "delays": delays,
        "windows": windows,
        "batch_logs": [gpu.batch_log for gpu in pool],
        "routed": None if router is None else router.routed,
    }


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_memoized_queue_delay_matches_a_recompute(scenario):
    memo = replay(scenario, BatchingServer)
    reference = replay(scenario, RecomputingServer)
    assert memo == reference
    assert len(memo["windows"]) == len(scenario["submits"])
