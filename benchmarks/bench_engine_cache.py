"""Engine cache economics: cold vs warm planning.

A warm :class:`~repro.engine.PlanningEngine` re-plans for pennies: the
structure phase (graph linearization, frontier enumeration) is
memoized, so a repeat ``plan()`` pays only the O(log k) search plus the
Johnson sort. The recorded artifact is ``engine_cache.txt``.
"""

from __future__ import annotations

import time

from repro.engine import PlanningEngine
from repro.experiments.runner import EXPERIMENT_MODELS
from repro.net.bandwidth import TrafficShaper
from repro.net.channel import Channel
from repro.utils.units import mbps

#: Warm-over-cold factor the engine must deliver on a frontier model.
MIN_WARM_SPEEDUP = 5.0


def make_channel(uplink_mbps: float) -> Channel:
    return Channel(
        shaper=TrafficShaper(
            uplink_bps=mbps(uplink_mbps), downlink_bps=mbps(2 * uplink_mbps)
        )
    )


def time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_cold_vs_warm_plan(save_artifact):
    channel = make_channel(10.0)
    lines = [
        "planning engine: cold vs warm plan() (n=100, 10 Mbps)",
        f"{'model':<14s} {'cold (ms)':>10s} {'warm (ms)':>10s} {'speedup':>8s}",
    ]
    speedups: dict[str, float] = {}
    for model in EXPERIMENT_MODELS:
        engine = PlanningEngine()
        cold = time_once(lambda: engine.plan(model, 100, channel))
        warm_samples = [
            time_once(lambda: engine.plan(model, 100, channel)) for _ in range(5)
        ]
        warm = sorted(warm_samples)[len(warm_samples) // 2]
        speedups[model] = cold / warm
        lines.append(
            f"{model:<14s} {cold * 1e3:>10.2f} {warm * 1e3:>10.3f} "
            f"{speedups[model]:>7.1f}x"
        )
        totals = engine.stats_snapshot()["totals"]
        assert totals["hits"] > 0 and totals["hit_rate"] > 0.0
    save_artifact("engine_cache", "\n".join(lines))
    # the headline acceptance: frontier-structure GoogLeNet, warm >= 5x cold.
    # Line models skip only a ~2 ms linearization, so their ratio is noise-
    # bound and is recorded rather than asserted.
    assert speedups["googlenet"] >= MIN_WARM_SPEEDUP
