"""Every ``PlanningEngine`` cache counter, locked to a recorded snapshot.

The fleet reports publish the engine's per-layer hit, miss, eviction
and entry counts as ``engine_cache_*`` gauges, and the fleet digests
hash those reports. So a change to how the engine reaches its caches
must leave every count exactly where it was. This test replays one
fixed call script over every public entry point (``plan``,
``plan_batch``, ``priced_table``, ``pricing_kernel``, ``cost_table``
and the three per-kind tables), the on-device scheduler's four
schemes, a ``clear()`` and an evicting two-entry engine, and compares
``stats()`` after each phase with the counts recorded before the
engine's table and dispatch code was unified.

To print the counts for a new snapshot (only for an intended change of
caching, with the reason in CHANGES.md)::

    PYTHONPATH=src python tests/test_engine_counters.py
"""

from __future__ import annotations

import json

from repro.engine import PlanningEngine
from repro.net.channel import as_channel
from repro.nn.zoo import get_model
from repro.profiling.device import raspberry_pi_4
from repro.profiling.lookup import build_lookup_table
from repro.profiling.regression import CommLatencyModel
from repro.runtime.scheduler_runtime import OnDeviceScheduler
from repro.utils.units import mbps

#: one line, one frontier and one DAG model under ``auto``
MODELS = ("alexnet", "googlenet", "inception-v4")
SCHEMES = ("JPS", "LO", "CO", "PO")
KINDS = ("line", "frontier", "dag")
MBPS = (3.0, 10.0)
N = 6


def _tables_and_plans(engine: PlanningEngine) -> None:
    for model in MODELS:
        for rate in MBPS:
            channel = as_channel(rate)
            for scheme in SCHEMES:
                engine.plan(model, N, channel, scheme=scheme)
            for kind in KINDS:
                engine.plan(model, N, channel, structure=kind)
                engine.cost_table(model, channel, structure=kind)
            engine.cost_table(model, channel)
            engine.line_table(model, channel)
            engine.frontier_table(model, channel)
            engine.dag_table(model, channel)
        rates = [mbps(rate) for rate in MBPS]
        for structure in ("auto",) + KINDS:
            for scheme in SCHEMES:
                engine.plan_batch(model, N, rates, scheme=scheme, structure=structure)
            engine.priced_table(model, rates[0], structure=structure)
            engine.pricing_kernel(model, structure=structure)
            engine.pricing_kernel(model, structure=structure, protocol_overhead=1.1)
    # Alg. 3 on the two models whose path sets stay small
    for model in MODELS[:2]:
        engine.plan(model, N, as_channel(MBPS[0]), structure="paths")
        engine.plan_batch(model, N, [mbps(MBPS[1])], structure="paths")


def _scheduler(engine: PlanningEngine) -> None:
    networks = [get_model(model) for model in MODELS]
    scheduler = OnDeviceScheduler(
        mobile=engine.mobile,
        engine=engine,
        lookup=build_lookup_table(networks, raspberry_pi_4(), seed=0),
        comm_model=CommLatencyModel(w0=0.01, w1=8.0, fitted=True),
    )
    for network in networks:
        for scheme in SCHEMES:
            for rate in MBPS:
                scheduler.plan(network, N, mbps(rate), scheme=scheme)


def _evicting() -> PlanningEngine:
    engine = PlanningEngine(max_entries=2)
    for _ in range(2):
        for model in MODELS[:2]:
            for rate in (1.0, 2.0, 4.0):
                engine.plan(model, N, as_channel(rate))
                engine.plan(model, N, as_channel(rate), scheme="LO")
            engine.priced_table(model, mbps(5.0))
            engine.plan_batch(model, N, [mbps(7.0)], structure="line")
    return engine


def run_phases() -> dict[str, dict]:
    """``stats()`` after each phase of the script."""
    engine = PlanningEngine()
    _tables_and_plans(engine)
    phases = {"tables_and_plans": engine.stats()}
    _scheduler(engine)
    phases["scheduler"] = engine.stats()
    engine.clear()
    _tables_and_plans(engine)
    phases["after_clear"] = engine.stats()
    phases["evicting"] = _evicting().stats()
    return phases


#: ``run_phases()`` as recorded before the unification: per phase and
#: layer, ``(hits, misses, evictions, entries)``.
SNAPSHOT: dict[str, dict[str, tuple[int, int, int, int]]] = {
    "tables_and_plans": {
        "alg3_plans": (0, 4, 0, 4),
        "dag_structure": (9, 3, 0, 3),
        "dag_tables": (22, 6, 0, 6),
        "frontier_structure": (9, 3, 0, 3),
        "frontier_tables": (22, 6, 0, 6),
        "line_structure": (9, 3, 0, 3),
        "line_tables": (22, 6, 0, 6),
        "pricing_kernels": (66, 18, 0, 18),
    },
    "scheduler": {
        "alg3_plans": (0, 4, 0, 4),
        "dag_structure": (10, 4, 0, 4),
        "dag_tables": (22, 8, 0, 8),
        "frontier_structure": (10, 4, 0, 4),
        "frontier_tables": (22, 8, 0, 8),
        "line_structure": (12, 6, 0, 6),
        "line_tables": (36, 12, 0, 12),
        "pricing_kernels": (66, 18, 0, 18),
    },
    "after_clear": {
        "alg3_plans": (0, 8, 0, 4),
        "dag_structure": (19, 7, 0, 3),
        "dag_tables": (44, 14, 0, 6),
        "frontier_structure": (19, 7, 0, 3),
        "frontier_tables": (44, 14, 0, 6),
        "line_structure": (21, 9, 0, 3),
        "line_tables": (58, 18, 0, 6),
        "pricing_kernels": (132, 36, 0, 18),
    },
    "evicting": {
        "alg3_plans": (0, 0, 0, 0),
        "dag_structure": (0, 0, 0, 0),
        "dag_tables": (0, 0, 0, 0),
        "frontier_structure": (7, 1, 0, 1),
        "frontier_tables": (6, 6, 4, 2),
        "line_structure": (8, 2, 0, 2),
        "line_tables": (6, 6, 4, 2),
        "pricing_kernels": (2, 6, 4, 2),
    },
}


def counts(stats: dict[str, dict]) -> dict[str, tuple[int, int, int, int]]:
    return {
        layer: (s["hits"], s["misses"], s["evictions"], s["entries"])
        for layer, s in stats.items()
    }


def test_every_engine_counter_matches_the_snapshot():
    phases = {phase: counts(stats) for phase, stats in run_phases().items()}
    assert phases == SNAPSHOT
    assert phases["evicting"]["line_tables"][2] > 0  # the phase evicts


if __name__ == "__main__":
    print(json.dumps({p: counts(s) for p, s in run_phases().items()}, indent=1))
