"""fig_serving: offered load × bandwidth sweep of the offload gateway.

The paper's figures compare schemes on one closed batch; this harness
asks the serving question instead: *at what offered load does each
scheme stop keeping up?* For every (bandwidth preset, per-client rate)
cell the same Poisson request stream is served under each scheme and we
record throughput, p95 latency, and drop rate. A cell counts as
**sustainable** when nothing was dropped and the p95 latency stays under
``SUSTAINABLE_P95_S`` — a queueing-stability proxy: an overloaded
gateway's tail grows with the horizon, a stable one's does not.

All cells share one :class:`~repro.engine.PlanningEngine`, so the sweep
is also a cache workout: only the first cell of a model pays the
structure build, every re-plan after that is a priced-table miss.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine import PlanningEngine
from repro.fleet import default_fleet, run_system
from repro.utils.rng import DEFAULT_SEED

__all__ = ["run", "render", "LOADS", "PRESETS_MBPS", "SUSTAINABLE_P95_S"]

#: Per-client Poisson rates (req/s) swept on the x-axis.
LOADS = (0.5, 1.0, 2.0)

#: Constant uplink rates per preset (§6.1's wondershaper settings).
PRESETS_MBPS = {"3G": 1.1, "4G": 5.85, "Wi-Fi": 18.88}

#: p95 latency bound (s) under which a drop-free cell counts sustainable.
SUSTAINABLE_P95_S = 2.0

SCHEMES = ("JPS", "LO", "CO")


def run(
    model: str = "alexnet",
    clients: int = 3,
    horizon: float = 30.0,
    loads: tuple[float, ...] = LOADS,
    presets: dict[str, float] | None = None,
    seed: int = DEFAULT_SEED,
    planner: PlanningEngine | None = None,
) -> dict:
    """Sweep the grid; returns a JSON-safe document."""
    presets = presets or PRESETS_MBPS
    planner = planner or PlanningEngine()
    cells: list[dict] = []
    for preset, rate_mbps in presets.items():
        for load in loads:
            config = default_fleet(
                servers=1,
                clients=clients,
                rate=load,
                horizon=horizon,
                model=model,
                mbps=rate_mbps,
                deadline=None,
                seed=seed,
            )
            reports = {
                scheme: run_system(replace(config, scheme=scheme), planner=planner)
                for scheme in SCHEMES
            }
            cell: dict = {
                "preset": preset,
                "mbps": rate_mbps,
                "load_per_client": load,
                "offered_rps": reports[SCHEMES[0]].offered_load_rps,
                "schemes": {},
            }
            for scheme, report in reports.items():
                ((_, block),) = report.servers.items()
                data = block["report"]
                latency = data["histograms"]["latency"]
                counters = data["counters"]
                dropped = counters.get("dropped", 0)
                p95 = latency["p95"]
                cell["schemes"][scheme] = {
                    "throughput_rps": data["throughput_rps"],
                    "p95_latency_s": p95,
                    "drop_rate": dropped / max(counters.get("arrived", 1), 1),
                    "sustainable": dropped == 0 and p95 <= SUSTAINABLE_P95_S,
                }
            cells.append(cell)
    return {
        "model": model,
        "clients": clients,
        "horizon": horizon,
        "sustainable_p95_s": SUSTAINABLE_P95_S,
        "cells": cells,
        "engine_cache": planner.stats_snapshot()["totals"],
    }


def render(document: dict) -> str:
    """ASCII table: one row per (preset, load), one column group per scheme."""
    lines = [
        f"fig_serving — {document['model']}, {document['clients']} clients, "
        f"horizon {document['horizon']:g}s "
        f"(sustainable: no drops and p95 <= {document['sustainable_p95_s']:g}s)",
        f"{'preset':<7s} {'load':>6s} "
        + " ".join(f"{s + ' thr/p95':>18s}" for s in SCHEMES),
    ]
    for cell in document["cells"]:
        row = f"{cell['preset']:<7s} {cell['offered_rps']:>5.1f}/s"
        for scheme in SCHEMES:
            data = cell["schemes"][scheme]
            mark = "*" if data["sustainable"] else " "
            row += (
                f" {data['throughput_rps']:>7.2f} {data['p95_latency_s']:>8.2f}s{mark}"
            )
        lines.append(row)
    totals = document["engine_cache"]
    lines.append(
        f"engine cache: {totals['hits']} hits / {totals['misses']} misses "
        f"(hit rate {totals['hit_rate']:.2f})"
    )
    return "\n".join(lines)
