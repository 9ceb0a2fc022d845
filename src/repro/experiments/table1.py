"""Table 1 — latency reduction of PO and JPS relative to local-only (%).

The paper's headline comparison: for each (model, bandwidth) cell, how
much of LO's latency does each offloading scheme remove. Expected
shape: zeros for PO wherever offloading cannot beat local execution
(3G for everything but the smallest tensors), JPS >= PO everywhere,
both schemes converging at Wi-Fi where the single-cut pipeline is
already communication-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table, reduction_vs
from repro.experiments.runner import EXPERIMENT_MODELS, ExperimentEnv
from repro.net.bandwidth import FOUR_G, THREE_G, WIFI, BandwidthPreset

__all__ = ["Table1Row", "run", "render"]


@dataclass(frozen=True)
class Table1Row:
    model: str
    reductions: dict[str, dict[str, float]]  # {preset: {scheme: percent}}


def run(
    env: ExperimentEnv | None = None,
    models: list[str] | None = None,
    presets: list[BandwidthPreset] | None = None,
    n: int = 100,
) -> list[Table1Row]:
    env = env or ExperimentEnv()
    chosen_presets = presets or [THREE_G, FOUR_G, WIFI]
    rows: list[Table1Row] = []
    for model in models or EXPERIMENT_MODELS:
        lo, po, jps = (
            env.run_scheme_batch(model, chosen_presets, n, scheme)
            for scheme in ("LO", "PO", "JPS")
        )
        rows.append(
            Table1Row(
                model=model,
                reductions={
                    preset.name: {
                        "PO": reduction_vs(lo[i].makespan, po[i].makespan),
                        "JPS": reduction_vs(lo[i].makespan, jps[i].makespan),
                    }
                    for i, preset in enumerate(chosen_presets)
                },
            )
        )
    return rows


def render(rows: list[Table1Row]) -> str:
    presets = list(rows[0].reductions) if rows else []
    headers = ["model"] + [f"{p} {s}" for p in presets for s in ("PO", "JPS")]
    body = []
    for row in rows:
        body.append(
            [row.model]
            + [row.reductions[p][s] for p in presets for s in ("PO", "JPS")]
        )
    return format_table(
        headers=headers,
        rows=body,
        title="Table 1 — latency reduction vs LO (%)",
        float_format="{:.2f}",
    )


if __name__ == "__main__":
    print(render(run()))
