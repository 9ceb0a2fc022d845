"""Fig. 12(a–c) — average inference latency of LO/CO/PO/JPS, and
Fig. 12(d) — the JPS scheduler's own decision overhead.

100 repeated jobs per model, three network presets (3G, 4G, Wi-Fi).
CO at 3G is off the chart in the paper (>4,000 ms to upload the raw
input); we report it anyway and the renderer marks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.experiments.runner import EXPERIMENT_MODELS, SCHEMES, ExperimentEnv
from repro.net.bandwidth import FOUR_G, PRESETS, THREE_G, WIFI, BandwidthPreset
from repro.runtime.scheduler_runtime import OnDeviceScheduler

__all__ = ["Fig12Cell", "run", "render", "run_overhead", "render_overhead"]

DEFAULT_N = 100


@dataclass(frozen=True)
class Fig12Cell:
    preset: str
    model: str
    scheme: str
    avg_latency_s: float    # makespan / n — the paper's per-job metric


def run(
    env: ExperimentEnv | None = None,
    models: list[str] | None = None,
    presets: list[BandwidthPreset] | None = None,
    n: int = DEFAULT_N,
) -> list[Fig12Cell]:
    env = env or ExperimentEnv()
    chosen_presets = presets or [THREE_G, FOUR_G, WIFI]
    chosen_models = models or EXPERIMENT_MODELS
    # one batched bandwidth sweep per (model, scheme) column
    columns = {
        (model, scheme): env.run_scheme_batch(model, chosen_presets, n, scheme)
        for model in chosen_models
        for scheme in SCHEMES
    }
    return [
        Fig12Cell(
            preset=preset.name,
            model=model,
            scheme=scheme,
            avg_latency_s=columns[model, scheme][index].average_completion,
        )
        for index, preset in enumerate(chosen_presets)
        for model in chosen_models
        for scheme in SCHEMES
    ]


def render(cells: list[Fig12Cell]) -> str:
    blocks: list[str] = []
    presets = list(dict.fromkeys(c.preset for c in cells))
    models = list(dict.fromkeys(c.model for c in cells))
    schemes = list(dict.fromkeys(c.scheme for c in cells))
    value = {(c.preset, c.model, c.scheme): c.avg_latency_s for c in cells}
    for preset in presets:
        rows = []
        for model in models:
            rows.append(
                [model]
                + [value[(preset, model, s)] * 1e3 for s in schemes]
            )
        mbps = PRESETS[preset].uplink_bps / 1e6 if preset in PRESETS else float("nan")
        blocks.append(
            format_table(
                headers=["model"] + [f"{s} (ms)" for s in schemes],
                rows=rows,
                title=f"Fig. 12 — {preset} ({mbps:.2f} Mbps), avg latency over {DEFAULT_N} jobs",
            )
        )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Fig. 12(d): scheduler overhead
# ----------------------------------------------------------------------

def run_overhead(
    env: ExperimentEnv | None = None,
    models: list[str] | None = None,
    n: int = DEFAULT_N,
    repeats: int = 5,
) -> dict[str, float]:
    """Median JPS planning latency per model (seconds).

    Uses the deployed scheduler path — lookup table + communication
    regression — so the measured overhead includes estimation, the
    binary search, the split, and Johnson's rule, exactly the
    components §6.3 credits for the negligible overhead.
    """
    env = env or ExperimentEnv()
    chosen = models or EXPERIMENT_MODELS
    line_models = [m for m in chosen if env.treats_as_line(m)]
    scheduler = OnDeviceScheduler(mobile=env.mobile, cloud=env.cloud)
    networks = [env.network(m) for m in line_models]
    scheduler.calibrate(networks, env.channel(WIFI), seed=env.seed)

    overheads: dict[str, float] = {}
    for model in chosen:
        samples = []
        for _ in range(repeats):
            if model in line_models:
                result = scheduler.plan(
                    env.network(model), n, bandwidth_bps=env.channel(WIFI).uplink_bps
                )
                samples.append(result.overhead_s)
            else:
                # general DAGs plan on the cached Pareto table
                from time import perf_counter

                from repro.core.joint import jps_line

                table = env.cost_table(model, WIFI)
                start = perf_counter()
                jps_line(table, n)
                samples.append(perf_counter() - start)
        samples.sort()
        overheads[model] = samples[len(samples) // 2]
    return overheads


def render_overhead(overheads: dict[str, float]) -> str:
    rows = [(model, value * 1e3) for model, value in overheads.items()]
    return format_table(
        headers=["model", "JPS overhead (ms)"],
        rows=rows,
        title="Fig. 12(d) — scheduler decision overhead",
        float_format="{:.3f}",
    )


if __name__ == "__main__":
    print(render(run()))
    print()
    print(render_overhead(run_overhead()))
