"""Fig. 13 — inference latency versus uplink bandwidth (1–80 Mbps).

For AlexNet and MobileNet-v2, sweep the uplink rate and record every
scheme's average latency. The shapes to reproduce: LO is flat; CO falls
as 1/bandwidth; PO and JPS interpolate; JPS has a *benefit range* —
bandwidths where it strictly beats both LO and CO — that covers 3G
through Wi-Fi, wider for AlexNet than MobileNet-v2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.report import format_series
from repro.experiments.runner import SCHEMES, ExperimentEnv

__all__ = ["Fig13Curve", "DEFAULT_BANDWIDTHS", "run", "render", "benefit_range"]

DEFAULT_BANDWIDTHS = [1, 2, 4, 6, 8, 10, 15, 20, 30, 40, 50, 60, 70, 80]
DEFAULT_MODELS = ["alexnet", "mobilenet-v2"]


@dataclass(frozen=True)
class Fig13Curve:
    model: str
    bandwidths_mbps: tuple[float, ...]
    latency_s: dict[str, tuple[float, ...]]  # scheme -> avg latency series


def run(
    env: ExperimentEnv | None = None,
    models: list[str] | None = None,
    bandwidths_mbps: list[float] | None = None,
    n: int = 100,
) -> list[Fig13Curve]:
    env = env or ExperimentEnv()
    bws = [float(b) for b in bandwidths_mbps or DEFAULT_BANDWIDTHS]
    return [
        Fig13Curve(
            model=model,
            bandwidths_mbps=tuple(bws),
            latency_s={
                scheme: tuple(
                    schedule.average_completion
                    for schedule in env.run_scheme_batch(model, bws, n, scheme)
                )
                for scheme in SCHEMES
            },
        )
        for model in models or DEFAULT_MODELS
    ]


def benefit_range(curve: Fig13Curve, margin: float = 1e-9) -> tuple[float, float] | None:
    """Bandwidth interval where JPS strictly beats both LO and CO.

    Returns the (lowest, highest) swept bandwidth with a strict win, or
    None if JPS never wins — the paper's "benefit range" discussion.
    """
    jps = np.array(curve.latency_s["JPS"])
    lo = np.array(curve.latency_s["LO"])
    co = np.array(curve.latency_s["CO"])
    wins = (jps < lo - margin) & (jps < co - margin)
    if not wins.any():
        return None
    bws = np.array(curve.bandwidths_mbps)
    return float(bws[wins].min()), float(bws[wins].max())


def render(curves: list[Fig13Curve]) -> str:
    from repro.experiments.ascii_plot import line_plot

    blocks = []
    for curve in curves:
        table = format_series(
            x_label="Mbps",
            xs=[f"{b:g}" for b in curve.bandwidths_mbps],
            series={s: [v * 1e3 for v in curve.latency_s[s]] for s in curve.latency_s},
            title=f"Fig. 13 — {curve.model}: avg latency (ms) vs uplink bandwidth",
        )
        plot = line_plot(
            curve.bandwidths_mbps,
            {s: [v * 1e3 for v in curve.latency_s[s]] for s in curve.latency_s},
            log_y=True,
            y_label="ms",
            title=f"{curve.model} (log-y, as in the paper's Fig. 13)",
        )
        rng = benefit_range(curve)
        note = (
            f"JPS benefit range: {rng[0]:g}-{rng[1]:g} Mbps"
            if rng
            else "JPS never strictly beats both LO and CO"
        )
        blocks.append(table + "\n\n" + plot + "\n" + note)
    return "\n\n".join(blocks)


if __name__ == "__main__":
    print(render(run()))
