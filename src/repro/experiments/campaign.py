"""Campaign runner: all experiments, one JSON artifact, regression diffs.

A *campaign* executes every reproduction harness and serializes the
numeric results (no rendering) to JSON. Two campaigns can then be
diffed — the regression net a maintained reproduction repo needs: after
touching a cost model or an algorithm, `compare_campaigns` reports
every experiment whose numbers moved beyond tolerance.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro import __version__
from repro.experiments import fig4, fig11, fig12, fig13, fig14, table1
from repro.experiments.runner import ExperimentEnv
from repro.utils.validation import require_non_negative

__all__ = ["run_campaign", "save_campaign", "load_campaign", "compare_campaigns"]


def run_campaign(env: ExperimentEnv | None = None, quick: bool = False) -> dict[str, Any]:
    """Execute every experiment; returns a JSON-serializable document.

    ``quick=True`` shrinks job counts and sweep grids for CI-speed runs;
    the *structure* of the document is identical either way, so quick
    and full campaigns diff against each other structurally (values will
    of course differ — compare like with like).
    """
    env = env or ExperimentEnv()
    n = 20 if quick else 100
    fig11_counts = [2, 4] if quick else [2, 4, 8, 12]
    fig13_bws = [1, 10, 40] if quick else None

    document: dict[str, Any] = {
        "version": __version__,
        "quick": quick,
        "n_jobs": n,
    }
    # one phase span per figure/table; inside each phase env.tracer
    # records a span per (model, bandwidth, scheme) cell on the per-cell
    # path and one experiment/batch span per (model, scheme) vector on
    # the batched grid path
    with env.tracer.span("campaign/fig4", lane=("campaign", "phases")):
        document["fig4"] = [asdict(row) for row in fig4.run(env)]
    with env.tracer.span("campaign/fig11", lane=("campaign", "phases")):
        document["fig11"] = [
            asdict(row) for row in fig11.run(env, job_counts=fig11_counts)
        ]
    with env.tracer.span("campaign/fig12", lane=("campaign", "phases")):
        document["fig12"] = [asdict(cell) for cell in fig12.run(env, n=n)]
    with env.tracer.span("campaign/table1", lane=("campaign", "phases")):
        document["table1"] = [asdict(row) for row in table1.run(env, n=n)]
    with env.tracer.span("campaign/fig13", lane=("campaign", "phases")):
        document["fig13"] = [
            {
                "model": curve.model,
                "bandwidths_mbps": list(curve.bandwidths_mbps),
                "latency_s": {k: list(v) for k, v in curve.latency_s.items()},
            }
            for curve in fig13.run(env, bandwidths_mbps=fig13_bws, n=n)
        ]
    with env.tracer.span("campaign/fig14", lane=("campaign", "phases")):
        document["fig14"] = [
            {
                "model": curve.model,
                "ratios": list(curve.ratios),
                "makespan_s": {k: list(v) for k, v in curve.makespan_s.items()},
                "optimal_ratio": dict(curve.optimal_ratio),
            }
            for curve in fig14.run(env, n=n)
        ]
    return document


def save_campaign(document: dict[str, Any], path: str | Path) -> Path:
    """Write a campaign document as pretty-printed JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


def load_campaign(path: str | Path) -> dict[str, Any]:
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no campaign file at {source}")
    return json.loads(source.read_text())


def _walk(prefix: str, value: Any, out: dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _walk(f"{prefix}.{key}", value[key], out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _walk(f"{prefix}[{index}]", item, out)


def compare_campaigns(
    old: dict[str, Any], new: dict[str, Any], rel_tolerance: float = 0.05
) -> list[str]:
    """Human-readable regressions between two campaign documents.

    Flags numeric leaves that moved more than ``rel_tolerance``
    (relative, with a small absolute floor) and any structural
    mismatch (missing/new leaves). An empty list means "no regression".
    """
    require_non_negative(rel_tolerance, "rel_tolerance")
    flat_old: dict[str, float] = {}
    flat_new: dict[str, float] = {}
    _walk("", old, flat_old)
    _walk("", new, flat_new)

    problems: list[str] = []
    for key in sorted(set(flat_old) - set(flat_new)):
        problems.append(f"missing in new: {key}")
    for key in sorted(set(flat_new) - set(flat_old)):
        problems.append(f"new leaf: {key}")
    for key in sorted(set(flat_old) & set(flat_new)):
        a, b = flat_old[key], flat_new[key]
        scale = max(abs(a), abs(b), 1e-9)
        if abs(a - b) / scale > rel_tolerance and abs(a - b) > 1e-6:
            problems.append(f"moved: {key}: {a:g} -> {b:g}")
    return problems
