"""Test helpers shared across modules (importable, unlike conftest)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.plans import Schedule
from repro.fleet import SystemConfig, blackout_fleet_scenario
from repro.profiling.latency import CostTable


def make_table(f, g, cloud=None, name="synthetic") -> CostTable:
    """Construct a CostTable straight from arrays (test convenience)."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if cloud is None:
        cloud = np.linspace(0.0, 1e-3, len(f))
    return CostTable(
        model_name=name,
        positions=tuple(f"l{i}" for i in range(len(f))),
        f=f,
        g=g,
        cloud=np.asarray(cloud, dtype=float),
    )


def compared_blackout(**overrides) -> SystemConfig:
    """``blackout_fleet_scenario`` with its no-policy baseline run switched on."""
    config = blackout_fleet_scenario(**overrides)
    return replace(config, faults=replace(config.faults, compare_no_policy=True))


def host_free(schedule: Schedule) -> dict:
    """``schedule.to_dict()`` without the host-timed ``scheduler_overhead_s``."""
    document = schedule.to_dict()
    document["metadata"].pop("scheduler_overhead_s", None)
    return document
