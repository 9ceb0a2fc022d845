"""The benchmark's workloads: inputs built from a seed, one operation each.

Every workload is driven only through stable public entry points:
``run_system`` and the builders of ``repro.fleet`` for the three fleet
workloads, and the public methods of ``PlanningEngine`` for
``plan_zoo``. Each workload knows how to set itself up, run one
operation, and reduce that operation's output to a digest that must not
change between runs of the same seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import replace

NAMES = ("overload_admission", "served_batching", "eft_placement", "plan_zoo")

#: Models left out of ``plan_zoo``: inception-v4's cold plan takes ~50 s.
ZOO_EXCLUDED = ("inception-v4",)
#: Jobs per plan call, and bandwidths per warm sweep of the zoo.
ZOO_JOBS = 100
ZOO_BANDWIDTHS = 8
#: Simulated horizons, in seconds, of the fleet workloads that would
#: otherwise take well over a second per ``run_system`` call: short
#: calls give a run enough of them for a steady low quantile.
OVERLOAD_HORIZON = 1.0
EFT_HORIZON = 3.0


def digest(document) -> str:
    """SHA-256 of a JSON document in canonical (sorted, compact) form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _served_fleet(seed: int, placement: str, telemetry: bool, horizon: float = 12.0):
    """16 servers, 64 clients at 2 rps, 4 shared hold-and-batch GPUs."""
    from repro.cloud import CloudConfig, CloudGpuModel
    from repro.fleet import default_fleet, with_slo_telemetry

    base = default_fleet(
        servers=16,
        clients=64,
        rate=2.0,
        horizon=horizon,
        seed=seed,
        placement=placement,
    )
    config = replace(
        base,
        cloud=CloudConfig(
            gpus=4,
            max_batch=8,
            max_wait=0.25,
            policy="batch",
            assignment="least_queued",
            model=CloudGpuModel(
                name="contended-gpu", overhead_fraction=0.9, speedup=0.02
            ),
        ),
    )
    return with_slo_telemetry(config) if telemetry else config


def fleet_config(name: str, seed: int):
    """The ``SystemConfig`` a fleet workload runs, generated from ``seed``."""
    if name == "overload_admission":
        from repro.fleet import capacity_scenario

        config = capacity_scenario(servers=4, clients=2048, seed=seed)
        return replace(config, workload=replace(config.workload, horizon=OVERLOAD_HORIZON))
    if name == "served_batching":
        return _served_fleet(seed, "least_loaded", telemetry=True)
    if name == "eft_placement":
        return _served_fleet(seed, "eft", telemetry=False, horizon=EFT_HORIZON)
    raise ValueError(f"not a fleet workload: {name!r}")


class FleetWorkload:
    """One ``run_system`` call per operation; work units are arrivals."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.fleet import run_system
        from repro.serving import generate_requests

        self.config = fleet_config(name, seed)
        self._run_system = run_system
        workload = self.config.workload
        # the request stream run_system will generate: its length is the
        # operation's work and a check on the report
        self.arrivals = len(
            generate_requests(list(workload.clients), workload.horizon, workload.seed)
        )

    def run(self):
        """Run once; return ``(host seconds, report)``."""
        start = time.perf_counter()
        report = self._run_system(self.config)
        return time.perf_counter() - start, report

    def check(self, report) -> tuple[str, list[str]]:
        """Digest of the report and the problems found in it."""
        problems = []
        if not report.ok:
            problems.append(
                f"audit failed: {list(report.violations) + list(report.clock_violations)}"
            )
        if report.arrivals != self.arrivals:
            problems.append(f"{report.arrivals} arrivals, expected {self.arrivals}")
        return digest(report.as_dict()), problems

    @staticmethod
    def outputs(report) -> dict:
        """Simulated end-to-end figures of one report."""
        fleet = report.fleet
        arrivals = max(report.arrivals, 1)
        return {
            "sim_within_deadline_frac": fleet["within_deadline"] / arrivals,
            "sim_drop_frac": (fleet["dropped"] + fleet["rejected_fleet"]) / arrivals,
            "sim_latency_p50_s": fleet["latency"]["p50"],
            "sim_latency_p99_s": fleet["latency"]["p99"],
        }


def _canonical(schedule) -> dict:
    """A schedule's ``to_dict()`` without the host time the planner measured."""
    document = schedule.to_dict()
    document["metadata"] = {
        k: v for k, v in document.get("metadata", {}).items() if k != "scheduler_overhead_s"
    }
    return document


class ZooWorkload:
    """Plan the zoo on a fresh engine: cold once, then warm sweeps.

    An operation of the warm phase is one sweep of (model, bandwidth)
    cells, each a JPS plan and an LO plan of ``ZOO_JOBS`` jobs at a
    bandwidth the engine has not priced before. Sweep 0 is fixed by the seed and is
    what the digest covers; later sweeps draw fresh bandwidths so every
    timed cell stays warm, never hot.
    """

    def __init__(self, seed: int) -> None:
        from repro.api import as_channel, list_models
        from repro.engine import PlanningEngine

        self._engine_type = PlanningEngine
        self._as_channel = as_channel
        self.models = [m for m in list_models() if m not in ZOO_EXCLUDED]
        self._rng = random.Random(seed)
        # the cold pass prices its own rate, so no sweep-0 cell is hot
        self.cold_mbps = self.bandwidths()[0]
        self.sweep0 = self.bandwidths()
        self.engine = PlanningEngine()

    def bandwidths(self) -> list[float]:
        """One sweep of uplink rates, log-uniform on 1-100 Mbps."""
        return [10 ** self._rng.uniform(0.0, 2.0) for _ in range(ZOO_BANDWIDTHS)]

    def fresh_engine(self) -> None:
        self.engine = self._engine_type()

    def cold(self):
        """First plan of every model; return ``(host seconds, schedules)``."""
        channel = self._as_channel(self.cold_mbps)
        start = time.perf_counter()
        schedules = [self.engine.plan(m, ZOO_JOBS, channel) for m in self.models]
        return time.perf_counter() - start, schedules

    def cells(self, bandwidths):
        """Yield ``(host seconds, (model, mbps, jps, lo))`` per cell."""
        plan = self.engine.plan
        for mbps in bandwidths:
            channel = self._as_channel(mbps)
            for model in self.models:
                start = time.perf_counter()
                jps = plan(model, ZOO_JOBS, channel)
                lo = plan(model, ZOO_JOBS, channel, scheme="LO")
                yield time.perf_counter() - start, (model, mbps, jps, lo)

    @staticmethod
    def check(cold_schedules, cells) -> tuple[str, list[str]]:
        """Digest of the cold pass plus sweep 0, and the problems found."""
        problems = [
            f"{model} at {mbps:.3f} Mbps: JPS makespan {jps.makespan} > LO {lo.makespan}"
            for model, mbps, jps, lo in cells
            if jps.makespan > lo.makespan * (1 + 1e-9)
        ]
        document = {
            "cold": [_canonical(s) for s in cold_schedules],
            "cells": [[_canonical(jps), _canonical(lo)] for _, _, jps, lo in cells],
        }
        return digest(document), problems

    @staticmethod
    def outputs(cells) -> dict:
        ratios = [jps.makespan / lo.makespan for _, _, jps, lo in cells]
        return {"jps_lo_makespan_ratio": sum(ratios) / len(ratios)}
