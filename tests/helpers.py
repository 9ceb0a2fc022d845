"""Test helpers shared across modules (importable, unlike conftest)."""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.core.plans import Schedule
from repro.engine import PlanningEngine
from repro.faults import MonotoneClockMonitor
from repro.fleet import (
    FleetGateway,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    blackout_fleet_scenario,
)
from repro.profiling.latency import CostTable
from repro.serving import ClientSpec, Gateway, Request


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


#: Name of the one server :func:`one_server` builds.
SERVER = "s0"


def one_server(scheme: str = "JPS", **server) -> SystemConfig:
    """A one-server :class:`SystemConfig` with the default channel framing.

    ``server`` holds :class:`ServerSpec` fields: ``bandwidth_steps`` for
    the uplink's rate steps, ``fault_plan`` for blackouts and other
    faults, ``resilience``, and the queue bounds. The workload block is
    only there because every config needs one: the tests serve explicit
    requests through :func:`serve_one`.
    """
    return SystemConfig(
        workload=WorkloadConfig(clients=(ClientSpec(name="c0"),)),
        servers=(ServerSpec(name=SERVER, **server),),
        scheme=scheme,
    )


class OneServerRun(NamedTuple):
    """What :func:`serve_one` returns."""

    gateway: Gateway
    makespan: float
    clock: MonotoneClockMonitor


def serve_one(
    requests: list[Request],
    scheme: str = "JPS",
    planner: PlanningEngine | None = None,
    **server,
) -> OneServerRun:
    """Serve ``requests`` on :func:`one_server` through ``FleetGateway.run``.

    This is the production path: the server is built and driven by the
    fleet, on the uplink framing every scenario builder uses. The engine
    drains before this returns; ``clock`` watched it the whole run.
    """
    fleet = FleetGateway(one_server(scheme, **server), planner=planner)
    clock = MonotoneClockMonitor().attach(fleet.engine)
    result = fleet.run(requests)
    return OneServerRun(fleet.servers[SERVER], result.makespan, clock)
