"""Fault injection, resilience policies, and the differential oracle.

No module here (:mod:`~repro.faults.plan`, :mod:`~repro.faults.injector`,
:mod:`~repro.faults.policy`, :mod:`~repro.faults.oracle`,
:mod:`~repro.faults.invariants`) imports the serving stack, so
:mod:`repro.serving.gateway` can depend on them without a cycle. The
blackout → degrade → recover acceptance scenario is
:func:`repro.fleet.blackout_fleet_scenario`.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.faults.invariants import MonotoneClockMonitor, accounting_violations
from repro.faults.oracle import (
    InstanceCheck,
    OracleResult,
    check_instance,
    exhaustive_optimal,
    random_line_table,
)
from repro.faults.plan import (
    BLACKOUT_BPS,
    Blackout,
    ClientOutage,
    CostMisestimation,
    FaultPlan,
    RateSpike,
    TransferCorruption,
)
from repro.faults.policy import ResiliencePolicy

__all__ = [
    "BLACKOUT_BPS",
    "Blackout",
    "ClientOutage",
    "CostMisestimation",
    "FaultInjector",
    "FaultPlan",
    "InstanceCheck",
    "MonotoneClockMonitor",
    "OracleResult",
    "RateSpike",
    "ResiliencePolicy",
    "TransferCorruption",
    "accounting_violations",
    "check_instance",
    "exhaustive_optimal",
    "random_line_table",
]

