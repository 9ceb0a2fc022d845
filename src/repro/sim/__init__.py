"""Discrete-event simulation of the mobile→uplink→cloud pipeline."""

from repro.sim.engine import Busy, Engine, Resource, SimulationError
from repro.sim.perturb import (
    executed_makespan,
    perturbed_schedule,
    straggler_schedule,
    two_phase_makespan,
)
from repro.sim.pipeline import (
    JobTrace,
    PipelineResult,
    StageSpan,
    simulate_schedule,
    simulate_schedule_on_timeline,
)
from repro.sim.trace import render_gantt, validate_against_recurrence

__all__ = [
    "Busy",
    "Engine",
    "JobTrace",
    "PipelineResult",
    "Resource",
    "SimulationError",
    "StageSpan",
    "executed_makespan",
    "perturbed_schedule",
    "render_gantt",
    "simulate_schedule",
    "simulate_schedule_on_timeline",
    "straggler_schedule",
    "two_phase_makespan",
    "validate_against_recurrence",
]
