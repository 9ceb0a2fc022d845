"""JPS — the paper's joint partition-and-scheduling scheme.

For line-structure (or linearizable) DNNs this is Alg. 2 + Theorem 5.3:
binary-search the crossing layer, split the n jobs across the two
adjacent candidate cuts, Johnson-schedule the result
(:func:`jps_line`).

For general-structure DNNs the same search runs on a line-shaped table
of Pareto-optimal graph cuts: the survivors, ordered by increasing
``f``, have ``g`` strictly decreasing, so the binary search and the
two-type split apply unchanged and :func:`attach_frontier_cuts` puts the
concrete cuts back on the jobs. The paper's Alg. 3 heuristic lives in
:mod:`repro.core.general`.

:class:`repro.engine.PlanningEngine` is the one network planner: it
resolves :class:`Structure`, builds and caches the tables, and calls
into this module for the search.
"""

from __future__ import annotations

import enum
import re
from dataclasses import replace
from time import perf_counter

from repro.core.partition import (
    TwoTypeSplit,
    searchsorted_cut,
    split_best_pair,
    split_by_paper_ratio,
    split_exact,
    split_jobs,
)
from repro.core.plans import RunLengthJobs, Schedule
from repro.dag.cuts import Cut
from repro.profiling.latency import CostTable

__all__ = [
    "Structure",
    "SplitMode",
    "jps_line",
    "attach_frontier_cuts",
]

if hasattr(enum, "StrEnum"):  # Python >= 3.11
    _StrEnum = enum.StrEnum
else:  # pragma: no cover - 3.10 fallback, identical semantics

    class _StrEnum(str, enum.Enum):
        def __str__(self) -> str:
            return str(self.value)


class _CoercibleEnum(_StrEnum):
    """StrEnum that coerces raw strings with a helpful ``ValueError``."""

    @classmethod
    def coerce(cls, value: "str | _CoercibleEnum") -> "_CoercibleEnum":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            label = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
            valid = ", ".join(repr(m.value) for m in cls)
            raise ValueError(f"unknown {label} {value!r} (use {valid})") from None

    @classmethod
    def values(cls) -> list[str]:
        """The raw string values, for argparse ``choices=``."""
        return [m.value for m in cls]


class Structure(_CoercibleEnum):
    """How :meth:`~repro.engine.PlanningEngine.plan` treats the network's graph structure."""

    AUTO = "auto"
    LINE = "line"
    FRONTIER = "frontier"
    DAG = "dag"
    PATHS = "paths"


class SplitMode(_CoercibleEnum):
    """Two-type job allocation rule over the crossing layers (l*-1, l*)."""

    RATIO = "ratio"
    EXACT = "exact"
    PAIR = "pair"


def jps_line(table: CostTable, n: int, split: str | SplitMode = "exact") -> Schedule:
    """JPS on a line-structure cost table.

    ``split`` selects the two-type allocation over (l*-1, l*):
    ``"ratio"`` is the paper's floor-ratio rule (Alg. 2 line 9) —
    faithful but degenerate when the true ratio is below 1 (the floor
    collapses to a single cut layer); ``"exact"`` takes the best integer
    split over the same two layers and is the default; ``"pair"`` takes
    the best two-type mix over all position pairs. The ablation bench
    quantifies the gap.

    The crossing is one :func:`searchsorted_cut` and the exact split
    :func:`split_exact`, which prices only the few splits around the
    minimum of the convex split makespan; the schedule holds
    one prototype job per cut type (:func:`split_jobs`) and the split's
    own makespan, so a plan does no per-job work. Output is identical to
    the scalar composition kept as
    :func:`repro.faults.oracle.jps_line_scalar` (the parity property
    tests lock this).
    """
    started = perf_counter()
    mode = SplitMode.coerce(split)
    l_star = searchsorted_cut(table)
    if mode is SplitMode.RATIO:
        chosen: TwoTypeSplit = split_by_paper_ratio(table, l_star, n)
    elif mode is SplitMode.EXACT:
        chosen = split_exact(table, l_star, n)
    else:
        # beyond the paper: the best two-type mix over all position pairs,
        # needed when adjacent-layer time differences are drastic (VGG-16)
        chosen = split_best_pair(table, n)
    jobs = split_jobs(table, chosen)
    overhead = perf_counter() - started
    return Schedule(
        jobs=jobs,
        makespan=chosen.makespan,
        method="JPS",
        metadata={
            "l_star": l_star,
            "split": mode.value,
            "n_a": chosen.n_a,
            "n_b": chosen.n_b,
            "cut_a": table.positions[chosen.position_a],
            "cut_b": table.positions[chosen.position_b],
            "scheduler_overhead_s": overhead,
        },
    )


def attach_frontier_cuts(
    model_name: str, schedule: Schedule, cuts: tuple[Cut, ...]
) -> Schedule:
    """A :func:`jps_line` schedule on a cut-backed table, as ``JPS-frontier``.

    Re-attaches each job type's concrete graph cut (``cuts[position]``)
    and the network's own name — the table's ``/frontier`` suffix is
    internal — once per prototype of the run-length jobs.
    """
    jobs = RunLengthJobs(
        (replace(plan, model=model_name, mobile_nodes=cuts[plan.cut_position].mobile), count)
        for plan, count in schedule.jobs.runs
    )
    return Schedule(
        jobs=jobs,
        makespan=schedule.makespan,
        method="JPS-frontier",
        metadata={**schedule.metadata, "num_pareto_cuts": len(cuts)},
    )
