"""Plan data types shared by the partitioners, schedulers, and simulator.

A :class:`JobPlan` is one inference job with a chosen partition: the
scalars the flow-shop machinery needs (compute/communication/cloud stage
lengths) plus enough provenance (cut position, mobile node set) for the
simulator and the runtime prototype to execute it for real.

A two-type JPS schedule or a homogeneous baseline holds at most two
distinct plans, so its jobs are stored as :class:`RunLengthJobs` — one
prototype per run — and each ``JobPlan`` is built only when a reader
asks for the jobs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.utils.validation import require_non_negative

__all__ = ["JobPlan", "RunLengthJobs", "Schedule", "json_safe"]


def json_safe(value: Any) -> Any:
    """Coerce numpy scalars and other exotica to plain JSON types.

    The common denominator of every wire format in the repo: schedule
    JSON, campaign documents, and the serving metrics report all pass
    their payloads through this before ``json.dumps``.
    """
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [json_safe(v) for v in value]
        return sorted(items) if isinstance(value, (set, frozenset)) else items
    return str(value)


@dataclass(frozen=True)
class JobPlan:
    """One job's partition and the resulting stage lengths."""

    job_id: int
    model: str
    cut_position: int                      # index into the CostTable, -1 if N/A
    compute_time: float                    # f(P): mobile computation stage
    comm_time: float                       # g(P): upload stage
    cloud_time: float = 0.0                # remaining cloud computation
    cut_label: str = ""
    mobile_nodes: frozenset[str] | None = None  # for general-structure cuts
    group: str = ""                        # free-form tag (e.g. Alg.3 path id)

    def __post_init__(self) -> None:
        require_non_negative(self.compute_time, "compute_time")
        require_non_negative(self.comm_time, "comm_time")
        require_non_negative(self.cloud_time, "cloud_time")

    @property
    def is_communication_heavy(self) -> bool:
        """Membership test for Johnson's set S1 (f < g)."""
        return self.compute_time < self.comm_time

    @property
    def stages(self) -> tuple[float, float]:
        return (self.compute_time, self.comm_time)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable encoding; inverse of :meth:`from_dict`.

        ``mobile_nodes`` frozensets encode as sorted lists so the output
        is deterministic and diff-friendly.
        """
        return {
            "job_id": json_safe(self.job_id),
            "model": self.model,
            "cut_position": json_safe(self.cut_position),
            "compute_time": json_safe(self.compute_time),
            "comm_time": json_safe(self.comm_time),
            "cloud_time": json_safe(self.cloud_time),
            "cut_label": self.cut_label,
            "mobile_nodes": (
                None if self.mobile_nodes is None else sorted(self.mobile_nodes)
            ),
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobPlan":
        """Rebuild a plan from :meth:`to_dict` output (e.g. parsed JSON)."""
        nodes = data.get("mobile_nodes")
        return cls(
            job_id=int(data["job_id"]),
            model=str(data["model"]),
            cut_position=int(data["cut_position"]),
            compute_time=float(data["compute_time"]),
            comm_time=float(data["comm_time"]),
            cloud_time=float(data.get("cloud_time", 0.0)),
            cut_label=str(data.get("cut_label", "")),
            mobile_nodes=None if nodes is None else frozenset(nodes),
            group=str(data.get("group", "")),
        )


class RunLengthJobs(Sequence):
    """An immutable job sequence stored as ``(prototype, count)`` runs.

    Run ``r`` stands for ``count`` jobs that equal its prototype except
    for ``job_id``, which counts up from the prototype's own. The
    sequence behaves like the tuple of those jobs — ``len``, iteration,
    indexing, slicing (which returns a tuple), ``==`` and ``hash``
    against tuples — and builds that tuple once, on first access, so a
    reader of ``Schedule.makespan`` alone never pays for per-job objects.
    """

    __slots__ = ("_runs", "_jobs")

    def __init__(self, runs: Iterable[tuple[JobPlan, int]]) -> None:
        self._runs = tuple((plan, int(count)) for plan, count in runs)
        for _, count in self._runs:
            if count < 1:
                raise ValueError(f"run counts must be >= 1, got {count}")
        self._jobs: tuple[JobPlan, ...] | None = None

    @property
    def runs(self) -> tuple[tuple[JobPlan, int], ...]:
        """The ``(prototype, count)`` pairs, in execution order."""
        return self._runs

    def _materialized(self) -> tuple[JobPlan, ...]:
        if self._jobs is None:
            self._jobs = tuple(
                JobPlan(
                    job_id=plan.job_id + offset,
                    model=plan.model,
                    cut_position=plan.cut_position,
                    compute_time=plan.compute_time,
                    comm_time=plan.comm_time,
                    cloud_time=plan.cloud_time,
                    cut_label=plan.cut_label,
                    mobile_nodes=plan.mobile_nodes,
                    group=plan.group,
                )
                for plan, count in self._runs
                for offset in range(count)
            )
        return self._jobs

    def __len__(self) -> int:
        return sum(count for _, count in self._runs)

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self) -> Iterator[JobPlan]:
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RunLengthJobs):
            return self._runs == other._runs or self._materialized() == other._materialized()
        if isinstance(other, tuple):
            return self._materialized() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._materialized())

    def __repr__(self) -> str:
        return f"RunLengthJobs({self._runs!r})"


@dataclass(frozen=True)
class Schedule:
    """An ordered set of planned jobs plus the achieved makespan."""

    jobs: Sequence[JobPlan]                # execution order on the mobile device
    makespan: float
    method: str
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_non_negative(self.makespan, "makespan")

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def average_completion(self) -> float:
        """Makespan per job — the paper's reported metric for 100-job runs."""
        if not self.jobs:
            return 0.0
        return self.makespan / len(self.jobs)

    def cut_histogram(self) -> dict[int, int]:
        """How many jobs use each cut position (diagnoses the two-type split)."""
        counts: dict[int, int] = {}
        for job in self.jobs:
            counts[job.cut_position] = counts.get(job.cut_position, 0) + 1
        return dict(sorted(counts.items()))

    def label_histogram(self) -> dict[str, int]:
        """How many jobs use each cut *label*.

        DAG schedules index positions into a per-table Pareto cut list,
        so raw positions are not comparable across tables; the labels
        (frontier node sets) are the stable human-readable key.
        """
        counts: dict[str, int] = {}
        for job in self.jobs:
            counts[job.cut_label] = counts.get(job.cut_label, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable encoding; inverse of :meth:`from_dict`.

        This is *the* schedule wire format: the CLI's ``--json`` output
        and the runtime's schedule serialization
        (:func:`repro.runtime.serialization.serialize_schedule`) both
        emit it. Metadata values are coerced to JSON-safe types (numpy
        scalars unwrap; unknown objects stringify).
        """
        return {
            "jobs": [job.to_dict() for job in self.jobs],
            "makespan": json_safe(self.makespan),
            "method": self.method,
            "metadata": json_safe(dict(self.metadata)),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        return cls(
            jobs=tuple(JobPlan.from_dict(job) for job in data["jobs"]),
            makespan=float(data["makespan"]),
            method=str(data["method"]),
            metadata=dict(data.get("metadata", {})),
        )
