"""Schedule/JobPlan JSON round-trips and the schedule wire format."""

import json

import numpy as np
import pytest

from repro import api
from repro.core.plans import JobPlan, RunLengthJobs, Schedule
from repro.experiments.runner import ExperimentEnv
from repro.runtime.serialization import (
    SerializationError,
    deserialize_schedule,
    serialize_schedule,
)


@pytest.fixture(scope="module")
def line_schedule():
    return ExperimentEnv().run_scheme("alexnet", 10.0, 12, "JPS")


@pytest.fixture(scope="module")
def frontier_schedule():
    return api.plan("googlenet", n=8, bandwidth=10.0, engine=api.PlanningEngine())


def assert_roundtrip_equal(schedule: Schedule, again: Schedule) -> None:
    assert again.makespan == schedule.makespan
    assert again.method == schedule.method
    assert again.metadata == json.loads(json.dumps(schedule.to_dict()))["metadata"]
    assert len(again.jobs) == len(schedule.jobs)
    for ours, theirs in zip(schedule.jobs, again.jobs):
        assert ours.job_id == theirs.job_id
        assert ours.cut_position == theirs.cut_position
        assert ours.cut_label == theirs.cut_label
        assert ours.compute_time == theirs.compute_time
        assert ours.comm_time == theirs.comm_time
        assert ours.cloud_time == theirs.cloud_time
        assert ours.mobile_nodes == theirs.mobile_nodes


def test_line_schedule_roundtrips_through_json_text(line_schedule):
    text = json.dumps(line_schedule.to_dict(), sort_keys=True)
    again = Schedule.from_dict(json.loads(text))
    assert_roundtrip_equal(line_schedule, again)


def test_frontier_mobile_nodes_survive_as_frozensets(frontier_schedule):
    assert any(p.mobile_nodes for p in frontier_schedule.jobs)
    text = json.dumps(frontier_schedule.to_dict(), sort_keys=True)
    again = Schedule.from_dict(json.loads(text))
    assert_roundtrip_equal(frontier_schedule, again)
    for plan in again.jobs:
        if plan.mobile_nodes is not None:
            assert isinstance(plan.mobile_nodes, frozenset)


def test_to_dict_is_json_clean_with_numpy_metadata():
    plan = JobPlan(
        job_id=np.int64(0),
        model="toy",
        cut_position=np.int64(1),
        cut_label="after:a",
        compute_time=np.float64(0.5),
        comm_time=0.1,
        cloud_time=0.2,
        mobile_nodes=frozenset({"a", "b"}),
    )
    schedule = Schedule(
        jobs=(plan,),
        makespan=np.float64(0.8),
        method="JPS",
        metadata={"l_star": np.int64(3), "cuts": frozenset({"a"})},
    )
    document = schedule.to_dict()
    text = json.dumps(document)  # must not raise on numpy scalars / frozensets
    parsed = json.loads(text)
    assert parsed["metadata"]["l_star"] == 3
    assert parsed["metadata"]["cuts"] == ["a"]
    again = Schedule.from_dict(parsed)
    assert again.jobs[0].mobile_nodes == frozenset({"a", "b"})
    assert again.makespan == pytest.approx(0.8)


def test_wire_format_roundtrip(line_schedule, frontier_schedule):
    for schedule in (line_schedule, frontier_schedule):
        payload = serialize_schedule(schedule)
        assert payload.startswith(b"RPS1")
        assert_roundtrip_equal(schedule, deserialize_schedule(payload))


def test_wire_format_rejects_corruption(line_schedule):
    payload = serialize_schedule(line_schedule)
    with pytest.raises(SerializationError, match="magic"):
        deserialize_schedule(b"EVIL" + payload[4:])
    with pytest.raises(SerializationError):
        deserialize_schedule(payload[:-10])


def test_run_length_jobs_behave_like_their_tuple(line_schedule, frontier_schedule):
    for schedule in (line_schedule, frontier_schedule):
        jobs = schedule.jobs
        assert isinstance(jobs, RunLengthJobs) and len(jobs.runs) == 2
        eager = tuple(jobs)
        built = Schedule(
            jobs=eager,
            makespan=schedule.makespan,
            method=schedule.method,
            metadata=schedule.metadata,
        )
        assert schedule == built and built == schedule
        assert schedule.to_dict() == built.to_dict()
        assert jobs == eager and eager == jobs and hash(jobs) == hash(eager)
        assert jobs != list(eager)
        assert jobs[1:3] == eager[1:3] and isinstance(jobs[1:3], tuple)
        assert jobs[0] == eager[0] and jobs[-1] == eager[-1]
        assert len(jobs) == len(eager) == sum(count for _, count in jobs.runs)
        assert list(reversed(jobs)) == list(reversed(eager))
        assert [plan.job_id for plan in jobs] == list(range(len(eager)))
        assert jobs[0] in jobs and jobs.index(jobs[-1]) == len(eager) - 1
        assert jobs[0] is jobs[0]  # built once, on first access
        with pytest.raises(IndexError):
            jobs[len(eager)]


def test_run_length_jobs_number_each_run_from_its_prototype():
    first = JobPlan(job_id=4, model="toy", cut_position=1, compute_time=0.5, comm_time=0.1)
    second = JobPlan(job_id=0, model="toy", cut_position=0, compute_time=0.1, comm_time=0.5)
    jobs = RunLengthJobs(((first, 2), (second, 3)))
    assert [(p.job_id, p.cut_position) for p in jobs] == [
        (4, 1), (5, 1), (0, 0), (1, 0), (2, 0)
    ]
    assert jobs == RunLengthJobs(((first, 2), (second, 3)))
    with pytest.raises(ValueError, match="run counts"):
        RunLengthJobs(((first, 0),))
