"""Discrete-event engine and the pipeline simulator vs the analytic model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plans import JobPlan, Schedule
from repro.core.scheduling import flow_shop_makespan
from repro.sim.engine import Engine, Resource, SimulationError
from repro.sim.pipeline import simulate_schedule
from repro.sim.trace import render_gantt, validate_against_recurrence


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

def test_engine_orders_events():
    engine = Engine()
    seen = []
    engine.schedule(2.0, lambda: seen.append("b"))
    engine.schedule(1.0, lambda: seen.append("a"))
    engine.schedule(3.0, lambda: seen.append("c"))
    assert engine.run() == 3.0
    assert seen == ["a", "b", "c"]


def test_engine_simultaneous_events_fire_in_schedule_order():
    engine = Engine()
    seen = []
    for tag in ("first", "second", "third"):
        engine.schedule(1.0, lambda t=tag: seen.append(t))
    engine.run()
    assert seen == ["first", "second", "third"]


def test_engine_rejects_negative_delay():
    with pytest.raises(SimulationError):
        Engine().schedule(-0.1, lambda: None)


def test_engine_rejects_nan_delay():
    """NaN slips past ``delay < 0``; on the heap it broke the event order."""
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: seen.append(1.0))
    with pytest.raises(SimulationError, match="nan"):
        engine.schedule(float("nan"), lambda: seen.append("nan"))
    for delay in (2.0, 3.0, 0.5):
        engine.schedule(delay, lambda d=delay: seen.append(d))
    engine.run()
    assert seen == [0.5, 1.0, 2.0, 3.0]


def test_engine_run_until():
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: seen.append(1))
    engine.schedule(5.0, lambda: seen.append(5))
    engine.run(until=2.0)
    assert seen == [1]
    assert engine.pending_events == 1
    engine.run()
    assert seen == [1, 5]


def test_deferred_event_keeps_sequence_across_resume():
    """Pausing at ``until`` must not re-sequence the deferred head.

    The event deferred past ``until`` was scheduled *first*; an event
    scheduled for the same timestamp after the pause must still fire
    second. Popping and re-pushing the head with a fresh sequence
    number would lose the tie.
    """
    engine = Engine()
    seen = []
    engine.schedule(5.0, lambda: seen.append("early-bird"))
    engine.run(until=2.0)
    assert seen == []
    engine.schedule(5.0 - engine.now, lambda: seen.append("latecomer"))
    engine.run()
    assert seen == ["early-bird", "latecomer"]


def test_engine_rejects_time_travel():
    """An event behind the clock (only reachable by corrupting the heap)
    fails loudly instead of moving virtual time backwards."""
    import heapq

    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    heapq.heappush(engine._heap, (0.5, 99, lambda: None))
    with pytest.raises(SimulationError, match="before now"):
        engine.run()
    assert engine.now == 1.0


def test_run_until_does_not_advance_clock_past_last_event():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.schedule(9.0, lambda: None)
    assert engine.run(until=4.0) == 1.0
    assert engine.now == 1.0


def test_on_advance_fires_once_per_event_with_the_new_clock():
    engine = Engine()
    ticks = []
    engine.on_advance = ticks.append
    engine.schedule(1.0, lambda: None)
    engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run()
    assert ticks == [1.0, 1.0, 2.0]


def test_resource_fifo_and_busy_log():
    engine = Engine()
    res = Resource(engine, "cpu")
    ends = []
    res.acquire("a", 2.0, lambda s, e: ends.append((s, e)))
    res.acquire("b", 1.0, lambda s, e: ends.append((s, e)))
    engine.run()
    assert ends == [(0.0, 2.0), (2.0, 3.0)]
    assert res.total_busy_time == 3.0
    assert [b.label for b in res.busy_log] == ["a", "b"]
    assert res.utilization(3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        res.utilization(0)


def test_resource_rejects_negative_duration():
    engine = Engine()
    res = Resource(engine, "cpu")
    with pytest.raises(SimulationError):
        res.acquire("x", -1.0)


def test_resource_rejects_nan_duration():
    """NaN slips past ``duration < 0`` and used to log a (0, 0) grant."""
    engine = Engine()
    res = Resource(engine, "cpu")
    with pytest.raises(SimulationError, match="cpu: .*nan"):
        res.acquire("a", float("nan"))
    engine.run()
    assert res.busy_log == [] and res.total_busy_time == 0.0


def test_resource_callable_duration_priced_at_grant():
    engine = Engine()
    res = Resource(engine, "link")
    grants = []
    res.acquire("a", 2.0, lambda s, e: grants.append((s, e)))
    res.acquire("b", lambda start: start, lambda s, e: grants.append((s, e)))
    engine.run()
    # b granted at t=2, priced there: holds 2 seconds
    assert grants == [(0.0, 2.0), (2.0, 4.0)]


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_resource_rejects_bad_callable_duration(bad):
    engine = Engine()
    res = Resource(engine, "link")
    with pytest.raises(SimulationError, match="link: callable duration returned"):
        res.acquire("y", lambda start: bad)


# ----------------------------------------------------------------------
# pipeline vs analytic recurrence
# ----------------------------------------------------------------------

def _schedule_from_stages(stages) -> Schedule:
    jobs = tuple(
        JobPlan(job_id=i, model="m", cut_position=0, compute_time=f, comm_time=g)
        for i, (f, g) in enumerate(stages)
    )
    return Schedule(
        jobs=jobs,
        makespan=flow_shop_makespan(stages),
        method="test",
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)), min_size=1, max_size=12))
def test_pipeline_matches_recurrence(stages):
    schedule = _schedule_from_stages(stages)
    result = simulate_schedule(schedule)
    validate_against_recurrence(result, schedule)
    assert result.makespan == pytest.approx(flow_shop_makespan(stages))


def test_pipeline_three_stage_adds_cloud_tail():
    jobs = tuple(
        JobPlan(job_id=i, model="m", cut_position=0,
                compute_time=1.0, comm_time=1.0, cloud_time=0.25)
        for i in range(3)
    )
    schedule = Schedule(jobs=jobs, makespan=0.0, method="test")
    two = simulate_schedule(schedule, include_cloud=False)
    three = simulate_schedule(schedule, include_cloud=True)
    assert three.makespan > two.makespan
    assert three.makespan == pytest.approx(two.makespan + 0.25)


def test_pipeline_zero_compute_goes_straight_to_uplink():
    jobs = tuple(
        JobPlan(job_id=i, model="m", cut_position=0, compute_time=0.0, comm_time=2.0)
        for i in range(3)
    )
    schedule = Schedule(jobs=jobs, makespan=6.0, method="CO")
    result = simulate_schedule(schedule)
    assert result.makespan == pytest.approx(6.0)
    assert result.mobile.total_busy_time == 0.0
    assert result.uplink.total_busy_time == pytest.approx(6.0)


def test_pipeline_local_only_never_touches_uplink():
    jobs = tuple(
        JobPlan(job_id=i, model="m", cut_position=0, compute_time=1.5, comm_time=0.0)
        for i in range(4)
    )
    schedule = Schedule(jobs=jobs, makespan=6.0, method="LO")
    result = simulate_schedule(schedule)
    assert result.uplink.total_busy_time == 0.0
    assert result.makespan == pytest.approx(6.0)


def test_eager_discipline_lets_zero_compute_jobs_jump_ahead():
    # job 0: long compute then upload; job 1: nothing to compute
    stages = [(5.0, 1.0), (0.0, 1.0)]
    schedule = _schedule_from_stages(stages)
    strict = simulate_schedule(schedule, discipline="permutation")
    eager = simulate_schedule(schedule, discipline="eager")
    # strict: job 1's upload waits behind job 0's pipeline -> makespan 7
    assert strict.makespan == pytest.approx(7.0)
    # eager: job 1 uploads during job 0's compute -> makespan 6
    assert eager.makespan == pytest.approx(6.0)


def test_unknown_discipline_rejected():
    schedule = _schedule_from_stages([(1.0, 1.0)])
    with pytest.raises(ValueError, match="discipline"):
        simulate_schedule(schedule, discipline="chaotic")


def test_validate_rejects_cloud_runs():
    schedule = _schedule_from_stages([(1.0, 1.0)])
    result = simulate_schedule(schedule, include_cloud=True)
    with pytest.raises(ValueError, match="2-stage"):
        validate_against_recurrence(result, schedule)


def test_traces_record_stage_spans():
    schedule = _schedule_from_stages([(1.0, 2.0), (3.0, 1.0)])
    result = simulate_schedule(schedule)
    first = result.traces[0]
    assert first.compute.start == 0.0 and first.compute.end == 1.0
    assert first.comm.start == 1.0 and first.comm.end == 3.0
    assert first.completion == 3.0
    assert result.traces[1].comm.start == pytest.approx(4.0)  # waits for own compute


def test_render_gantt_shape():
    schedule = _schedule_from_stages([(1.0, 2.0), (3.0, 1.0)])
    result = simulate_schedule(schedule)
    art = render_gantt(result, width=40)
    lines = art.splitlines()
    assert len(lines) == 4
    assert "mobile-cpu" in lines[0] and "#" in lines[0]
    assert "uplink" in lines[1]


def test_render_gantt_empty():
    schedule = _schedule_from_stages([(0.0, 0.0)])
    result = simulate_schedule(schedule)
    assert render_gantt(result) == "(empty timeline)"


def test_pipeline_utilization_consistency(alexnet_table):
    from repro.core.joint import jps_line

    schedule = jps_line(alexnet_table, 12)
    result = simulate_schedule(schedule)
    validate_against_recurrence(result, schedule)
    horizon = result.makespan
    total = result.mobile.utilization(horizon) + result.uplink.utilization(horizon)
    # a balanced JPS pipeline keeps both resources mostly busy
    assert total > 1.0


# ----------------------------------------------------------------------
# FIFO fairness under simultaneous acquires — the serving gateway's
# dispatch correctness rests on same-timestamp events serving in
# schedule order
# ----------------------------------------------------------------------

def test_resource_fifo_under_simultaneous_acquires():
    """Acquires issued by events at the same instant serve in event order."""
    engine = Engine()
    res = Resource(engine, "cpu")
    order = []
    for tag, duration in (("a", 3.0), ("b", 1.0), ("c", 2.0)):
        engine.schedule(
            1.0,
            lambda t=tag, d=duration: res.acquire(
                t, d, lambda s, e, t=t: order.append((t, s, e))
            ),
        )
    engine.run()
    assert [t for t, _, _ in order] == ["a", "b", "c"]
    assert [label.label for label in res.busy_log] == ["a", "b", "c"]
    # strict back-to-back service, no overlap and no idle gaps
    assert order == [("a", 1.0, 4.0), ("b", 4.0, 5.0), ("c", 5.0, 7.0)]


def test_resource_fifo_fairness_across_waves():
    """Later same-time waves queue strictly behind earlier ones."""
    engine = Engine()
    res = Resource(engine, "link")
    served = []
    def grab(tag):
        return lambda: res.acquire(tag, 1.0, lambda s, e, t=tag: served.append(t))
    for wave, tags in ((0.0, ("w0-a", "w0-b")), (1.0, ("w1-a", "w1-b"))):
        for tag in tags:
            engine.schedule(wave, grab(tag))
    engine.run()
    assert served == ["w0-a", "w0-b", "w1-a", "w1-b"]


def test_resource_fifo_with_zero_durations_keeps_order():
    """Zero-length holds (LO comm stages) must not let later work overtake."""
    engine = Engine()
    res = Resource(engine, "cpu")
    served = []
    for tag, duration in (("long", 2.0), ("zero1", 0.0), ("zero2", 0.0)):
        res.acquire(tag, duration, lambda s, e, t=tag: served.append(t))
    engine.run()
    assert served == ["long", "zero1", "zero2"]


# ----------------------------------------------------------------------
# span export: the Gantt and the Chrome trace share one span model
# ----------------------------------------------------------------------

def test_validate_empty_schedule_trivially_passes():
    schedule = Schedule(jobs=(), makespan=0.0, method="test")
    result = simulate_schedule(schedule)
    validate_against_recurrence(result, schedule)  # must not raise


def test_validate_rejects_trace_schedule_length_mismatch():
    two = _schedule_from_stages([(1.0, 1.0), (2.0, 1.0)])
    one = _schedule_from_stages([(1.0, 1.0)])
    result = simulate_schedule(two)
    with pytest.raises(AssertionError, match="trace/schedule mismatch"):
        validate_against_recurrence(result, one)


def test_pipeline_spans_carry_lanes_and_attributes():
    from repro.sim.trace import pipeline_spans

    schedule = _schedule_from_stages([(1.0, 2.0), (3.0, 1.0)])
    result = simulate_schedule(schedule)
    spans = pipeline_spans(result)
    assert [(s.lane, s.name) for s in spans] == [
        (("job 0", "mobile-cpu"), "job0/compute"),
        (("job 0", "uplink"), "job0/comm"),
        (("job 1", "mobile-cpu"), "job1/compute"),
        (("job 1", "uplink"), "job1/comm"),
    ]
    for span, trace in zip(spans[::2], result.traces):
        assert span.attributes["job"] == trace.job_id
        assert span.attributes["resource"] == "mobile-cpu"
        assert (span.start, span.end) == (trace.compute.start, trace.compute.end)


def test_write_pipeline_trace_emits_valid_chrome_json(tmp_path):
    import json

    from repro.obs import validate_chrome_events
    from repro.sim.trace import write_pipeline_trace

    schedule = _schedule_from_stages([(1.0, 2.0), (3.0, 1.0)])
    result = simulate_schedule(schedule)
    path = write_pipeline_trace(result, tmp_path / "t.json")
    events = json.loads(path.read_text())
    assert validate_chrome_events(events) == len(events)
    assert sum(e["ph"] == "X" for e in events) == 4


def test_gantt_and_chrome_export_share_span_windows():
    """render_gantt draws exactly the spans pipeline_spans reports."""
    from repro.sim.trace import pipeline_spans

    schedule = _schedule_from_stages([(1.0, 2.0), (3.0, 1.0)])
    result = simulate_schedule(schedule)
    spans = pipeline_spans(result)
    art = render_gantt(result, width=40)
    cpu_row = next(line for line in art.splitlines() if "mobile-cpu" in line)
    cpu_busy = sum(s.end - s.start for s in spans if s.lane[1] == "mobile-cpu")
    # bar mass matches simulated busy time (one '#' per width/makespan cell)
    scale = 40 / result.makespan
    assert abs(cpu_row.count("#") - cpu_busy * scale) <= 2


def test_render_gantt_rejects_bad_width():
    schedule = _schedule_from_stages([(1.0, 1.0)])
    result = simulate_schedule(schedule)
    with pytest.raises(ValueError, match="width"):
        render_gantt(result, width=0)
