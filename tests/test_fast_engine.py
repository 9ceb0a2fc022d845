"""Fast-path contracts of the one event core.

``Engine.run`` drains the heap through cached locals, and ``Resource``
keeps its one in-flight grant in slots and completes it through a bound
method cached at construction, so a grant allocates no closure. These
tests pin the orderings those fast paths must keep when handlers
re-enter the engine mid-drain — scheduling, failing or acquiring from
inside a callback — which the up-front cases in ``test_sim.py`` do not
reach.
"""

import pytest

from repro.sim.engine import Engine, Resource, SimulationError


# ----------------------------------------------------------------------
# drain loop: handlers that schedule while the heap is being drained
# ----------------------------------------------------------------------

def test_fast_engine_orders_events():
    """An event scheduled mid-drain for before the queued ones fires first."""
    engine = Engine()
    seen = []

    def root() -> None:
        seen.append(("root", engine.now))
        engine.schedule(0.5, lambda: seen.append(("child", engine.now)))

    engine.schedule(1.0, root)
    engine.schedule(2.0, lambda: seen.append(("late", engine.now)))
    assert engine.run() == 2.0
    assert seen == [("root", 1.0), ("child", 1.5), ("late", 2.0)]


def test_fast_engine_simultaneous_events_fire_in_schedule_order():
    """A zero-delay event spawned mid-drain queues behind its peers."""
    engine = Engine()
    seen = []

    def first() -> None:
        seen.append("first")
        engine.schedule(0.0, lambda: seen.append("spawned"))

    engine.schedule(1.0, first)
    engine.schedule(1.0, lambda: seen.append("second"))
    engine.run()
    assert seen == ["first", "second", "spawned"]


def test_fast_engine_rejects_negative_delay():
    """A bad delay raised inside a handler leaves clock and heap usable."""
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: engine.schedule(-0.1, lambda: seen.append("never")))
    engine.schedule(2.0, lambda: seen.append("after"))
    with pytest.raises(SimulationError, match="delay must be >= 0"):
        engine.run()
    assert engine.now == 1.0
    assert engine.pending_events == 1
    engine.run()
    assert seen == ["after"]


def test_fast_engine_run_until_and_pending_events():
    """``until`` is inclusive, and events added between runs are drained."""
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: seen.append(1))
    engine.schedule(5.0, lambda: seen.append(5))
    engine.run(until=2.0)
    assert seen == [1]
    assert engine.pending_events == 1
    engine.schedule(1.0, lambda: seen.append(2))  # clock is 1.0: fires at 2.0
    engine.run(until=2.0)
    assert seen == [1, 2]
    assert engine.pending_events == 1
    engine.run()
    assert seen == [1, 2, 5]
    assert engine.pending_events == 0


# ----------------------------------------------------------------------
# closure-free grants: one in-flight slot, completion through a cached
# bound method
# ----------------------------------------------------------------------

def test_fast_resource_fifo_and_busy_log():
    """The O(1) busy accumulator agrees with the busy log it shadows."""
    engine = Engine()
    res = Resource(engine, "cpu")
    durations = [0.5, 0.25, 1.0, 0.0, 2.0]
    ends = []
    for i, duration in enumerate(durations):
        res.acquire(f"j{i}", duration, lambda s, e: ends.append((s, e)))
    engine.run()
    assert [(b.start, b.end) for b in res.busy_log] == ends
    assert [b.label for b in res.busy_log] == [f"j{i}" for i in range(len(durations))]
    assert res.total_busy_time == pytest.approx(sum(b.end - b.start for b in res.busy_log))
    assert res.total_busy_time == pytest.approx(sum(durations))
    assert ends[-1][1] == pytest.approx(sum(durations))


def test_fast_resource_fifo_under_simultaneous_acquires():
    """An acquire made from ``on_done`` queues behind earlier waiters.

    The completion callback runs after the in-flight slot is freed, so
    the re-entrant acquire grants the queue head at once and overwrites
    the slot; the finished grant's own start and label must already be
    recorded by then.
    """
    engine = Engine()
    res = Resource(engine, "cpu")
    order = []

    def done(tag):
        def on_done(start: float, end: float) -> None:
            order.append((tag, start, end))
            if tag == "a":
                res.acquire("a2", 0.5, done("a2"))
        return on_done

    for tag, duration in (("a", 3.0), ("b", 1.0)):
        engine.schedule(1.0, lambda t=tag, d=duration: res.acquire(t, d, done(t)))
    engine.run()
    assert order == [("a", 1.0, 4.0), ("b", 4.0, 5.0), ("a2", 5.0, 5.5)]
    assert [(b.label, b.start, b.end) for b in res.busy_log] == order


def test_fast_resource_zero_durations_keep_order():
    """Zero-length grants, fixed or priced at grant, keep FIFO order."""
    engine = Engine()
    res = Resource(engine, "cpu")
    served = []
    requests = (
        ("long", 2.0),
        ("zero1", 0.0),
        ("priced", lambda start: 0.0),
        ("zero2", 0.0),
    )
    for tag, duration in requests:
        res.acquire(tag, duration, lambda s, e, t=tag: served.append((t, s, e)))
    engine.run()
    assert served == [
        ("long", 0.0, 2.0),
        ("zero1", 2.0, 2.0),
        ("priced", 2.0, 2.0),
        ("zero2", 2.0, 2.0),
    ]
    assert [b.label for b in res.busy_log] == ["long", "zero1", "priced", "zero2"]
    assert res.total_busy_time == 2.0
