"""Event queue: ordering, payload dispatch, clock discipline."""

import pytest

from ledbatsim.engine import Engine, EventKind, SchedulingInPast


def _collect(engine):
    fired = []
    for kind in EventKind:
        engine.register(kind, fired.append)
    return fired


def test_dispatch_in_time_order():
    eng = Engine()
    fired = _collect(eng)
    eng.schedule(50, EventKind.SIM_END, "c")
    eng.schedule(10, EventKind.SIM_END, "a")
    eng.schedule(30, EventKind.SIM_END, "b")
    eng.run(until=100)
    assert fired == ["a", "b", "c"]
    assert eng.now == 50


def test_equal_times_dispatch_in_insertion_order():
    eng = Engine()
    fired = _collect(eng)
    for tag in "abcde":
        eng.schedule(7, EventKind.STATS_SAMPLE, tag)
    eng.run(until=7)
    assert fired == list("abcde")


def test_schedule_in_past_raises():
    eng = Engine()
    _collect(eng)
    eng.schedule(5, EventKind.SIM_END)
    eng.run(until=5)
    assert eng.now == 5
    with pytest.raises(SchedulingInPast):
        eng.schedule(4, EventKind.SIM_END)
    # scheduling exactly at the current clock is allowed
    eng.schedule(5, EventKind.SIM_END)


def test_run_until_leaves_later_events_queued():
    eng = Engine()
    fired = _collect(eng)
    eng.schedule(10, EventKind.SIM_END, "early")
    eng.schedule(20, EventKind.SIM_END, "late")
    eng.run(until=15)
    assert fired == ["early"]
    assert eng.now == 10
    eng.run(until=25)
    assert fired == ["early", "late"]


def test_handler_rescheduling_keeps_total_order():
    eng = Engine()
    seen = []

    def tick(_payload):
        seen.append(eng.now)
        if len(seen) < 5:
            eng.schedule(eng.now + 10, EventKind.STATS_SAMPLE)

    eng.register(EventKind.STATS_SAMPLE, tick)
    eng.schedule(0, EventKind.STATS_SAMPLE)
    eng.run(until=1000)
    assert seen == [0, 10, 20, 30, 40]


def test_same_schedule_same_dispatch_sequence():
    def drive():
        eng = Engine()
        order = []
        eng.register(EventKind.SIM_END, lambda payload: order.append((eng.now, payload)))
        for i, t in enumerate([5, 3, 3, 9, 1, 5]):
            eng.schedule(t, EventKind.SIM_END, i)
        eng.run(until=10)
        return order

    assert drive() == drive() == [(1, 4), (3, 1), (3, 2), (5, 0), (5, 5), (9, 3)]
