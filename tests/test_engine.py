"""Event queue: ordering, payload dispatch, clock discipline."""

import heapq
import itertools
import random

import pytest

from ledbatsim.engine import FRONT, Engine, EventKind, SchedulingInPast


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


# -- the queue against a reference heap ------------------------------------------


class _HeapEngine:
    """The reference queue: a heap of (fire_at, seq, kind, payload), where
    seq counts the schedule calls, so equal times dispatch in schedule order."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._handlers = {}

    def register(self, kind, handler):
        self._handlers[kind] = handler

    def schedule(self, fire_at, kind, payload=None):
        if fire_at < self.now:
            raise SchedulingInPast(fire_at)
        heapq.heappush(self._heap, (fire_at, self._seq, kind, payload))
        self._seq += 1

    def run(self, until):
        while self._heap and self._heap[0][0] <= until:
            fire_at, _seq, kind, payload = heapq.heappop(self._heap)
            self.now = fire_at
            self._handlers[kind](payload)


class _Driver:
    """Schedules and logs the same random program against any queue.

    Each dispatch logs (now, tag) and schedules 0, 1 or 2 events a few
    microseconds on, often with a zero delay, so many events share a time;
    the count keeps the queue between `size` and twice that. The choices
    come from one seeded stream read in dispatch order, so two queues give
    the same log exactly when they dispatch in the same order.
    """

    DELAYS = (0, 0, 1, 2, 2, 5, 40)

    def __init__(self, eng, seed, size, extra=None):
        self.eng = eng
        self.rng = random.Random(seed)
        self.size = size
        self.log = []
        self.pending = 0  # scheduled, not yet dispatched
        self.held = []  # dispatched events the front held, at each dispatch
        self.children = True
        self.extra = extra or (lambda driver: None)
        self._tags = itertools.count()
        eng.register(EventKind.PACKET_ARRIVAL, self.on_event)

    def schedule(self, fire_at):
        self.pending += 1
        self.eng.schedule(fire_at, EventKind.PACKET_ARRIVAL, next(self._tags))

    def on_event(self, tag):
        self.pending -= 1
        eng = self.eng
        if isinstance(eng, Engine):
            queued = len(eng._times) + len(eng._later_times)
            self.held.append(queued - self.pending)
        now = eng.now
        self.log.append((now, tag))
        if self.children:
            n = self.rng.choice((0, 1, 2))
            n = 2 if self.pending < self.size else 0 if self.pending > 2 * self.size else n
            for _ in range(n):
                self.schedule(now + self.rng.choice(self.DELAYS))
        self.extra(self)


def _differential(seed, size, slice_us, until, extra=None):
    """Run one program on both queues, sliced the way bench/hostspeed.py
    slices `run`, then dispatch what is left past `until`; return the new
    queue's driver after checking its log against the reference's."""
    drivers = []
    for eng in (Engine(), _HeapEngine()):
        d = _Driver(eng, seed, size, extra)
        start = random.Random(seed)
        for _ in range(size):
            d.schedule(start.randrange(50))
        t = 0
        while t < until:
            t = min(t + slice_us, until)
            eng.run(t)
        d.log.append(("until", eng.now))
        d.children = False
        eng.run(10 ** 9)
        drivers.append(d)
    new, ref = drivers
    assert len(new.log) > 10 * FRONT
    assert new.log == ref.log
    return new


# the queue at about 3 to 6 events, 40 to 80, across the front's split at
# 2 * FRONT, and split for the whole run
@pytest.mark.parametrize("size", [3, 40, FRONT + 50, 6 * FRONT])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("slice_us", [1, 7, 10 ** 9])
def test_queue_dispatches_like_a_reference_heap(seed, size, slice_us):
    # about 20 * FRONT events before `until`
    new = _differential(seed, size, slice_us, 120 * FRONT // size + 50)
    # the dispatched prefix is dropped as the run goes, so the queue holds
    # at most 2 * FRONT dispatched events however long the run
    assert max(new.held) <= 2 * FRONT
    if slice_us > 1:
        assert max(new.held) > 1


def test_an_event_at_now_from_the_event_before_a_prefix_drop():
    # with 2 * FRONT events queued, `run` reads all of them as its front and
    # drops them right after dispatching the last; that event's handler
    # queues two more at its own time, behind the others due then
    def at_now(driver):
        if len(driver.log) == 2 * FRONT:
            driver.schedule(driver.eng.now)
            driver.schedule(driver.eng.now)

    new = _differential(0, 2 * FRONT, 10 ** 9, 60, extra=at_now)
    assert new.held[2 * FRONT - 1:2 * FRONT + 1] == [2 * FRONT, 1]


def test_a_raising_handler_leaves_its_event_dispatched():
    logs = []
    for eng in (Engine(), _HeapEngine()):
        fired = []

        def handler(tag, eng=eng, fired=fired):
            fired.append((eng.now, tag))
            if tag == 3:
                raise ValueError(tag)
        eng.register(EventKind.SIM_END, handler)
        for tag in range(6 * FRONT):
            eng.schedule(tag // 3, EventKind.SIM_END, tag)
        with pytest.raises(ValueError):
            eng.run(10 ** 9)
        eng.run(10 ** 9)
        logs.append(fired)
    assert logs[0] == logs[1]
    assert [tag for _t, tag in logs[0]] == list(range(6 * FRONT))
