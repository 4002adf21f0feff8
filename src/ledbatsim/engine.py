"""Discrete-event core: integer-microsecond clock, ordered event queue, run loop.

All timestamps are non-negative integers in microseconds. The queue is kept
sorted by time in pairs of parallel lists: one list holds each event's fire
time as a plain int, the other its (kind, payload) at the same index. Each
event is dispatched by calling the handler registered for its kind with the
payload alone. A new event goes after every queued event due at or before its
time, so events with equal fire times dispatch in the order they were
scheduled, and a run is a pure function of the schedule calls made against it.

Inserting into a list shifts every entry behind the insertion point, so a
long queue is split at a time bound: the front pair (`_times`, `_events`)
holds the events due at or before `_bound`, about FRONT of them, and the
later pair holds the rest. `run` reads the front by index and deletes what it
dispatched once it has read the whole front. An event due soon, such as the
end of a packet's service, then shifts only what is left of the front.
"""

from bisect import bisect_right
from enum import IntEnum, auto

# The front is split once it holds more than 2 * FRONT events.
FRONT = 256
_NO_BOUND = 1 << 63  # past any clock value: a queue of at most 2 * FRONT is all front


class EventKind(IntEnum):
    PACKET_ARRIVAL = auto()
    LINK_SERVICE_DONE = auto()
    PACING_TIMER = auto()
    FLOW_START = auto()
    SIM_END = auto()
    STATS_SAMPLE = auto()


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the current clock."""


class Engine:
    """Event queue plus monotone clock.

    Handlers are registered per event kind with register(); dispatch order is
    by fire time, then by schedule order, strictly total.
    """

    def __init__(self):
        self.now = 0
        self._times: list[int] = []
        self._events: list[tuple] = []
        self._later_times: list[int] = []
        self._later_events: list[tuple] = []
        self._bound = _NO_BOUND  # front events are due at or before it, later ones after
        self._handlers = {}

    def register(self, kind: EventKind, handler) -> None:
        """Bind handler(payload) to an event kind. Last registration wins."""
        self._handlers[kind] = handler

    def schedule(self, fire_at: int, kind: EventKind, payload=None) -> None:
        """Queue an event at absolute time fire_at (>= now)."""
        if fire_at < self.now:
            raise SchedulingInPast(
                f"fire_at={fire_at} is before current clock {self.now}"
            )
        # every event `run` has dispatched but not yet deleted is due at or
        # before now, so the new one lands behind all of them too
        if fire_at > self._bound:
            times, events = self._later_times, self._later_events
        else:
            times, events = self._times, self._events
        i = bisect_right(times, fire_at)
        times.insert(i, fire_at)
        events.insert(i, (kind, payload))

    def run(self, until: int) -> None:
        """Dispatch events with fire_at <= until in order.

        The clock only advances through dispatched events; with an empty queue
        it stays where it was. Events beyond `until` remain queued.
        """
        times = self._times
        events = self._events
        handlers = self._handlers
        i = -1
        try:
            while True:
                if not times or len(times) > 2 * FRONT:
                    self._refront()
                    if not times:
                        return
                # handlers only add events, each behind the one being
                # dispatched, so the front stays at least as long as read here
                for i in range(len(times)):
                    fire_at = times[i]
                    if fire_at > until:
                        i -= 1
                        return
                    self.now = fire_at
                    kind, payload = events[i]
                    handlers[kind](payload)
                del times[:i + 1]
                del events[:i + 1]
                i = -1
        finally:
            # events 0..i are dispatched, even when a handler raised
            del times[:i + 1]
            del events[:i + 1]

    def _refront(self) -> None:
        """Split an overlong front, or refill an empty one from the later
        lists, so that the front holds the first FRONT queued events and every
        event tied with the last of them; all of the queue if it is no longer
        than 2 * FRONT."""
        times, events = self._times, self._events
        later_times, later_events = self._later_times, self._later_events
        if times:
            self._bound = times[FRONT - 1]
            cut = bisect_right(times, self._bound)
            later_times[:0] = times[cut:]
            later_events[:0] = events[cut:]
            del times[cut:]
            del events[cut:]
            return
        if len(later_times) > 2 * FRONT:
            self._bound = later_times[FRONT - 1]
            cut = bisect_right(later_times, self._bound)
        else:
            self._bound = _NO_BOUND
            cut = len(later_times)
        times += later_times[:cut]
        events += later_events[:cut]
        del later_times[:cut]
        del later_events[:cut]

    def clear(self) -> None:
        """Drop every queued event and every handler.

        Both point back at the objects a simulation wired together, so a
        finished run calls this to be freed without the cycle collector.
        """
        for queued in (self._times, self._events, self._later_times, self._later_events):
            queued.clear()
        self._handlers.clear()
