"""Discrete-event core: integer-microsecond clock, ordered event queue, run loop.

All timestamps are non-negative integers in microseconds. The queue is a heap
of plain (fire_at, seq, kind, payload) tuples; each is dispatched by calling
the handler registered for its kind with the payload alone. Events with equal
fire times dispatch in insertion order, so a run is a pure function of the
schedule calls made against it.
"""

from enum import IntEnum, auto
from heapq import heappop, heappush


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
    (fire_at, insertion seq), strictly total.
    """

    def __init__(self):
        self.now = 0
        self._heap: list[tuple] = []
        self._seq = 0
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
        heappush(self._heap, (fire_at, self._seq, kind, payload))
        self._seq += 1

    def run(self, until: int) -> None:
        """Dispatch events with fire_at <= until in order.

        The clock only advances through dispatched events; with an empty queue
        it stays where it was. Events beyond `until` remain queued.
        """
        heap = self._heap
        handlers = self._handlers
        # pop before the time test, so that each dispatch indexes the heap
        # once; the first event past `until` goes back unchanged
        while heap:
            fire_at, seq, kind, payload = heappop(heap)
            if fire_at > until:
                heappush(heap, (fire_at, seq, kind, payload))
                return
            self.now = fire_at
            handlers[kind](payload)
