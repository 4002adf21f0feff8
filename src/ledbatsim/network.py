"""Network path: drop-tail FIFO bottleneck on the data direction, clean fixed-delay
return path for acks.

Service time is exact integer arithmetic (bytes * 8 * 1e6 // bps), so a 1500 B
packet takes 1200 us at 10 Mbps, 6000 us at 2 Mbps, 24000 us at 500 kbps. The
packet in service does not occupy a buffer slot.
"""

from collections import deque

from .engine import Engine, EventKind


class Packet:
    __slots__ = (
        "flow_id",
        "seq",
        "size_bytes",
        "sent_at_sender_clock",
        "is_ack",
        "ack_of_seq",
        "measured_delay_us",
        "is_retransmission",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int,
        size_bytes: int,
        sent_at_sender_clock: int,
        is_ack: bool = False,
        ack_of_seq: int = 0,
        measured_delay_us: int = 0,
        is_retransmission: bool = False,
    ):
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.sent_at_sender_clock = sent_at_sender_clock
        self.is_ack = is_ack
        self.ack_of_seq = ack_of_seq
        self.measured_delay_us = measured_delay_us
        self.is_retransmission = is_retransmission

    def __repr__(self):
        tag = "ack" if self.is_ack else "data"
        return f"Packet({tag} flow={self.flow_id} seq={self.seq})"


def service_time_us(size_bytes: int, capacity_bps: int) -> int:
    return size_bytes * 8 * 1_000_000 // capacity_bps


class Bottleneck:
    """Drop-tail FIFO queue of buffer_pkts slots feeding a fixed-rate transmitter.

    A packet that completes service is counted delivered and handed to the far
    end after prop_delay_us. Counters satisfy
        offered == delivered + dropped + len(queue) + (1 if busy else 0)
    at all times.
    """

    def __init__(
        self,
        engine: Engine,
        capacity_bps: int,
        prop_delay_us: int,
        buffer_pkts: int,
    ):
        self.engine = engine
        self.capacity_bps = capacity_bps
        self.prop_delay_us = prop_delay_us
        self.buffer_pkts = buffer_pkts

        self.queue: deque[Packet] = deque()
        self.in_service: Packet | None = None

        self.offered = 0
        self.dropped = 0
        self.delivered = 0
        self.bytes_by_flow: dict[int, int] = {}  # cumulative delivered bytes
        self.drops: list[tuple[int, int, int]] = []  # (t_us, flow_id, seq)

        engine.register(EventKind.LINK_SERVICE_DONE, self._service_done)

    def enqueue(self, pkt: Packet) -> bool:
        """Offer a packet; returns True if accepted, False if tail-dropped."""
        self.offered += 1
        if self.in_service is None:
            self.queue.append(pkt)
            self._start_next()
            return True
        if len(self.queue) < self.buffer_pkts:
            self.queue.append(pkt)
            return True
        self.dropped += 1
        self.drops.append((self.engine.now, pkt.flow_id, pkt.seq))
        return False

    def _start_next(self) -> None:
        pkt = self.queue.popleft()
        self.in_service = pkt
        self.engine.schedule(
            self.engine.now + service_time_us(pkt.size_bytes, self.capacity_bps),
            EventKind.LINK_SERVICE_DONE,
        )

    def _service_done(self, _payload) -> None:
        pkt = self.in_service
        self.in_service = None
        self.delivered += 1
        fid = pkt.flow_id
        self.bytes_by_flow[fid] = self.bytes_by_flow.get(fid, 0) + pkt.size_bytes
        self.engine.schedule_in(self.prop_delay_us, EventKind.PACKET_ARRIVAL, pkt)
        if self.queue:
            self._start_next()

    def queue_pkts(self) -> int:
        return len(self.queue) + (1 if self.in_service is not None else 0)

    def conservation_ok(self) -> bool:
        return self.offered == self.delivered + self.dropped + len(self.queue) + (
            1 if self.in_service is not None else 0
        )


class AckPath:
    """Return path for acks: fixed delay, never drops, never reorders."""

    def __init__(self, engine: Engine, delay_us: int):
        self.engine = engine
        self.delay_us = delay_us

    def send(self, ack: Packet) -> None:
        self.engine.schedule_in(self.delay_us, EventKind.PACKET_ARRIVAL, ack)
