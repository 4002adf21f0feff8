"""Network path: drop-tail FIFO bottleneck on the data direction, clean fixed-delay
return path for acks.

Every data packet of a run has the scenario's packet_bytes and acks never reach
the link, so the link serves each packet in the run's one service_us, exact in
integers (bytes * 8 * 1e6 // bps: 1500 B take 1200 us at 10 Mbps, 24000 us at
500 kbps). Its deque's head is the packet in service, which takes no buffer slot.
"""

from collections import deque
from dataclasses import dataclass

from .engine import Engine, EventKind


@dataclass(slots=True, eq=False)
class Packet:
    flow_id: int
    seq: int
    size_bytes: int
    sent_at_sender_clock: int
    is_ack: bool = False
    ack_of_seq: int = 0
    measured_delay_us: int = 0


# bound once: an enum member lookup costs several times a global's, once per packet
PACKET_ARRIVAL = EventKind.PACKET_ARRIVAL
LINK_SERVICE_DONE = EventKind.LINK_SERVICE_DONE


def service_time_us(size_bytes: int, rate_bps: int) -> int:
    return size_bytes * 8 * 1_000_000 // rate_bps


class Bottleneck:
    """Drop-tail FIFO of buffer_pkts waiting slots; the link serves each packet in service_us.

    queue[0] is in service, so the deque holds at most buffer_pkts + 1 packets.
    A packet that completes service is counted delivered and handed to the far
    end after prop_delay_us. Counters satisfy
        offered == delivered + len(drops) + len(queue)
    at all times.
    """

    def __init__(
        self,
        engine: Engine,
        service_us: int,
        prop_delay_us: int,
        buffer_pkts: int,
    ):
        self.engine = engine
        self.service_us = service_us
        self.prop_delay_us = prop_delay_us
        self.buffer_pkts = buffer_pkts

        self.queue: deque[Packet] = deque()

        self.offered = 0
        self.delivered = 0
        self.bytes_by_flow: dict[int, int] = {}  # cumulative delivered bytes
        self.drops: list[tuple[int, int, int]] = []  # (t_us, flow_id, seq)

        engine.register(EventKind.LINK_SERVICE_DONE, self._service_done)

    def enqueue(self, pkt: Packet) -> bool:
        """Offer a packet; returns True if accepted, False if tail-dropped."""
        self.offered += 1
        queue = self.queue
        if len(queue) > self.buffer_pkts:
            self.drops.append((self.engine.now, pkt.flow_id, pkt.seq))
            return False
        queue.append(pkt)
        if len(queue) == 1:  # the link was idle: serve it at once
            engine = self.engine
            engine.schedule(engine.now + self.service_us, LINK_SERVICE_DONE)
        return True

    def _service_done(self, _payload) -> None:
        queue = self.queue
        pkt = queue.popleft()
        self.delivered += 1
        fid = pkt.flow_id
        bytes_by_flow = self.bytes_by_flow
        bytes_by_flow[fid] = bytes_by_flow.get(fid, 0) + pkt.size_bytes
        engine = self.engine
        now = engine.now
        engine.schedule(now + self.prop_delay_us, PACKET_ARRIVAL, pkt)
        if queue:
            engine.schedule(now + self.service_us, LINK_SERVICE_DONE)

    def conservation_ok(self) -> bool:
        return self.offered == self.delivered + len(self.drops) + len(self.queue)


class AckPath:
    """Return path for acks: fixed delay, never drops, never reorders."""

    def __init__(self, engine: Engine, delay_us: int):
        self.engine = engine
        self.delay_us = delay_us

    def send(self, ack: Packet) -> None:
        engine = self.engine
        engine.schedule(engine.now + self.delay_us, PACKET_ARRIVAL, ack)
