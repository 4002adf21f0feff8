"""Endpoint machinery shared by both controllers.

Receiver: turns every arriving data packet into its ack. The ack is the data
packet's own object, rewritten in place, since nothing holds a delivered
packet. It keeps the data's flow_id, which routes it back to its sender, and
adds what the sender reads: is_ack, the cumulative in-order sequence
(ack_of_seq) and the one-way delay measured on the receiver's own clock
(measured_delay_us). Its other fields are left as the data packet had them
and are not read.

The sender closes the loop: once on_ack has read an ack, nothing refers to it
but the sender, which keeps it as its one spare packet. The next send or
resend rewrites the spare's seq, sent_at_sender_clock and is_ack and lets go
of it; a transmission builds a new Packet only when the sender holds no
spare. So one object serves a packet in flight, data then ack then the next
data, and a run builds about one Packet per packet in flight.

SenderBase: sequencing, window gating, loss detection, and retransmission.
Loss is inferred from 3 duplicate cumulative acks (plus a coarse safety
timeout of 2x the largest observed RTT, at least 1 s, for the tiny-window
deadlock case). While a recovery episode is open, each partial cumulative
advance retransmits the next hole immediately; there is no fast-recovery
window inflation anywhere. Window halving is rate-limited to once per
smoothed RTT by the controller subclasses via _halve().

Both window laws count packets, and nothing here knows a packet's size: the
scenario's one packet size reaches only the link's service time and the
trace's delivered bytes, both set by the harness.

Flightsize is next_seq-1-highest_acked: packets sent and not yet cumulatively
acked, including any that were dropped but not yet recovered. A new send
requires cwnd - flightsize >= 1, which keeps flightsize within ceil(cwnd) at
send time; right after a halving flightsize may exceed cwnd until acks drain.

FlowSpec: the one configuration of a flow, from scenario file to sender.
"""

from dataclasses import dataclass

from .engine import Engine, EventKind
from .network import Bottleneck, Packet

DUPACK_THRESHOLD = 3
MIN_TIMEOUT_US = 1_000_000
MIN_CWND_PKTS = 1.0  # window floor, in packets, for both controllers
PACING_TIMER = EventKind.PACING_TIMER  # bound once, as in network.py


@dataclass
class FlowSpec:
    """One flow as a scenario states it; the senders read it at construction.

    Bounds are checked by Scenario.validate, once per run.
    """

    kind: str  # "ledbat" | "tcp"
    start_s: float = 0.0
    slow_start: bool = False
    pacing: bool = True  # ledbat only; tcp always sends in batch
    target_ms: float = 25.0
    gain: tuple[int, int] | None = None  # rational per-us gain; None -> 1/target
    base_histo_min: int = 2
    clock_offset_us: int = 0
    pin_zero_queuing_delay: bool = False  # fault injection: estimator output forced to 0

    @property
    def start_us(self) -> int:
        return int(round(self.start_s * 1_000_000))

    @property
    def target_us(self) -> int:
        return int(round(self.target_ms * 1000))


class Receiver:
    """Cumulative-ack receiver with an out-of-order hold buffer.

    It turns each delivered data packet into that packet's ack in place.
    """

    def __init__(self, clock_offset_us: int = 0):
        self.clock_offset_us = clock_offset_us
        self.highest_in_order = 0
        self._buffered: set[int] = set()

    def on_data(self, pkt: Packet, now: int) -> Packet:
        """Ingest a data packet and return it rewritten as its ack.

        measured_delay is the receiver-clock arrival time minus the sender's
        departure stamp; clock_offset_us models the receiver-minus-sender
        clock disagreement, so the value can be negative.
        """
        measured = now + self.clock_offset_us - pkt.sent_at_sender_clock
        seq = pkt.seq
        expected = self.highest_in_order + 1
        if seq == expected:
            buffered = self._buffered
            while seq + 1 in buffered:
                seq += 1
                buffered.remove(seq)
            self.highest_in_order = seq
        elif seq > expected:
            self._buffered.add(seq)
        # else: stale duplicate, still re-ack the cumulative point
        pkt.is_ack = True
        pkt.ack_of_seq = self.highest_in_order
        pkt.measured_delay_us = measured
        return pkt


class SenderBase:
    """Window-based sender. Subclasses implement the congestion controller.

    Each ack becomes the spare packet once the controller hooks have read it
    (on a duplicate, before it can open recovery), replacing any spare still
    held; the next transmission rewrites the spare and clears it, so no
    object is in the link and in the spare at once.
    """

    pacing = False  # a pacing subclass defines pacing_gap_us(), read before each send
    max_update_ratio = 0.0  # a delay-based subclass records its largest window update

    def __init__(self, engine: Engine, flow_id: int, link: Bottleneck):
        self.engine = engine
        self.flow_id = flow_id
        self.link = link

        self.cwnd = MIN_CWND_PKTS
        self.next_seq = 1
        self.highest_acked = 0
        self.dupacks = 0
        self.rtt_est_us: int | None = None
        self.max_rtt_us = 0
        self.last_progress_at = 0  # start, last cumulative advance or last timeout

        self._send_times: dict[int, int] = {}
        self._next_send_at = 0
        self._pacing_armed = False
        self._recovery_point = 0
        self._spare: Packet | None = None  # a processed ack, rewritten by the next send

        self.retransmits = 0
        self.halvings: list[tuple[int, float, int]] = []  # (t, cwnd_after, rtt_gate)
        self.timeouts: list[int] = []

    # -- controller hooks -------------------------------------------------

    def on_delay_sample(self, ack: Packet, now: int) -> None:
        """Every ack (duplicates included) carries a one-way delay sample."""

    def on_new_ack(self, ack: Packet, newly_acked: int, now: int) -> None:
        raise NotImplementedError

    def on_loss(self, now: int) -> None:
        raise NotImplementedError

    # -- sending -----------------------------------------------------------

    def start(self, now: int) -> None:
        self.last_progress_at = now
        self.try_send(now)

    def try_send(self, now: int) -> None:
        # A future send time means a positive gap: only a paced flow with an
        # RTT estimate sets one, and from then on its gap is at least 1. So
        # the gap is read only when a paced flow's send is due, and once per
        # call, since a send changes neither the window nor the RTT estimate.
        gap = None
        while self.cwnd - (self.next_seq - 1 - self.highest_acked) >= 1.0:  # flightsize
            if now < self._next_send_at:
                if not self._pacing_armed:
                    self._pacing_armed = True
                    self.engine.schedule(self._next_send_at, PACING_TIMER, self)
                return
            if gap is None:
                gap = self.pacing_gap_us() if self.pacing else 0
            seq = self.next_seq
            self._send_times[seq] = now
            # as in _retransmit; written out here, since a shared method
            # called per send cost about 2% of fig2a's simulated seconds per
            # second (214.4 against 210.0 s/s on a 2-core host)
            pkt = self._spare
            if pkt is None:
                pkt = Packet(self.flow_id, seq, now)
            else:
                self._spare = None
                pkt.seq = seq
                pkt.sent_at_sender_clock = now
                pkt.is_ack = False
            self.link.enqueue(pkt)
            self.next_seq = seq + 1
            self._next_send_at = now + gap

    def on_pacing_timer(self) -> None:
        """The PACING_TIMER handler: the timer's payload is its sender."""
        self._pacing_armed = False
        self.try_send(self.engine.now)

    def _retransmit(self, seq: int, now: int) -> None:
        self._send_times[seq] = now
        self.retransmits += 1
        pkt = self._spare
        if pkt is None:
            pkt = Packet(self.flow_id, seq, now)
        else:
            self._spare = None
            pkt.seq = seq
            pkt.sent_at_sender_clock = now
            pkt.is_ack = False
        self.link.enqueue(pkt)

    # -- receiving ---------------------------------------------------------

    def on_ack(self, ack: Packet, now: int) -> None:
        acked = ack.ack_of_seq
        if acked > self.highest_acked:
            newly = acked - self.highest_acked
            send_times = self._send_times
            if newly > 1:  # the range object alone costs more than the test
                for s in range(self.highest_acked + 1, acked):
                    send_times.pop(s, None)
            sent_at = send_times.pop(acked)
            self.highest_acked = acked
            self.dupacks = 0
            self.last_progress_at = now
            sample = now - sent_at
            if self.rtt_est_us is None:
                self.rtt_est_us = sample
            else:
                self.rtt_est_us = (7 * self.rtt_est_us + sample) // 8
            if sample > self.max_rtt_us:
                self.max_rtt_us = sample
            self.on_delay_sample(ack, now)
            if self._recovery_point:
                if acked < self._recovery_point:
                    # partial advance: the next hole is inferred lost too
                    self._retransmit(acked + 1, now)
                else:
                    self._recovery_point = 0
            self.on_new_ack(ack, newly, now)
            self._spare = ack
            self.try_send(now)
        else:
            self.dupacks += 1
            self.on_delay_sample(ack, now)
            self._spare = ack
            if not self._recovery_point and self.dupacks >= DUPACK_THRESHOLD:
                self._enter_recovery(now)
                self.try_send(now)

    def _enter_recovery(self, now: int) -> None:
        """Open a recovery episode up to the send frontier: retransmit the first
        hole and tell the controller once."""
        self._recovery_point = self.next_seq - 1
        self.dupacks = 0
        self._retransmit(self.highest_acked + 1, now)
        self.on_loss(now)

    # -- loss helpers --------------------------------------------------------

    def _halve(self, now: int, new_cwnd: float) -> bool:
        """Apply a window reduction unless one already happened this RTT."""
        gate = self.rtt_est_us if self.rtt_est_us is not None else 0
        if self.halvings and now - self.halvings[-1][0] < gate:
            return False
        self.cwnd = new_cwnd
        self.halvings.append((now, new_cwnd, gate))
        return True

    def check_timeout(self, now: int) -> None:
        """Coarse deadlock escape: with packets in flight and no cumulative
        progress for max(2 * max_rtt_us, MIN_TIMEOUT_US), recover from the
        first hole. The stats tick polls it for each flow whose
        last_progress_at is at least MIN_TIMEOUT_US old, since no timeout is
        due sooner."""
        # polled on each tick of a stalled flow: the flight size and the max
        # are written out, as the property and the builtin call cost more
        if self.next_seq - 1 == self.highest_acked:  # nothing in flight
            return
        wait = 2 * self.max_rtt_us
        if now >= self.last_progress_at + (wait if wait > MIN_TIMEOUT_US else MIN_TIMEOUT_US):
            self.timeouts.append(now)
            self.last_progress_at = now
            self._enter_recovery(now)
