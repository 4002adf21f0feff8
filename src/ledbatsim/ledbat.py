"""Delay-based controller: keeps the bottleneck queue at a fixed delay target.

Each ack carries the one-way delay the receiver measured. The minimum ever
seen (over a sliding per-minute history) is taken as the propagation baseline;
the excess over it is the queuing-delay estimate. The window moves
proportionally to the distance from the target:

    cwnd += gain * (target - queuing_delay) / cwnd      [packets, per ack]

With the default gain of 1/target, the zero-queue ramp-up is exactly one
packet per RTT (the additive-increase rate of TCP congestion avoidance), and
the window backs off linearly once the queue overshoots, reaching -1 packet
per RTT when the queuing delay is twice the target. On loss the window halves
(at most once per RTT) like TCP, and never falls below one packet.
"""

import math
from collections import deque
from fractions import Fraction

from .engine import Engine
from .network import Bottleneck, Packet
from .transport import MIN_CWND_PKTS, FlowSpec, SenderBase

SLOT_US = 60_000_000  # one minute of simulation time per minima slot


class BaseDelayHistory:
    """Per-minute minima of measured one-way delay; base = min across kept minutes.

    A fresh minute slot opens on rollover and the oldest falls out, so a stale
    minimum expires after at most `minutes` minutes.
    """

    def __init__(self, minutes: int):
        self.minutes = minutes
        self._slots: deque[int] = deque(maxlen=minutes)
        self._cur_slot: int | None = None

    def update(self, measured_us: int, now_us: int) -> int:
        """Fold in one sample, return the current base delay."""
        slot = now_us // SLOT_US
        if self._cur_slot is None:
            self._slots.append(measured_us)
            self._cur_slot = slot
        elif slot != self._cur_slot:
            for _ in range(min(slot - self._cur_slot, self.minutes)):
                self._slots.append(measured_us)
            self._cur_slot = slot
        elif measured_us < self._slots[-1]:
            self._slots[-1] = measured_us
        return min(self._slots)


class LedbatFlow(SenderBase):
    kind = "ledbat"

    def __init__(
        self, engine: Engine, flow_id: int, link: Bottleneck, packet_bytes: int, spec: FlowSpec
    ):
        super().__init__(engine, flow_id, link, packet_bytes)
        # read on every ack, so held as plain attributes
        self.target_us = spec.target_us
        self.pacing = spec.pacing
        self.pin_zero_queuing_delay = spec.pin_zero_queuing_delay
        gain = Fraction(*spec.gain) if spec.gain is not None else Fraction(1, self.target_us)
        # kept as an exact rational: the per-ack ratio gain*off_target is formed
        # before dividing by cwnd, so the default gain gives exactly 1.0/cwnd
        # at zero queuing delay
        self._gain_num = gain.numerator
        self._gain_den = gain.denominator
        self.history = BaseDelayHistory(spec.base_histo_min)
        self.base_delay_us: int | None = None
        self.current_delay_us: int | None = None
        self.ss_active = spec.slow_start
        self.ssthresh = math.inf
        self.max_update_ratio = 0.0  # largest gain*off_target seen, in packets

    def queuing_delay_est_us(self) -> int:
        if self.pin_zero_queuing_delay or self.base_delay_us is None:
            return 0
        return self.current_delay_us - self.base_delay_us

    def on_delay_sample(self, ack: Packet, now: int) -> None:
        self.current_delay_us = ack.measured_delay_us
        self.base_delay_us = self.history.update(ack.measured_delay_us, now)

    def on_new_ack(self, ack: Packet, newly_acked: int, now: int) -> None:
        if self.ss_active:
            self.cwnd += 1.0
            if self.cwnd > self.ssthresh:
                self.ss_active = False
            return
        off_target = self.target_us - self.queuing_delay_est_us()
        ratio = (self._gain_num * off_target) / self._gain_den
        if ratio > self.max_update_ratio:
            self.max_update_ratio = ratio
        self.cwnd += ratio / self.cwnd
        if self.cwnd < MIN_CWND_PKTS:
            self.cwnd = MIN_CWND_PKTS

    def on_loss(self, now: int) -> None:
        if self.ss_active:
            # remember half the overshoot window, restart from the floor, and
            # keep doubling until the window passes it again
            ssthresh = self.cwnd / 2.0
            if self._halve(now, MIN_CWND_PKTS):
                self.ssthresh = ssthresh
        else:
            self._halve(now, max(self.cwnd / 2.0, MIN_CWND_PKTS))

    def pacing_gap_us(self) -> int:
        if not self.pacing or self.rtt_est_us is None:
            return 0
        return max(1, int(round(self.rtt_est_us / self.cwnd)))
