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

from .engine import Engine
from .network import Bottleneck, Packet
from .transport import MIN_CWND_PKTS, FlowSpec, SenderBase

SLOT_US = 60_000_000  # one minute of simulation time per minima slot


class BaseDelayHistory:
    """Per-minute minima of measured one-way delay; base = min across kept minutes.

    A fresh minute slot opens on rollover and the oldest falls out, so a stale
    minimum expires after at most `minutes` minutes. The base is kept as a
    running minimum: a sample inside the current minute can only lower it, so
    the slots are scanned only when a minute rolls over.
    """

    def __init__(self, minutes: int):
        self.minutes = minutes
        self._slots: deque[int] = deque(maxlen=minutes)
        self._cur_slot: int | None = None
        self.base: int | None = None  # min(self._slots); None before the first sample

    def update(self, measured_us: int, now_us: int) -> int:
        """Fold in one sample, return the current base delay."""
        slot = now_us // SLOT_US
        if slot == self._cur_slot:
            if measured_us < self._slots[-1]:
                self._slots[-1] = measured_us
                if measured_us < self.base:
                    self.base = measured_us
            return self.base
        if self._cur_slot is None:
            self._slots.append(measured_us)
        else:
            for _ in range(min(slot - self._cur_slot, self.minutes)):
                self._slots.append(measured_us)
        self._cur_slot = slot
        self.base = min(self._slots)
        return self.base


class LedbatFlow(SenderBase):
    """The delay-based sender of the module docstring.

    Each delay sample forms the queuing-delay estimate once and keeps it as
    the attribute `queuing_delay_est_us`; the window law on each ack and the
    sampling tick read it from there.
    """

    def __init__(self, engine: Engine, flow_id: int, link: Bottleneck, spec: FlowSpec):
        super().__init__(engine, flow_id, link)
        # read on every ack, so held as plain attributes
        self.target_us = spec.target_us
        self.pacing = spec.pacing
        self.pin_zero_queuing_delay = spec.pin_zero_queuing_delay
        num, den = spec.gain if spec.gain is not None else (1, self.target_us)
        # kept as an exact rational in lowest terms: the per-ack ratio
        # gain*off_target is formed before dividing by cwnd, so the default
        # gain gives exactly 1.0/cwnd at zero queuing delay
        g = math.gcd(num, den)
        self._gain_num = num // g
        self._gain_den = den // g
        self.history = BaseDelayHistory(spec.base_histo_min)
        # measured - base as of the last delay sample; 0 before the first one
        # and whenever the estimator is pinned
        self.queuing_delay_est_us = 0
        self.ss_active = spec.slow_start
        self.ssthresh = math.inf
        self.max_update_ratio = 0.0  # largest gain*off_target seen, in packets

    def on_delay_sample(self, ack: Packet, now: int) -> None:
        measured = ack.measured_delay_us
        base = self.history.update(measured, now)
        if not self.pin_zero_queuing_delay:
            self.queuing_delay_est_us = measured - base

    def on_new_ack(self, ack: Packet, newly_acked: int, now: int) -> None:
        if self.ss_active:
            self.cwnd += 1.0
            if self.cwnd > self.ssthresh:
                self.ss_active = False
            return
        off_target = self.target_us - self.queuing_delay_est_us
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
        if self.rtt_est_us is None:
            return 0
        gap = round(self.rtt_est_us / self.cwnd)  # an int, ties to even
        return gap if gap > 1 else 1
