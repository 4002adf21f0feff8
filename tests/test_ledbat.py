"""Delay-based controller: linear window law, base-delay history, slow start,
pacing schedule."""

import math
import random
from collections import deque

from ledbatsim.engine import Engine
from ledbatsim.ledbat import SLOT_US, BaseDelayHistory, LedbatFlow
from ledbatsim.network import Packet
from ledbatsim.tcp import TcpFlow
from ledbatsim.transport import FlowSpec


class _FakeLink:
    def __init__(self):
        self.sent = []

    def enqueue(self, pkt):
        self.sent.append(pkt)
        return True


def _flow(cwnd=10.0, **spec_kwargs):
    flow = LedbatFlow(Engine(), 0, _FakeLink(), FlowSpec("ledbat", **spec_kwargs))
    flow.cwnd = cwnd
    return flow


def _ack(delay_us, acked=1):
    return Packet(0, 0, 0, is_ack=True, ack_of_seq=acked,
                  measured_delay_us=delay_us)


def _feed(flow, delay_us, now=0):
    flow.on_delay_sample(_ack(delay_us), now)


# -- window law ----------------------------------------------------------------


def test_increment_at_empty_queue_matches_loss_based_rate():
    flow = _flow(cwnd=10.0)
    _feed(flow, 50_000)  # first sample: base == current, est 0
    assert flow.queuing_delay_est_us == 0
    flow.on_new_ack(_ack(50_000), 1, 0)
    assert flow.cwnd == 10.0 + 1.0 / 10.0  # exactly 1/cwnd


def test_window_frozen_at_target():
    flow = _flow(cwnd=10.0)
    _feed(flow, 50_000)
    _feed(flow, 75_000)  # queuing est = 25 ms = target
    flow.on_new_ack(_ack(75_000), 1, 0)
    assert flow.cwnd == 10.0


def test_decrement_at_twice_target_mirrors_the_increment():
    flow = _flow(cwnd=10.0)
    _feed(flow, 50_000)
    _feed(flow, 100_000)  # queuing est = 50 ms
    flow.on_new_ack(_ack(100_000), 1, 0)
    assert flow.cwnd == 10.0 - 1.0 / 10.0


def test_decrease_is_unbounded_but_floored():
    flow = _flow(cwnd=1.0)
    _feed(flow, 50_000)
    _feed(flow, 200_000)  # 6x target over: raw step would go negative
    flow.on_new_ack(_ack(200_000), 1, 0)
    assert flow.cwnd == 1.0  # min_cwnd floor


def test_update_ratio_capped_at_one_packet_with_default_gain():
    flow = _flow(cwnd=3.0)
    for delay in (50_000, 50_001, 60_000, 51_000, 50_000):
        _feed(flow, delay)
        flow.on_new_ack(_ack(delay), 1, 0)
    assert 0.0 < flow.max_update_ratio <= 1.0


def test_custom_gain_scales_the_step():
    flow = _flow(cwnd=10.0, gain=(1, 50_000))  # half the default
    _feed(flow, 50_000)
    flow.on_new_ack(_ack(50_000), 1, 0)
    assert flow.cwnd == 10.0 + 0.5 / 10.0


def test_pinned_estimator_degenerates_to_loss_based_law():
    eng = Engine()
    led = LedbatFlow(eng, 0, _FakeLink(),
                     FlowSpec("ledbat", pacing=False, pin_zero_queuing_delay=True))
    tcp = TcpFlow(eng, 1, _FakeLink(), FlowSpec("tcp"))
    led.cwnd = tcp.cwnd = 2.0
    for i in range(1000):
        delay = 50_000 + (i * 7919) % 40_000  # estimator input is ignored
        _feed(led, delay)
        led.on_new_ack(_ack(delay), 1, 0)
        tcp.on_new_ack(_ack(50_000), 1, 0)
        assert led.cwnd == tcp.cwnd  # bit-identical trajectory


# -- base-delay history --------------------------------------------------------


def test_history_tracks_minimum_within_a_slot():
    h = BaseDelayHistory(2)
    assert h.update(100, 0) == 100
    assert h.update(50, 1_000_000) == 50
    assert h.update(80, 2_000_000) == 50


def test_history_rollover_opens_fresh_slot_and_evicts():
    h = BaseDelayHistory(2)
    h.update(100, 0)
    assert h.update(200, SLOT_US) == 100  # old minute still in view
    assert h.update(300, 2 * SLOT_US) == 200  # the 100 fell out


def test_history_long_gap_flushes_everything():
    h = BaseDelayHistory(2)
    h.update(10, 0)
    assert h.update(500, 5 * SLOT_US) == 500


def test_history_depth_sets_forgetting_horizon():
    h = BaseDelayHistory(10)
    h.update(10, 0)
    for m in range(1, 10):
        assert h.update(999, m * SLOT_US) == 10
    assert h.update(999, 10 * SLOT_US) == 999


class _MinOfSlots:
    """Reference history: the same per-minute slots, scanned on every sample."""

    def __init__(self, minutes):
        self.minutes = minutes
        self.slots = deque(maxlen=minutes)
        self.cur_slot = None

    def update(self, measured_us, now_us):
        slot = now_us // SLOT_US
        if self.cur_slot is None:
            self.slots.append(measured_us)
            self.cur_slot = slot
        elif slot != self.cur_slot:
            for _ in range(min(slot - self.cur_slot, self.minutes)):
                self.slots.append(measured_us)
            self.cur_slot = slot
        elif measured_us < self.slots[-1]:
            self.slots[-1] = measured_us
        return min(self.slots)


def test_running_minimum_equals_the_scan_of_every_slot():
    rng = random.Random(20091)
    for depth in range(2, 11):
        for _ in range(20):
            h, ref = BaseDelayHistory(depth), _MinOfSlots(depth)
            now = rng.randrange(3 * SLOT_US)
            for _ in range(300):
                step = rng.random()
                if step < 0.05:  # a gap longer than the whole history
                    now += rng.randrange(depth + 1, 3 * depth) * SLOT_US
                elif step < 0.2:  # onto the next minute boundary or a few past it
                    now = (now // SLOT_US + rng.randrange(1, depth + 1)) * SLOT_US
                else:
                    now += rng.randrange(SLOT_US // 50)
                # negative values are what a receiver clock behind the sender's gives
                measured = rng.choice((rng.randrange(-5_000, 5_000),
                                       rng.randrange(40_000, 200_000)))
                assert h.update(measured, now) == ref.update(measured, now)


def test_estimate_is_formed_once_per_sample():
    plain, skewed = _flow(), _flow()
    pinned = _flow(pin_zero_queuing_delay=True)
    for flow in (plain, skewed, pinned):
        assert flow.queuing_delay_est_us == 0  # before the first sample
    for i, delay in enumerate((50_000, 61_000, 48_000, 55_000, 48_000, 90_000)):
        now = i * SLOT_US // 2  # crosses minute boundaries
        _feed(plain, delay, now)
        _feed(skewed, delay - 3_600_000_000, now)  # receiver clock an hour behind
        _feed(pinned, delay, now)
        assert plain.queuing_delay_est_us == delay - plain.history.base
        assert skewed.queuing_delay_est_us == plain.queuing_delay_est_us
        assert pinned.queuing_delay_est_us == 0


def test_base_never_above_current_sample_on_first_use():
    flow = _flow()
    _feed(flow, 42_000)
    assert flow.history.base == 42_000
    assert flow.queuing_delay_est_us == 0
    _feed(flow, 43_000)
    assert flow.history.base == 42_000
    assert flow.queuing_delay_est_us == 1000


def test_clock_offset_cancels_in_the_estimate():
    plain = _flow()
    skewed = _flow()
    for delay in (50_000, 61_000, 55_000):
        _feed(plain, delay)
        _feed(skewed, delay + 3_600_000_000)  # stamped an hour late
    assert plain.queuing_delay_est_us == skewed.queuing_delay_est_us


# -- slow start ----------------------------------------------------------------


def test_slow_start_doubles_per_window_of_acks():
    flow = _flow(cwnd=1.0, slow_start=True)
    _feed(flow, 50_000)
    flow.on_new_ack(_ack(50_000), 1, 0)
    assert flow.cwnd == 2.0  # +1 per ack
    assert flow.ss_active


def test_slow_start_loss_restarts_from_the_floor():
    flow = _flow(cwnd=40.0, slow_start=True)
    flow.on_loss(0)
    assert flow.ssthresh == 20.0  # half the overshoot
    assert flow.cwnd == 1.0  # restart, not halve
    assert flow.ss_active  # keeps doubling toward ssthresh


def test_slow_start_exit_when_window_passes_threshold():
    flow = _flow(cwnd=40.0, slow_start=True)
    flow.on_loss(0)
    for _ in range(20):
        flow.on_new_ack(_ack(50_000), 1, 0)
    assert flow.cwnd == 21.0
    assert not flow.ss_active  # 21 > 20: linear law from here
    _feed(flow, 50_000)
    flow.on_new_ack(_ack(50_000), 1, 0)
    assert flow.cwnd == 21.0 + 1.0 / 21.0


def test_loss_outside_slow_start_halves():
    flow = _flow(cwnd=40.0)
    flow.on_loss(0)
    assert flow.cwnd == 20.0
    assert flow.ssthresh == math.inf  # untouched


def test_halving_floor_and_rate_limit():
    flow = _flow(cwnd=1.5)
    flow.rtt_est_us = flow.max_rtt_us = 100_000
    flow.on_loss(200_000)
    assert flow.cwnd == 1.0  # max(0.75, min_cwnd)
    flow.cwnd = 8.0
    flow.on_loss(250_000)  # inside the RTT gate
    assert flow.cwnd == 8.0


# -- pacing --------------------------------------------------------------------


def test_pacing_gap_spreads_window_over_rtt():
    flow = _flow(cwnd=10.0)
    flow.rtt_est_us = 50_000
    assert flow.pacing_gap_us() == 5000
    flow.cwnd = 1.0
    assert flow.pacing_gap_us() == 50_000


def test_pacing_gap_zero_before_first_rtt():
    flow = _flow(cwnd=10.0)
    assert flow.pacing_gap_us() == 0  # no RTT estimate yet


def test_pacing_gap_is_the_rounded_ratio_floored_at_one():
    flow = _flow()
    ratios = set()
    for rtt in (1, 3, 5, 7, 1000, 1001, 50_000, 50_001, 123_457):
        for cwnd in (0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 7.3, 10.0, 1e3, 1e7):
            flow.rtt_est_us, flow.cwnd = rtt, cwnd
            gap = flow.pacing_gap_us()
            assert type(gap) is int and gap == max(1, int(round(rtt / cwnd)))
            ratios.add(rtt / cwnd)
    assert {0.5, 1.5, 2.5, 500.5} <= ratios  # ties, which round to even
    assert min(ratios) < 1


def test_pacing_gap_never_below_one_microsecond():
    flow = _flow(cwnd=1e7)
    flow.rtt_est_us = 1000
    assert flow.pacing_gap_us() == 1
