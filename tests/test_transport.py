"""Endpoint machinery: receiver acking, RTT filter, dupack loss detection,
halving rate limit, window gating, pacing timers; and, over whole runs, one
packet object per transmission and the pacing gap's zero-then-positive order."""

from dataclasses import replace

import pytest

from ledbatsim import harness, transport
from ledbatsim.engine import Engine, EventKind
from ledbatsim.ledbat import LedbatFlow
from ledbatsim.network import Packet
from ledbatsim.scenario import get_preset
from ledbatsim.transport import Receiver, SenderBase


class _FakeLink:
    """Captures transmissions instead of queueing them."""

    def __init__(self):
        self.sent = []

    def enqueue(self, pkt):
        self.sent.append(pkt)
        return True

    def resent(self):
        """The sequence number of each send that repeats an earlier one, in send order."""
        seen = set()
        again = []
        for p in self.sent:
            if p.seq in seen:
                again.append(p.seq)
            seen.add(p.seq)
        return again


class _Recorder(SenderBase):
    """Controller stub: fixed window, records the hook calls."""

    def __init__(self, engine, link, cwnd=10.0):
        super().__init__(engine, 0, link)
        self.cwnd = cwnd
        self.new_acks = []
        self.losses = []

    def on_new_ack(self, ack, newly_acked, now):
        self.new_acks.append((ack.ack_of_seq, newly_acked))

    def on_loss(self, now):
        self.losses.append(now)


def _ack(acked, delay=30_000):
    return Packet(0, 0, 0, is_ack=True, ack_of_seq=acked,
                  measured_delay_us=delay)


# -- receiver ----------------------------------------------------------------


def test_receiver_acks_cumulative_in_order():
    rx = Receiver()
    acks = [rx.on_data(Packet(0, s, 0), now=1000 * s).ack_of_seq for s in (1, 2, 3)]
    assert acks == [1, 2, 3]


def test_receiver_holds_out_of_order_then_releases():
    rx = Receiver()
    assert rx.on_data(Packet(0, 1, 0), 0).ack_of_seq == 1
    assert rx.on_data(Packet(0, 3, 0), 0).ack_of_seq == 1  # hole at 2
    assert rx.on_data(Packet(0, 4, 0), 0).ack_of_seq == 1
    assert rx.on_data(Packet(0, 2, 0), 0).ack_of_seq == 4  # run released


def test_receiver_stamps_delay_on_its_own_clock():
    rx = Receiver(clock_offset_us=7_000_000)
    ack = rx.on_data(Packet(0, 1, sent_at_sender_clock=100), now=30_100)
    assert ack.measured_delay_us == 30_000 + 7_000_000
    rx_neg = Receiver(clock_offset_us=-7_000_000)
    ack = rx_neg.on_data(Packet(0, 1, sent_at_sender_clock=100), now=30_100)
    assert ack.measured_delay_us == 30_000 - 7_000_000  # negative is fine


def test_receiver_turns_the_data_packet_into_its_ack():
    rx = Receiver(clock_offset_us=-500)
    pkt = Packet(3, 1, sent_at_sender_clock=100)
    ack = rx.on_data(pkt, now=30_100)
    assert ack is pkt
    assert ack.flow_id == 3  # routes the ack back to its sender
    assert (ack.is_ack, ack.ack_of_seq, ack.measured_delay_us) == (True, 1, 30_000 - 500)


def test_receiver_reacks_stale_duplicate():
    rx = Receiver()
    rx.on_data(Packet(0, 1, 0), 0)
    rx.on_data(Packet(0, 2, 0), 0)
    assert rx.on_data(Packet(0, 1, 0), 0).ack_of_seq == 2


# -- sender ------------------------------------------------------------------


def test_window_gates_sends_to_floor_of_cwnd():
    eng = Engine()
    link = _FakeLink()
    tx = _Recorder(eng, link, cwnd=3.2)
    tx.start(0)
    assert [p.seq for p in link.sent] == [1, 2, 3]  # 3.2 - 3 < 1, stop
    assert tx.next_seq - 1 - tx.highest_acked == 3  # flightsize


def test_rtt_filter_init_and_smoothing():
    eng = Engine()
    tx = _Recorder(eng, _FakeLink())
    tx.start(0)  # seqs 1..10 sent at 0
    tx.on_ack(_ack(1), 8000)
    assert tx.rtt_est_us == 8000  # first sample loads the filter
    assert tx.max_rtt_us == 8000
    tx.on_ack(_ack(2), 16000)
    assert tx.rtt_est_us == (7 * 8000 + 16000) // 8  # == 9000
    assert tx.max_rtt_us == 16000


def test_new_ack_advances_and_releases_window():
    eng = Engine()
    link = _FakeLink()
    tx = _Recorder(eng, link, cwnd=2.0)
    tx.start(0)
    assert [p.seq for p in link.sent] == [1, 2]
    eng.now = 50_000
    tx.on_ack(_ack(1), eng.now)
    assert tx.new_acks == [(1, 1)]
    assert [p.seq for p in link.sent] == [1, 2, 3]
    assert tx.rtt_est_us == 50_000


def test_three_dupacks_trigger_loss_and_hole_retransmit():
    eng = Engine()
    link = _FakeLink()
    tx = _Recorder(eng, link, cwnd=8.0)
    tx.start(0)
    assert len(link.sent) == 8
    eng.now = 50_000
    tx.on_ack(_ack(1), eng.now)  # seq 2 lost; 3,4,5 arriving
    before = len(link.sent)
    tx.on_ack(_ack(1), eng.now)
    tx.on_ack(_ack(1), eng.now)
    assert tx.losses == []
    tx.on_ack(_ack(1), eng.now)  # third duplicate
    assert tx.losses == [50_000]
    assert link.sent[before].seq == 2
    assert link.resent() == [2]
    assert tx.retransmits == 1


def test_partial_advance_retransmits_next_hole_without_new_loss():
    eng = Engine()
    link = _FakeLink()
    tx = _Recorder(eng, link, cwnd=8.0)
    tx.start(0)
    eng.now = 50_000
    for _ in range(4):
        tx.on_ack(_ack(1), eng.now)  # dupacks: recovery opens, 2 retransmitted
    assert tx.losses == [50_000]
    eng.now = 60_000
    tx.on_ack(_ack(2), eng.now)  # partial: 3 is inferred lost too
    assert tx.losses == [50_000]  # no second on_loss
    assert link.resent() == [2, 3]
    assert tx.retransmits == 2
    eng.now = 70_000
    tx.on_ack(_ack(9), eng.now)  # reaches the detection frontier: recovery closes
    tx.on_ack(_ack(9), eng.now)
    tx.on_ack(_ack(9), eng.now)
    tx.on_ack(_ack(9), eng.now)
    assert tx.losses == [50_000, 70_000]  # fresh episode detects again


def test_partial_advance_after_timeout_retransmits_next_hole_without_new_loss():
    eng = Engine()
    link = _FakeLink()
    tx = _Recorder(eng, link, cwnd=4.0)
    tx.start(0)  # 1..4 sent; 1 and 2 are lost, 3 and 4 stall
    tx.check_timeout(1_000_000)  # recovery opens, 1 retransmitted
    assert tx.timeouts == [1_000_000] and tx.losses == [1_000_000]
    tx.on_ack(_ack(1), 1_050_000)  # partial: 2 is inferred lost too
    assert tx.losses == [1_000_000]  # no second on_loss
    assert link.resent() == [1, 2]
    assert tx.retransmits == 2
    tx.on_ack(_ack(4), 1_100_000)  # reaches the detection frontier: recovery closes
    for _ in range(3):
        tx.on_ack(_ack(4), 1_100_000)
    assert tx.losses == [1_000_000, 1_100_000]  # fresh episode detects again


def test_halving_rate_limited_to_one_per_rtt():
    eng = Engine()
    tx = _Recorder(eng, _FakeLink(), cwnd=16.0)
    tx.rtt_est_us = tx.max_rtt_us = 100_000
    assert tx._halve(200_000, 8.0) is True
    assert tx.cwnd == 8.0
    assert tx._halve(250_000, 4.0) is False  # inside the RTT gate
    assert tx.cwnd == 8.0
    assert tx._halve(300_000, 4.0) is True  # exactly one RTT later
    assert [h[:2] for h in tx.halvings] == [(200_000, 8.0), (300_000, 4.0)]


def test_safety_timeout_fires_only_after_long_stall():
    eng = Engine()
    link = _FakeLink()
    tx = _Recorder(eng, link, cwnd=2.0)
    tx.start(0)
    tx.rtt_est_us = tx.max_rtt_us = 100_000
    tx.check_timeout(900_000)  # under max(2*max_rtt, 1 s)
    assert tx.timeouts == [] and tx.losses == []
    tx.check_timeout(1_000_000)
    assert tx.timeouts == [1_000_000]
    assert tx.losses == [1_000_000]
    assert link.resent() == [1]
    assert tx.retransmits == 1
    # progress reset: no immediate refire
    tx.check_timeout(1_100_000)
    assert tx.timeouts == [1_000_000]


def test_timeout_idle_flow_is_exempt():
    eng = Engine()
    tx = _Recorder(eng, _FakeLink(), cwnd=2.0)
    tx.check_timeout(5_000_000)  # never started
    assert tx.timeouts == []


class _Paced(_Recorder):
    """Fixed window with a fixed 1 ms gap between sends."""

    pacing = True

    def pacing_gap_us(self):
        return 1000


class _ArmLog(Engine):
    """Engine that records every event scheduled on it."""

    def __init__(self):
        super().__init__()
        self.scheduled = []

    def schedule(self, fire_at, kind, payload=None):
        self.scheduled.append((fire_at, kind))
        super().schedule(fire_at, kind, payload)


def test_gap_blocked_sender_arms_one_pacing_timer_at_a_time():
    eng = _ArmLog()
    link = _FakeLink()
    tx = _Paced(eng, link, cwnd=4.0)
    eng.register(EventKind.PACING_TIMER, lambda s: s.on_pacing_timer())
    tx.start(0)
    for _ in range(3):
        tx.try_send(0)  # still inside the gap: no second timer
    assert [p.seq for p in link.sent] == [1]
    assert eng.scheduled == [(1000, EventKind.PACING_TIMER)]
    eng.run(until=1000)  # fires, sends one, blocks again and re-arms
    tx.try_send(1000)
    assert [p.seq for p in link.sent] == [1, 2]
    assert eng.scheduled == [(1000, EventKind.PACING_TIMER), (2000, EventKind.PACING_TIMER)]


class _GapReads(_Recorder):
    """Fixed window and gap; records how often each try_send call reads the gap."""

    pacing = True

    def __init__(self, engine, link, cwnd, gap):
        super().__init__(engine, link, cwnd)
        self.gap = gap
        self.reads_per_call = []

    def pacing_gap_us(self):
        self.reads_per_call[-1] += 1
        return self.gap

    def try_send(self, now):
        self.reads_per_call.append(0)
        super().try_send(now)


def test_one_try_send_reads_the_pacing_gap_at_most_once():
    # the sequence of test_gap_blocked_sender_arms_one_pacing_timer_at_a_time:
    # only a call that sends reads the gap; one blocked inside it reads nothing
    eng = _ArmLog()
    link = _FakeLink()
    tx = _GapReads(eng, link, cwnd=4.0, gap=1000)
    eng.register(EventKind.PACING_TIMER, lambda s: s.on_pacing_timer())
    tx.start(0)
    for _ in range(3):
        tx.try_send(0)
    eng.run(until=1000)
    tx.try_send(1000)
    assert [(p.seq, p.sent_at_sender_clock) for p in link.sent] == [(1, 0), (2, 1000)]
    assert eng.scheduled == [(1000, EventKind.PACING_TIMER), (2000, EventKind.PACING_TIMER)]
    assert tx.reads_per_call == [1, 0, 0, 0, 1, 0]


def test_batch_sender_reads_the_gap_once_for_a_whole_window():
    eng = Engine()
    link = _FakeLink()
    tx = _GapReads(eng, link, cwnd=4.0, gap=0)
    tx.start(0)
    tx.try_send(0)  # the window is full: no send, no read
    assert [p.seq for p in link.sent] == [1, 2, 3, 4]
    assert tx.reads_per_call == [1, 0]


# -- whole runs ------------------------------------------------------------------


def _cut(preset, **flow_changes):
    scn = replace(get_preset(preset), duration_s=30.0)
    return replace(scn, flows=[replace(f, **flow_changes) for f in scn.flows])


@pytest.mark.parametrize("preset", ["fig2a", "fig3-bottom"])
def test_one_packet_object_per_transmission(preset, monkeypatch):
    """Each send and resend builds one Packet, and its ack is that same object."""
    made = [0]
    links = []

    def counted(*args):
        made[0] += 1
        return Packet(*args)

    class Kept(harness._Simulation):
        def run(self):
            super().run()
            links.append(self.link)

    monkeypatch.setattr(transport, "Packet", counted)
    monkeypatch.setattr(harness, "_Simulation", Kept)
    harness.run_scenario(_cut(preset))
    (link,) = links
    assert link.delivered > 0
    assert made[0] == link.offered


@pytest.mark.parametrize("pacing", [True, False])
def test_a_flows_pacing_gap_is_zero_until_it_turns_positive_for_good(pacing, monkeypatch):
    """try_send takes a future send time to mean a positive gap, and reads the
    gap only when a paced flow's send is due. That holds because each flow's
    gap reads 0 up to some point and at least 1 from there on. A flow that
    does not pace never reads it."""
    gaps = {}
    gap_us = LedbatFlow.pacing_gap_us

    def recorded(self):
        gap = gap_us(self)
        gaps.setdefault(self.flow_id, []).append(gap)
        return gap

    monkeypatch.setattr(LedbatFlow, "pacing_gap_us", recorded)
    scn = _cut("fig3-bottom", pacing=pacing)  # two delay-based flows
    harness.run_scenario(scn)
    assert sorted(gaps) == (list(range(len(scn.flows))) if pacing else [])
    for series in gaps.values():
        zeros = next((i for i, g in enumerate(series) if g), len(series))
        assert zeros >= 1  # no RTT estimate at a flow's first send
        assert all(g >= 1 for g in series[zeros:])
        assert zeros < len(series)


def test_a_loss_based_flow_never_reads_a_pacing_gap(monkeypatch):
    reads = []
    gap_us = SenderBase.pacing_gap_us

    def recorded(self):
        reads.append(self.flow_id)
        return gap_us(self)

    monkeypatch.setattr(SenderBase, "pacing_gap_us", recorded)
    result = harness.run_scenario(_cut("fig2a"))  # flow 0 is loss-based
    assert result.scenario.flows[0].kind == "tcp"
    assert result.trace.delivered_bytes[0][-1] > 0
    assert reads == []
