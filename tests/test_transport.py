"""Endpoint machinery: receiver acking, RTT filter, dupack loss detection,
halving rate limit, window gating, pacing timers."""

from ledbatsim.engine import Engine, EventKind
from ledbatsim.network import Packet
from ledbatsim.transport import ACK_BYTES, Receiver, SenderBase


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
        super().__init__(engine, 0, link, 1500)
        self.cwnd = cwnd
        self.new_acks = []
        self.losses = []

    def on_new_ack(self, ack, newly_acked, now):
        self.new_acks.append((ack.ack_of_seq, newly_acked))

    def on_loss(self, now):
        self.losses.append(now)


def _ack(acked, delay=30_000):
    return Packet(0, 0, ACK_BYTES, 0, is_ack=True, ack_of_seq=acked,
                  measured_delay_us=delay)


# -- receiver ----------------------------------------------------------------


def test_receiver_acks_cumulative_in_order():
    rx = Receiver(0)
    acks = [rx.on_data(Packet(0, s, 1500, 0), now=1000 * s).ack_of_seq for s in (1, 2, 3)]
    assert acks == [1, 2, 3]


def test_receiver_holds_out_of_order_then_releases():
    rx = Receiver(0)
    assert rx.on_data(Packet(0, 1, 1500, 0), 0).ack_of_seq == 1
    assert rx.on_data(Packet(0, 3, 1500, 0), 0).ack_of_seq == 1  # hole at 2
    assert rx.on_data(Packet(0, 4, 1500, 0), 0).ack_of_seq == 1
    assert rx.on_data(Packet(0, 2, 1500, 0), 0).ack_of_seq == 4  # run released


def test_receiver_stamps_delay_on_its_own_clock():
    rx = Receiver(0, clock_offset_us=7_000_000)
    ack = rx.on_data(Packet(0, 1, 1500, sent_at_sender_clock=100), now=30_100)
    assert ack.measured_delay_us == 30_000 + 7_000_000
    rx_neg = Receiver(0, clock_offset_us=-7_000_000)
    ack = rx_neg.on_data(Packet(0, 1, 1500, sent_at_sender_clock=100), now=30_100)
    assert ack.measured_delay_us == 30_000 - 7_000_000  # negative is fine


def test_receiver_reacks_stale_duplicate():
    rx = Receiver(0)
    rx.on_data(Packet(0, 1, 1500, 0), 0)
    rx.on_data(Packet(0, 2, 1500, 0), 0)
    assert rx.on_data(Packet(0, 1, 1500, 0), 0).ack_of_seq == 2


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
    tx._rtt_sample(8000)
    assert tx.rtt_est_us == 8000  # first sample loads the filter
    tx._rtt_sample(16000)
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
    tx._rtt_sample(100_000)
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
    tx._rtt_sample(100_000)
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
    eng.register(EventKind.PACING_TIMER, lambda _fid: tx.on_pacing_timer(eng.now))
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
    # the sequence of test_gap_blocked_sender_arms_one_pacing_timer_at_a_time
    eng = _ArmLog()
    link = _FakeLink()
    tx = _GapReads(eng, link, cwnd=4.0, gap=1000)
    eng.register(EventKind.PACING_TIMER, lambda _fid: tx.on_pacing_timer(eng.now))
    tx.start(0)
    for _ in range(3):
        tx.try_send(0)
    eng.run(until=1000)
    tx.try_send(1000)
    assert [(p.seq, p.sent_at_sender_clock) for p in link.sent] == [(1, 0), (2, 1000)]
    assert eng.scheduled == [(1000, EventKind.PACING_TIMER), (2000, EventKind.PACING_TIMER)]
    assert tx.reads_per_call == [1] * 6


def test_batch_sender_reads_the_gap_once_for_a_whole_window():
    eng = Engine()
    link = _FakeLink()
    tx = _GapReads(eng, link, cwnd=4.0, gap=0)
    tx.start(0)
    tx.try_send(0)  # the window is full: no send, no read
    assert [p.seq for p in link.sent] == [1, 2, 3, 4]
    assert tx.reads_per_call == [1, 0]
