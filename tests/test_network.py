"""Bottleneck queue: service times, drop-tail boundary, FIFO order, conservation,
and whole runs checked against Lindley's recursion."""

import bisect
import random
from dataclasses import replace

import pytest

from ledbatsim.engine import Engine, EventKind
from ledbatsim.harness import run_scenario
from ledbatsim.network import AckPath, Bottleneck, Packet
from ledbatsim.scenario import get_preset, service_time_us


def _pkt(seq, flow=0):
    return Packet(flow, seq, 0)


def _conserved(link):
    return link.offered == link.delivered + len(link.drops) + len(link.queue)


def test_service_time_exact_values():
    # bytes * 8 * 1e6 // bps
    assert service_time_us(1500, 10_000_000) == 1200
    assert service_time_us(1500, 2_000_000) == 6000
    assert service_time_us(1500, 500_000) == 24000
    assert service_time_us(40, 10_000_000) == 32
    assert service_time_us(41, 1_000_000) == 328  # floor division


def test_target_delay_worth_of_buffering():
    # 25 ms at 10 Mbps is 20.8 full-size packets
    svc = service_time_us(1500, 10_000_000)
    assert 20 * svc < 25_000 < 21 * svc


def test_serving_head_takes_no_buffer_slot():
    eng = Engine()
    link = Bottleneck(eng, 1200, 10_000, buffer_pkts=2)
    assert link.enqueue(_pkt(1))  # goes straight into service
    assert [p.seq for p in link.queue] == [1]
    assert link.enqueue(_pkt(2))
    assert link.enqueue(_pkt(3))  # fills both buffer slots
    assert not link.enqueue(_pkt(4))  # tail drop
    assert (link.offered, len(link.drops)) == (4, 1)
    assert len(link.queue) == 3
    assert _conserved(link)


def test_drops_record_time_flow_and_seq():
    eng = Engine()
    link = Bottleneck(eng, 1200, 10_000, buffer_pkts=1)
    for seq in (1, 2, 3):
        link.enqueue(_pkt(seq, flow=2))
    assert link.drops == [(0, 2, 3)]


def test_fifo_delivery_times_and_order():
    eng = Engine()
    arrivals = []
    eng.register(EventKind.PACKET_ARRIVAL, lambda pkt: arrivals.append((eng.now, pkt.seq)))
    link = Bottleneck(eng, 1200, 10_000, buffer_pkts=10)
    for seq in (1, 2, 3):
        link.enqueue(_pkt(seq))
    assert len(link.queue) == 3  # two waiting behind the one in service
    eng.run(until=1_000_000)
    assert len(link.queue) == 0
    # back-to-back service at 1200 us each, then the 10 ms pipe
    assert arrivals == [(11_200, 1), (12_400, 2), (13_600, 3)]
    assert link.delivered == 3 and link.delivered_by_flow == {0: 3}


def test_conservation_under_random_churn():
    rng = random.Random(3)
    eng = Engine()
    eng.register(EventKind.PACKET_ARRIVAL, lambda _pkt: None)
    link = Bottleneck(eng, 6000, 5_000, buffer_pkts=4)
    seq = 0
    accepted = {}
    for step in range(400):
        for _ in range(rng.randrange(4)):
            seq += 1
            flow = rng.randrange(3)
            if link.enqueue(_pkt(seq, flow=flow)):
                accepted[flow] = accepted.get(flow, 0) + 1
        eng.run(until=eng.now + rng.randrange(8000))
        assert _conserved(link)
    assert link.drops  # the churn does overflow the buffer
    eng.run(until=eng.now + 10_000_000)
    assert link.offered == link.delivered + len(link.drops)
    assert link.delivered_by_flow == accepted


def test_ack_path_is_a_fixed_delay():
    eng = Engine()
    arrivals = []
    eng.register(EventKind.PACKET_ARRIVAL, lambda _ack: arrivals.append(eng.now))
    back = AckPath(eng, 25_000)
    back.send(Packet(0, 0, 0, is_ack=True, ack_of_seq=1))
    eng.run(until=100_000)
    assert arrivals == [25_000]


@pytest.mark.parametrize("offer_scheduled_first, accepted", [(True, False), (False, True)])
def test_offer_at_the_heads_departure_time(offer_scheduled_first, accepted):
    """A full buffer and a packet offered at exactly the head's departure time:
    the engine dispatches equal times in schedule order, so the packet is
    dropped when its event was scheduled before the head's service-done
    event, and accepted when scheduled after it. A link that works out each
    departure at enqueue time must keep this rule or state where it differs."""
    eng = Engine()
    link = Bottleneck(eng, 1200, 10_000, buffer_pkts=1)
    results = []
    eng.register(EventKind.PACKET_ARRIVAL, lambda _pkt: None)
    eng.register(EventKind.PACING_TIMER, lambda pkt: results.append(link.enqueue(pkt)))
    departs_at = link.service_us
    if offer_scheduled_first:
        eng.schedule(departs_at, EventKind.PACING_TIMER, _pkt(3))
    assert link.enqueue(_pkt(1)) and link.enqueue(_pkt(2))  # in service, one waiting
    if not offer_scheduled_first:
        eng.schedule(departs_at, EventKind.PACING_TIMER, _pkt(3))
    eng.run(until=departs_at)
    assert results == [accepted]
    assert link.delivered == 1
    assert [p.seq for p in link.queue] == ([2, 3] if accepted else [2])
    assert link.drops == ([] if accepted else [(departs_at, 0, 3)])


# -- an oracle for whole runs ---------------------------------------------------


@pytest.fixture
def link_log(monkeypatch):
    """(offers, departures) of the runs inside the test: each offer to a
    Bottleneck as (t_us, accepted), each departure as its time,
    in the order they happen. The only place that knows where the link
    judges an offer and where a packet leaves it."""
    offers, departures = [], []
    enqueue, service_done = Bottleneck.enqueue, Bottleneck._service_done

    def logged_enqueue(self, pkt):
        accepted = enqueue(self, pkt)
        offers.append((self.engine.now, accepted))
        return accepted

    def logged_service_done(self, payload):
        departures.append(self.engine.now)
        service_done(self, payload)

    monkeypatch.setattr(Bottleneck, "enqueue", logged_enqueue)
    monkeypatch.setattr(Bottleneck, "_service_done", logged_service_done)
    return offers, departures


# the golden presets and the slowest link; six of the nine refuse offers in 30 s
@pytest.mark.parametrize("preset", [
    "fig2a", "fig2b", "fig3-top", "fig3-mid", "fig3-bottom", "tcp-alone-hs-b40",
    "table1-tl-c2-b10-dtu-noss", "table1-ll-c2-b10-dt2-ss", "adsl-up-b10-tcp-vs-ledbat",
])
def test_whole_run_follows_lindleys_recursion(preset, link_log):
    """A FIFO with one server departs packet i at max(a_i, d_prev) + svc
    (Lindley 1952), svc being the scenario's one service time, and a
    drop-tail buffer of B waiting slots refuses an offer exactly when B + 1
    accepted packets are still there. The one slack is a
    departure at the offer's own time, whose order against the offer
    test_offer_at_the_heads_departure_time pins."""
    offers, departures = link_log
    scn = replace(get_preset(preset), duration_s=30.0)
    run_scenario(scn)
    buffer_pkts = scn.buffer_pkts
    svc = service_time_us(scn.packet_bytes, scn.capacity_bps)
    departs = []  # the recursion's departure of each accepted packet, in offer order
    for t, accepted in offers:
        if accepted:
            assert len(departs) - bisect.bisect_right(departs, t) <= buffer_pkts
            start = max(t, departs[-1]) if departs else t
            departs.append(start + svc)
        else:
            assert len(departs) - bisect.bisect_left(departs, t) >= buffer_pkts + 1
    assert departures == departs[:len(departures)]
    assert all(d > scn.duration_us for d in departs[len(departures):])
