"""Loss-based competitor: additive increase, halving, slow-start exit."""

import pytest

from ledbatsim.engine import Engine
from ledbatsim.network import Packet
from ledbatsim.scenario import Scenario
from ledbatsim.tcp import TcpFlow
from ledbatsim.transport import FlowSpec


class _FakeLink:
    def enqueue(self, pkt):
        return True


def _flow(cwnd=10.0, **spec_kwargs):
    flow = TcpFlow(Engine(), 0, _FakeLink(), FlowSpec("tcp", **spec_kwargs))
    flow.cwnd = cwnd
    return flow


def _ack(acked=1):
    return Packet(0, 0, 0, is_ack=True, ack_of_seq=acked)


def test_congestion_avoidance_increment_is_exactly_reciprocal():
    flow = _flow(cwnd=2.0)
    flow.on_new_ack(_ack(), 1, 0)
    assert flow.cwnd == 2.5
    flow.cwnd = 10.0
    flow.on_new_ack(_ack(), 1, 0)
    assert flow.cwnd == 10.0 + 1.0 / 10.0


def test_slow_start_adds_one_per_ack_until_loss():
    flow = _flow(cwnd=1.0, slow_start=True)
    for _ in range(7):
        flow.on_new_ack(_ack(), 1, 0)
    assert flow.cwnd == 8.0
    assert flow.ss_active


def test_loss_halves_and_leaves_slow_start_for_good():
    flow = _flow(cwnd=32.0, slow_start=True)
    flow.on_loss(0)
    assert flow.cwnd == 16.0
    assert not flow.ss_active
    flow.on_new_ack(_ack(), 1, 0)
    assert flow.cwnd == 16.0 + 1.0 / 16.0  # linear now


def test_halving_floor_at_min_window():
    flow = _flow(cwnd=1.2)
    flow.on_loss(0)
    assert flow.cwnd == 1.0


def test_halving_rate_limited_by_smoothed_rtt():
    flow = _flow(cwnd=64.0)
    flow.rtt_est_us = flow.max_rtt_us = 100_000
    flow.on_loss(500_000)
    assert flow.cwnd == 32.0
    flow.on_loss(550_000)  # gated
    assert flow.cwnd == 32.0
    flow.on_loss(600_000)
    assert flow.cwnd == 16.0
    assert [h[0] for h in flow.halvings] == [500_000, 600_000]


def _dedupe(series):
    out = [series[0]]
    for v in series[1:]:
        if v != out[-1]:
            out.append(v)
    return out


def test_two_identical_flows_walk_the_same_window_sequence():
    """Started together with room to grow loss-free, both flows visit exactly
    the same window values in the same order. On the wire the second flow
    trails by one FIFO phase (its bursts queue behind the first flow's), so
    byte counts at any instant differ by up to a window; the law itself is
    identical."""
    from ledbatsim.harness import run_scenario
    from ledbatsim.scenario import Scenario

    scn = Scenario(
        name="twins",
        capacity_bps=10_000_000,
        buffer_pkts=100,
        flows=[FlowSpec("tcp"), FlowSpec("tcp")],
        duration_s=5.0,
    )
    res = run_scenario(scn)
    tr = res.trace
    assert tr.drops == []
    assert tr.halvings == {0: [], 1: []}
    # the canonical loss-free walk: w += 1/w per ack, bit-exact
    top = max(max(tr.cwnd_pkts[0]), max(tr.cwnd_pkts[1]))
    walk = [1.0]
    while walk[-1] <= top:
        walk.append(walk[-1] + 1.0 / walk[-1])
    for fid in (0, 1):
        sampled = _dedupe(tr.cwnd_pkts[fid])
        it = iter(walk)
        assert all(v in it for v in sampled)  # a subsequence of the walk
    assert res.metrics.fairness > 0.999  # off perfect only by the FIFO phase lag
    again = run_scenario(scn)
    assert again.trace.cwnd_pkts == tr.cwnd_pkts  # tie-break is deterministic


def test_single_flow_sawtooth_shape():
    """Between consecutive halvings the window never decreases."""
    from ledbatsim.harness import run_scenario
    from ledbatsim.scenario import Scenario

    scn = Scenario(
        name="saw",
        capacity_bps=10_000_000,
        buffer_pkts=40,
        flows=[FlowSpec("tcp")],
        duration_s=120.0,
    )
    tr = run_scenario(scn).trace
    halve_at = [t for t, _, _ in tr.halvings[0]]
    assert len(halve_at) >= 2  # an actual sawtooth
    bounds = [0] + halve_at + [tr.sample_t_us[-1] + 1]
    for left, right in zip(bounds[1:], bounds[2:]):
        segment = [c for t, c in zip(tr.sample_t_us, tr.cwnd_pkts[0])
                   if left < t < right]
        assert segment == sorted(segment)


@pytest.mark.parametrize("buffer_pkts, drops", [(40, 91), (50, 73), (100, 31)])
def test_solo_flow_drops_one_packet_per_halving(buffer_pkts, drops):
    """With a buffer of at least the path's BDP (41.7 packets at 10 Mbps and
    50 ms), a lone loss-based flow overflows the buffer by exactly one packet
    per sawtooth tooth: each drop halves the window once and is resent once,
    and no safety timeout is needed."""
    from ledbatsim.harness import run_scenario
    from ledbatsim.scenario import Scenario

    scn = Scenario(name="solo", capacity_bps=10_000_000, buffer_pkts=buffer_pkts,
                   flows=[FlowSpec("tcp")], duration_s=300.0)
    res = run_scenario(scn)
    stats = res.flow_stats[0]
    assert len(res.trace.drops) == len(res.trace.halvings[0]) == stats.retransmits == drops
    assert stats.timeouts == []


# two slow-start flows on a slow, short-RTT link, whose run has the gate refuse a halving
GATED = Scenario(name="gated", capacity_bps=2_000_000, buffer_pkts=40,
                 flows=[FlowSpec("tcp", slow_start=True),
                        FlowSpec("tcp", start_s=1.0, slow_start=True)],
                 rtt_base_us=20_000, duration_s=20.0)


def test_the_once_per_rtt_gate_refuses_a_halving_in_a_whole_run(monkeypatch):
    """In GATED, at 6.154 s the second flow's loss episode reaches on_loss
    1.098 s after its last halving, inside its smoothed RTT of 1.432 s, and
    the gate refuses it. No safety timeout fires. The halving-gate check
    must hold on the run all the same; without the gate, the extra halving
    lands inside the gap and fails it (tests/test_mutants.py)."""
    from ledbatsim.harness import extract_check_facts, run_scenario
    from ledbatsim.transport import SenderBase

    refused = []
    halve = SenderBase._halve

    def recorded(self, now, new_cwnd):
        applied = halve(self, now, new_cwnd)
        if not applied:
            refused.append((now, self.flow_id))
        return applied

    monkeypatch.setattr(SenderBase, "_halve", recorded)
    res = run_scenario(GATED)
    assert refused == [(6_154_000, 1)]
    assert [fs.timeouts for fs in res.flow_stats] == [[], []]
    assert {fid: [t for t, _, _ in h] for fid, h in res.trace.halvings.items()} == {
        0: [570_000, 2_746_000, 5_932_000, 8_656_000, 11_262_000, 14_000_000, 16_876_000,
            19_474_000],
        1: [1_584_000, 5_056_000, 8_668_000, 11_424_000, 14_072_000, 16_618_000, 19_534_000]}
    assert len(res.trace.drops) == 129
    assert extract_check_facts(res).halving_gaps_ok
