"""Metamorphic properties as exact equalities between runs.

Prefix: a run cut at 30 s is the first 30 s of the same run at 60 s, which is
what lets the golden digests and the benchmark's smoke mode stand for full
runs. Relabel: reversing the flow list of a late-start pair mirrors every
per-flow series and leaves the link's series alone. Co-started flows are the
exception to relabelling: at equal start times the flow-list order breaks the
tie, and flow 0 transmits first.
"""

from dataclasses import replace

import pytest

from ledbatsim.harness import run_scenario
from ledbatsim.network import Bottleneck
from ledbatsim.scenario import get_preset

S = 1_000_000

LINK_SERIES = ("sample_t_us", "queue_pkts", "link_offered", "link_dropped")
FLOW_SERIES = ("cwnd_pkts", "base_delay_us", "queuing_est_us", "delivered_bytes")


def _per_tick(trace, name):
    """A per-flow series by flow id, one entry per tick: None before a delay
    series' first tick, and no entry for a flow that lacks the series."""
    return {fid: [None] * trace.first_tick(series) + list(series)
            for fid, series in getattr(trace, name).items()}


@pytest.mark.parametrize("preset", ["fig2a", "fig3-mid", "table1-tl-c2-b10-dtu-noss"])
def test_a_short_run_is_the_prefix_of_a_longer_one(preset):
    short = run_scenario(replace(get_preset(preset), duration_s=30.0))
    long = run_scenario(replace(get_preset(preset), duration_s=60.0))
    a, b = short.trace, long.trace
    n = len(a.sample_t_us)
    assert a.sample_t_us[-1] == 30 * S
    for name in LINK_SERIES:
        assert getattr(a, name) == getattr(b, name)[:n], name
    for name in FLOW_SERIES:
        a_series, b_series = _per_tick(a, name), _per_tick(b, name)
        assert a_series.keys() == b_series.keys(), name
        for fid, series in a_series.items():
            assert series == b_series[fid][:n], (name, fid)
    assert a.drops == [d for d in b.drops if d[0] <= 30 * S]
    assert a.drops  # the cut keeps some loss to compare
    for fid in a.flow_ids:
        assert a.halvings[fid] == [h for h in b.halvings[fid] if h[0] <= 30 * S]


@pytest.mark.parametrize("preset", ["fig3-top", "fig3-mid", "fig3-bottom"])
def test_reversing_the_flow_list_mirrors_a_late_start_pair(preset):
    scn = replace(get_preset(preset), duration_s=60.0)
    fwd = run_scenario(scn).trace
    rev = run_scenario(replace(scn, flows=scn.flows[::-1])).trace
    last = len(fwd.flow_ids) - 1
    for name in LINK_SERIES:
        assert getattr(rev, name) == getattr(fwd, name), name
    for name in FLOW_SERIES:
        mirrored = {last - fid: series for fid, series in _per_tick(fwd, name).items()}
        assert _per_tick(rev, name) == mirrored, name
    assert rev.drops == [(t, last - fid, seq) for t, fid, seq in fwd.drops]
    assert {last - fid: h for fid, h in fwd.halvings.items()} == rev.halvings


@pytest.mark.parametrize("reverse", [False, True])
def test_co_started_flows_transmit_in_flow_list_order(monkeypatch, reverse):
    offered = []
    enqueue = Bottleneck.enqueue

    def record(link, pkt):
        offered.append((link.engine.now, pkt.flow_id))
        return enqueue(link, pkt)

    monkeypatch.setattr(Bottleneck, "enqueue", record)
    scn = replace(get_preset("fig2a"), duration_s=1.0)
    assert scn.flows[0].start_s == scn.flows[1].start_s == 0.0
    if reverse:  # fig2a lists the loss-based flow first; reversed, the delay-based one
        scn = replace(scn, flows=scn.flows[::-1])
    run_scenario(scn)
    at_zero = [fid for t, fid in offered if t == 0]
    assert at_zero[0] == 0
    assert 1 in at_zero  # both flows do offer packets at t=0
