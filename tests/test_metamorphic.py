"""Metamorphic properties as exact equalities between runs.

Prefix: a run cut at 30 s is the first 30 s of the same run at 60 s, which is
what lets the golden digests and the benchmark's smoke mode stand for full
runs; it is checked on three presets and, at half length, on every generated
scenario of the digest corpus whose half-length cut is a valid run. Relabel:
reversing the flow list of a late-start pair mirrors every per-flow series
and leaves the link's series alone; it is checked on three presets and on
the corpus's two-flow scenarios whose flows start apart. Co-started flows
are the exception to relabelling: at equal start times the flow-list order
breaks the tie, and flow 0 transmits first. Scale: the window laws count
packets and the link serves each in packet_bytes * 8 / capacity_bps, so
multiplying both by the same k leaves every event where it was and
multiplies only the delivered bytes; that holds only while the packet size
has one owner. It is checked on three presets and on the generated scenarios
of the digest corpus, at k = 2 and 3; the float metrics match bit for bit at
k = 2, and at k = 3 only where the capacity is round. Two ticks: a run whose
trace is given the measurement interval keeps only the tick at or before its
start and the last tick
(`full_trace=False`, as the grid's batch runs ask) dispatches the same events
and gives the same metrics and check facts as the full run, and the ticks it
keeps hold the full run's values.
"""

from array import array
from dataclasses import replace

import pytest

from ledbatsim.harness import (DEFAULT_SAMPLE_US, check_sample_us, extract_check_facts,
                               run_scenario)
from ledbatsim.network import Bottleneck
from ledbatsim.scenario import UsageError, get_preset, resolve_starts, table1_cells
from test_corpus import GENERATED
from test_golden import counted_run

S = 1_000_000

LINK_SERIES = ("sample_t_us", "queue_pkts", "link_offered", "link_dropped")
FLOW_SERIES = ("cwnd_pkts", "base_delay_us", "queuing_est_us", "delivered_bytes")


def _per_tick(trace, name):
    """A per-flow series by flow id, one entry per tick: None before a delay
    series' first tick, and no entry for a flow that lacks the series."""
    return {fid: [None] * trace.first_tick(series) + list(series)
            for fid, series in getattr(trace, name).items()}


def _is_a_valid_run(scn):
    try:
        scn.validate()
        check_sample_us(DEFAULT_SAMPLE_US, scn)
    except UsageError:
        return False
    return True


# (the long run, its cut): three presets at 60 and 30 s, and the generated
# scenarios of the digest corpus, with the starts they draw, whose cut to
# half their length is a valid run
PREFIX_RUNS = {p: (replace(get_preset(p), duration_s=60.0),
                   replace(get_preset(p), duration_s=30.0))
               for p in ("fig2a", "fig3-mid", "table1-tl-c2-b10-dtu-noss")} | {
    name: (resolved, cut) for name, scn in GENERATED.items()
    for resolved in [resolve_starts(scn, scn.seed, 0, 0)]
    for cut in [replace(resolved, duration_s=resolved.duration_us // 2 / 1e6)]
    if _is_a_valid_run(cut)}


@pytest.mark.parametrize("run", list(PREFIX_RUNS))
def test_a_short_run_is_the_prefix_of_a_longer_one(run):
    long_scn, short_scn = PREFIX_RUNS[run]
    cut_us = short_scn.duration_us
    short, long = run_scenario(short_scn), run_scenario(long_scn)
    a, b = short.trace, long.trace
    n = len(a.sample_t_us)
    assert a.sample_t_us[-1] == cut_us // DEFAULT_SAMPLE_US * DEFAULT_SAMPLE_US
    for name in LINK_SERIES:
        assert getattr(a, name) == getattr(b, name)[:n], name
    for name in FLOW_SERIES:
        a_series, b_series = _per_tick(a, name), _per_tick(b, name)
        assert a_series.keys() == b_series.keys(), name
        for fid, series in a_series.items():
            assert series == b_series[fid][:n], (name, fid)
    assert a.drops == [d for d in b.drops if d[0] <= cut_us]
    assert a.drops or run in GENERATED  # a preset's cut keeps some loss to compare
    for fid in a.flow_ids:
        assert a.halvings[fid] == [h for h in b.halvings[fid] if h[0] <= cut_us]


# three presets cut to 60 s, and the generated two-flow scenarios of the
# digest corpus whose flows start apart, with the starts they draw: a
# reversed list would draw the other flow's start
RELABEL_RUNS = {p: replace(get_preset(p), duration_s=60.0)
                for p in ("fig3-top", "fig3-mid", "fig3-bottom")} | {
    name: resolved for name, scn in GENERATED.items()
    if len(scn.flows) == 2
    for resolved in [resolve_starts(scn, scn.seed, 0, 0)]
    if resolved.flows[0].start_us != resolved.flows[1].start_us}


@pytest.mark.parametrize("run", list(RELABEL_RUNS))
def test_reversing_the_flow_list_mirrors_a_late_start_pair(run):
    scn = RELABEL_RUNS[run]
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


# three presets cut to 30 s, and the generated scenarios of the digest corpus
SCALING_RUNS = {p: replace(get_preset(p), duration_s=30.0)
                for p in ("fig2a", "fig3-bottom", "adsl-up-b10-tcp-vs-ledbat")} | GENERATED


@pytest.mark.parametrize("run", list(SCALING_RUNS))
def test_scaling_rate_and_packet_size_together_scales_only_the_bytes(run):
    scn = SCALING_RUNS[run]
    base = run_scenario(scn)
    a = base.trace
    assert all(series[-1] > 0 for series in a.delivered_bytes.values())
    for k in (2, 3):
        scaled = run_scenario(replace(scn, capacity_bps=k * scn.capacity_bps,
                                      packet_bytes=k * scn.packet_bytes))
        b = scaled.trace
        for name in LINK_SERIES:
            assert getattr(b, name) == getattr(a, name), (k, name)
        for name in ("cwnd_pkts", "base_delay_us", "queuing_est_us"):
            assert getattr(b, name) == getattr(a, name), (k, name)
        assert b.delivered_bytes == {
            fid: array("q", (k * v for v in series)) for fid, series in a.delivered_bytes.items()}
        assert b.drops == a.drops, k
        assert b.halvings == a.halvings, k
        # the metrics divide by k * capacity_bps: exact at k = 2, a power of
        # two, and at k = 3 only for the presets' round capacities
        if k == 2 or run not in GENERATED:
            m, n = base.metrics, scaled.metrics
            assert (n.eta_percent, n.fairness, n.loss_rate) == (
                m.eta_percent, m.fairness, m.loss_rate), k


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


GRID_SEED = 11
# every grid cell cut to 30 s, its start drawn as run_table1 draws run 0, and
# the generated scenarios of the digest corpus
TWO_TICK_RUNS = {scn.name: resolve_starts(replace(scn, duration_s=30.0), GRID_SEED, ci, 0)
                 for ci, scn in enumerate(table1_cells())} | GENERATED


@pytest.mark.parametrize("run", list(TWO_TICK_RUNS))
def test_a_run_keeping_two_ticks_measures_what_the_full_run_does(run):
    scn = TWO_TICK_RUNS[run]
    full, full_events = counted_run(scn)
    two, events = counted_run(scn, full_trace=False)
    a, b = full.trace, two.trace
    kept = sorted({a.tick_at(full.metrics.t0_us), len(a.sample_t_us) - 1})
    for name in LINK_SERIES:
        assert list(getattr(b, name)) == [getattr(a, name)[i] for i in kept], name
    for name in FLOW_SERIES:
        assert _per_tick(b, name) == {
            fid: [series[i] for i in kept] for fid, series in _per_tick(a, name).items()}, name
    assert two.metrics == full.metrics
    assert extract_check_facts(two) == extract_check_facts(full)
    assert events == full_events
    assert (b.drops, b.halvings, two.flow_stats) == (a.drops, a.halvings, full.flow_stats)
