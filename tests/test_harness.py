"""Run orchestration, batch runs, starvation windows, trace output."""

import concurrent.futures
import gc
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from ledbatsim import harness
from ledbatsim.harness import (
    DEFAULT_SAMPLE_US,
    TraceSet,
    _batch_worker,
    _run_batch,
    _Simulation,
    detect_starvation,
    run_scenario,
    run_table1,
    write_trace_csv,
)
from ledbatsim.network import Bottleneck
from ledbatsim.scenario import Scenario, UsageError, ValidationError, get_preset
from ledbatsim.transport import FlowSpec

S = 1_000_000


def _tiny(duration_s=20.0, **kw):
    base = dict(
        name="tiny",
        capacity_bps=10_000_000,
        buffer_pkts=40,
        flows=[FlowSpec("tcp"), FlowSpec("ledbat")],
        duration_s=duration_s,
    )
    base.update(kw)
    return Scenario(**base)


# -- running -------------------------------------------------------------------


def test_run_scenario_trace_shape_and_conservation():
    res = run_scenario(_tiny(duration_s=10.0), sample_us=100_000)
    tr = res.trace
    n = len(tr.sample_t_us)
    assert n == 101  # 0..10 s inclusive at 100 ms cadence
    assert tr.sample_t_us[0] == 0 and tr.sample_t_us[-1] == 10 * S
    for series in (tr.queue_pkts, tr.link_offered, tr.link_dropped):
        assert len(series) == n
    for fid in tr.flow_ids:
        assert len(tr.cwnd_pkts[fid]) == n
        assert len(tr.delivered_bytes[fid]) == n
        assert min(tr.cwnd_pkts[fid]) >= 1.0
    assert tr.conservation_ok
    assert res.metrics.eta_percent > 50.0  # both flows actually moved data
    assert len(res.flow_stats) == 2


def test_sampled_series_are_typed_arrays_and_delay_series_are_ledbat_only():
    scn = _tiny(duration_s=5.0, flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=2.0)])
    tr = run_scenario(scn, sample_us=100_000).trace
    n = len(tr.sample_t_us)
    assert n == 51
    # "q" and "d" are 8-byte ints and floats
    for series in (tr.sample_t_us, tr.queue_pkts, tr.link_offered, tr.link_dropped,
                   *tr.delivered_bytes.values()):
        assert isinstance(series, array) and series.typecode == "q" and len(series) == n
    for series in tr.cwnd_pkts.values():
        assert isinstance(series, array) and series.typecode == "d" and len(series) == n
    assert set(tr.base_delay_us) == set(tr.queuing_est_us) == {1}
    base, qest = tr.base_delay_us[1], tr.queuing_est_us[1]
    assert base.typecode == qest.typecode == "q"
    assert tr.first_tick(qest) == 0 and len(qest) == n
    # the first ack returns one RTT (50 ms) after the 2 s start: base delays
    # start at the next tick, and the queuing estimate reads 0 until then
    i0 = tr.first_tick(base)
    assert tr.sample_t_us[i0] == 2_100_000 and len(base) == n - i0
    assert set(qest[:i0]) == {0}
    assert min(base) > 0
    tr.queue_pkts.append(0)  # the run let go of its views: a series can grow again


def test_largest_valid_clock_offset_fits_the_trace():
    flows = [FlowSpec("ledbat", clock_offset_us=2**62), FlowSpec("ledbat", clock_offset_us=-2**62)]
    tr = run_scenario(_tiny(duration_s=1.0, flows=flows)).trace
    assert min(tr.base_delay_us[0]) > 2**62 and max(tr.base_delay_us[1]) < -2**62 + S


def test_run_scenario_is_deterministic():
    scn = _tiny(duration_s=15.0)
    a = run_scenario(scn)
    b = run_scenario(scn)
    assert a.trace.cwnd_pkts == b.trace.cwnd_pkts
    assert a.trace.drops == b.trace.drops
    assert a.metrics == b.metrics


def test_flow_start_times_are_honored():
    scn = _tiny(duration_s=12.0,
                flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=6.0)])
    tr = run_scenario(scn, sample_us=100_000).trace
    i_before = tr._sample_index_at(5 * S)
    assert tr.delivered_bytes[1][i_before] == 0
    assert tr.delivered_bytes[1][-1] > 0


def test_run_rejects_invalid_scenario():
    with pytest.raises(ValidationError):
        run_scenario(_tiny(buffer_pkts=0))


@pytest.mark.parametrize("sample_us", [0, -5, 7.5, 10**9])
def test_run_rejects_a_sampling_period_outside_the_run(sample_us):
    # 10**9 us is longer than the 20 s run, which would then hold one tick
    with pytest.raises(UsageError, match=r"sampling period must be an int of us within \(0, "):
        run_scenario(_tiny(), sample_us=sample_us)


def test_run_scenario_frees_its_run_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(_tiny(duration_s=2.0))
        assert not any(isinstance(o, _Simulation) for o in gc.get_objects())
        assert result.metrics.eta_percent > 0  # the run's result outlives it
    finally:
        gc.enable()


@pytest.mark.parametrize("fault", ["lost", "doubled"])
def test_a_packet_lost_inside_the_link_stops_the_run_at_the_next_tick(monkeypatch, fault):
    enqueue = Bottleneck.enqueue
    faulted_at = []

    def faulty_enqueue(self, pkt):
        # from the 100th offer on, the first the link would accept is
        # counted as offered once and then never queued, or queued twice
        if not faulted_at and self.offered >= 99 and len(self.queue) <= self.buffer_pkts:
            faulted_at.append(self.engine.now)
            if fault == "lost":
                self.offered += 1
            else:
                enqueue(self, pkt)
                self.queue.append(pkt)
            return True
        return enqueue(self, pkt)

    monkeypatch.setattr(Bottleneck, "enqueue", faulty_enqueue)
    with pytest.raises(RuntimeError) as exc:
        run_scenario(_tiny(duration_s=5.0))
    (t,) = faulted_at
    assert t % DEFAULT_SAMPLE_US  # off the tick grid: no tick at t runs before the offer
    tick = (t // DEFAULT_SAMPLE_US + 1) * DEFAULT_SAMPLE_US
    assert str(exc.value) == f"packet conservation violated at t={tick}"


# The tick polls a flow's safety timeout only once its last progress is
# MIN_TIMEOUT_US old. These are the LEDBAT flow's timeouts at full length,
# recorded while every flow was polled at every tick.
@pytest.mark.parametrize("sample_us,timeouts", [
    (10_000, [3_260_000, 4_260_000, 9_470_000, 13_690_000, 17_910_000, 22_130_000,
              26_350_000, 30_570_000, 34_790_000, 39_010_000]),
    (250_000, [3_500_000, 7_000_000, 14_250_000, 28_000_000, 40_500_000, 53_250_000,
               65_000_000, 77_500_000]),
])
def test_safety_timeouts_fire_at_the_same_ticks(sample_us, timeouts):
    result = run_scenario(get_preset("table1-tl-c2-b10-dt2-noss"), sample_us=sample_us)
    assert [fs.timeouts for fs in result.flow_stats] == [[], timeouts]


# -- table orchestration ---------------------------------------------------------


def test_run_table_cell_filter_and_determinism():
    summaries, facts = run_table1(2, base_seed=3, cells=["tl-c2-b10-dt2-noss"])
    assert len(summaries) == 1
    cell = summaries[0]
    assert cell.name == "table1-tl-c2-b10-dt2-noss"
    assert cell.mix == "tcp-ledbat"
    assert (cell.capacity_mbps, cell.buffer_pkts, cell.runs) == (2.0, 10, 2)
    assert len(facts) == 2
    again, _ = run_table1(2, base_seed=3, cells=["tl-c2-b10-dt2-noss"])
    assert again[0].eta == cell.eta
    assert again[0].fairness == cell.fairness


def test_batch_worker_frees_its_run():
    # a finished run drops the engine's handlers and queued events, which
    # point back at the simulation, so the run is freed with the collector off
    gc.collect()
    gc.disable()
    try:
        _batch_worker(_tiny(duration_s=2.0))
        assert not any(isinstance(o, _Simulation) for o in gc.get_objects())
    finally:
        gc.enable()


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: maps in this process, records its size."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs,runs,pool_size", [
    (64, 1, None), (64, 3, 3), (2, 3, 2), (1, 3, None),
])
def test_batch_pool_has_no_more_workers_than_runs(monkeypatch, jobs, runs, pool_size):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InProcessPool(sizes, max_workers))
    out = _run_batch([_tiny(duration_s=1.0)] * runs, jobs)
    assert len(out) == runs
    assert sizes == ([] if pool_size is None else [pool_size])


def test_run_table_rejects_a_base_seed_that_is_not_an_int():
    # the grid's base seed meets the scenario seed's rule, before any run
    with pytest.raises(ValidationError, match=r"seed must be within \[0, 2\*\*64\) and an int"):
        run_table1(1, base_seed=1.5)


def test_run_table_rejects_empty_selection_and_bad_runs():
    with pytest.raises(UsageError, match="selected nothing"):
        run_table1(1, base_seed=0, cells=["no-such-cell"])
    with pytest.raises(UsageError, match="at least 1"):
        run_table1(0, base_seed=0)
    with pytest.raises(UsageError, match="at least 1"):
        run_table1(1, base_seed=0, jobs=0)


# -- starvation windows -----------------------------------------------------------


def _starvation_trace(flow1_rates_bps, capacity_bps=10_000_000, window_s=10):
    """Synthetic two-flow trace: flow 0 saturates, flow 1 follows the given
    per-window rates (None = not yet started)."""
    n_windows = len(flow1_rates_bps)
    tr = TraceSet([0, 1], capacity_bps, n_windows * window_s * S)
    cum0 = cum1 = 0
    tr.sample_t_us.append(0)
    tr.delivered_bytes[0].append(0)
    tr.delivered_bytes[1].append(0)
    for w, rate in enumerate(flow1_rates_bps):
        cum0 += capacity_bps // 8 * window_s  # flow 0 fills the link
        cum1 += 0 if rate is None else int(rate / 8 * window_s)
        tr.sample_t_us.append((w + 1) * window_s * S)
        tr.delivered_bytes[0].append(cum0)
        tr.delivered_bytes[1].append(cum1)
    return tr


def test_starvation_needs_two_flows():
    tr = TraceSet([0], 10_000_000, 10 * S)
    with pytest.raises(UsageError, match="two flows"):
        detect_starvation(tr)


def test_starvation_merges_consecutive_windows():
    # fair share 5 Mbps; threshold 5% = 250 kbps
    tr = _starvation_trace([4e6, 1e5, 1e5, 1e5, 4e6])
    eps = detect_starvation(tr)
    assert [(e.flow_id, e.t0_us, e.t1_us) for e in eps] == [(1, 10 * S, 40 * S)]


def test_starvation_open_at_trace_end_is_reported():
    tr = _starvation_trace([4e6, 1e5, 1e5])
    eps = detect_starvation(tr)
    assert [(e.t0_us, e.t1_us) for e in eps] == [(10 * S, 30 * S)]


def test_starvation_ignores_windows_before_first_byte():
    # flow 1 starts in the third window; silence before that is not starvation
    tr = _starvation_trace([None, None, 4e6, 4e6])
    assert detect_starvation(tr) == []
    # but a started flow that then stalls is flagged
    tr = _starvation_trace([None, None, 4e6, 1e5])
    eps = detect_starvation(tr)
    assert [(e.flow_id, e.t0_us, e.t1_us) for e in eps] == [(1, 30 * S, 40 * S)]


def test_starvation_requires_a_thriving_competitor():
    # both flows idle: nobody is starved, the link is just unused
    tr = _starvation_trace([1e5, 1e5])
    tr.delivered_bytes[0] = [0, 125, 250]  # flow 0 barely moves either
    assert detect_starvation(tr) == []


# -- trace output -------------------------------------------------------------------


def test_trace_rows_at_equal_times(tmp_path):
    # ticks at 0, 10 and 20 us; flow 0 loss-based (no delay series), flow 1
    # delay-based with its first base delay at the second tick
    tr = TraceSet([0, 1], 10_000_000, 20, delay_flow_ids=[1])
    for i, t in enumerate((0, 10, 20)):
        tr.sample_t_us.append(t)
        tr.queue_pkts.append(i)
        tr.cwnd_pkts[0].append(2.0 + i)
        tr.cwnd_pkts[1].append(3.0)
        if i > 0:
            tr.base_delay_us[1].append(50 + i)
        tr.queuing_est_us[1].append(i)
        tr.delivered_bytes[0].append(100 * i)
        tr.delivered_bytes[1].append(10 * i)
    tr.drops = [(10, 1, 7), (25, 0, 9)]  # one at a tick, one after the last
    tr.halvings[0] = [(15, 1.5, 4), (25, 1.0, 4)]
    tr.halvings[1] = [(15, 2.5, 4)]  # the same instant as flow 0's
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    assert path.read_bytes().decode() == (
        "t_us,entity,series,value\n"
        "0,link,queue_pkts,0\n"
        "0,0,cwnd_pkts,2.0\n"
        "0,0,delivery,0\n"
        "0,1,cwnd_pkts,3.0\n"
        "0,1,queuing_est_us,0\n"
        "0,1,delivery,0\n"
        "10,link,queue_pkts,1\n"
        "10,0,cwnd_pkts,3.0\n"
        "10,0,delivery,100\n"
        "10,1,cwnd_pkts,3.0\n"
        "10,1,base_delay_us,51\n"
        "10,1,queuing_est_us,1\n"
        "10,1,delivery,10\n"
        "10,1,drop,7\n"
        "15,0,cwnd_pkts,1.5\n"
        "15,1,cwnd_pkts,2.5\n"
        "20,link,queue_pkts,2\n"
        "20,0,cwnd_pkts,4.0\n"
        "20,0,delivery,200\n"
        "20,1,cwnd_pkts,3.0\n"
        "20,1,base_delay_us,52\n"
        "20,1,queuing_est_us,2\n"
        "20,1,delivery,20\n"
        "25,0,drop,9\n"
        "25,0,cwnd_pkts,1.0\n"
    )


def _reference_trace_csv(trace, path):
    """The trace writer as it was before it formatted whole blocks of ticks:
    one row at a time, each an f-string. The block writer must match its bytes."""
    events = [(t, f"{t},{fid},drop,{seq}") for t, fid, seq in trace.drops] + [
        (t, f"{t},{fid},cwnd_pkts,{cwnd_after}")
        for fid in trace.flow_ids for t, cwnd_after, _ in trace.halvings[fid]]
    events.sort(key=lambda e: e[0])

    flows = []
    for fid in trace.flow_ids:
        base = trace.base_delay_us.get(fid, ())
        qest = trace.queuing_est_us.get(fid, ())
        flows.append((fid, trace.cwnd_pkts[fid], base, trace.first_tick(base),
                      qest, trace.first_tick(qest), trace.delivered_bytes[fid]))

    def lines():
        k = 0
        for i, t in enumerate(trace.sample_t_us):
            while k < len(events) and events[k][0] < t:
                yield events[k][1]
                k += 1
            yield f"{t},link,queue_pkts,{trace.queue_pkts[i]}"
            for fid, cwnd, base, i_base, qest, i_qest, delivered in flows:
                yield f"{t},{fid},cwnd_pkts,{cwnd[i]}"
                if i >= i_base:
                    yield f"{t},{fid},base_delay_us,{base[i - i_base]}"
                if i >= i_qest:
                    yield f"{t},{fid},queuing_est_us,{qest[i - i_qest]}"
                yield f"{t},{fid},delivery,{delivered[i]}"
        for _, line in events[k:]:
            yield line

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,entity,series,value\n")
        fh.writelines(line + "\n" for line in lines())


def _hand_trace(n_ticks, base_from=0, drops=(), halvings=()):
    """Ticks every 10 us from 0; flow 0 loss-based, flow 1 delay-based with
    its first base delay at tick `base_from` (none if it is n_ticks)."""
    tr = TraceSet([0, 1], 10_000_000, 10 * (n_ticks - 1), delay_flow_ids=[1])
    for i in range(n_ticks):
        tr.sample_t_us.append(10 * i)
        tr.queue_pkts.append(i % 5)
        tr.cwnd_pkts[0].append(1.0 + i / 4)
        tr.cwnd_pkts[1].append(2.5 + i / 3)
        if i >= base_from:
            tr.base_delay_us[1].append(40 + i)
        tr.queuing_est_us[1].append(i)
        tr.delivered_bytes[0].append(1500 * i)
        tr.delivered_bytes[1].append(1000 * i)
    tr.drops = list(drops)
    for fid, t, cwnd_after in halvings:
        tr.halvings[fid].append((t, cwnd_after, 10))
    return tr


# with blocks of 4 ticks: tick 4, at 40 us, starts the second block
HAND_TRACES = {
    "event at a tick": _hand_trace(10, drops=[(30, 1, 7)], halvings=[(0, 50, 0.5)]),
    "events at a block boundary": _hand_trace(
        10, drops=[(35, 0, 3), (40, 1, 4)], halvings=[(1, 40, 1.5), (0, 80, 2.0)]),
    "two flows at one instant": _hand_trace(
        10, drops=[(25, 1, 4), (25, 0, 3)], halvings=[(1, 25, 3.5), (0, 25, 2.0)]),
    "events after the last tick": _hand_trace(
        10, drops=[(90, 0, 5), (95, 1, 6), (120, 0, 7)], halvings=[(0, 95, 1.0)]),
    "delay series starts mid-block": _hand_trace(10, base_from=6, drops=[(45, 1, 2)]),
    "delay series never starts": _hand_trace(10, base_from=10),
    "shorter than one block": _hand_trace(3, base_from=1, drops=[(10, 0, 1), (25, 1, 2)]),
}


@pytest.mark.parametrize("block_ticks", [1, 4])
@pytest.mark.parametrize("case", sorted(HAND_TRACES))
def test_trace_writer_matches_the_row_at_a_time_writer(case, block_ticks, tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(harness, "TRACE_BLOCK_TICKS", block_ticks)
    trace = HAND_TRACES[case]
    write_trace_csv(trace, tmp_path / "blocks.csv")
    _reference_trace_csv(trace, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("preset", ["fig2a", "fig3-bottom", "adsl-up-b10-tcp-vs-ledbat"])
def test_trace_writer_matches_the_row_at_a_time_writer_on_1ms_runs(preset, tmp_path):
    # the golden digests cover the 10 ms tick only; 60 s reach past
    # fig3-bottom's late start and hold drops and halvings of both flows
    trace = run_scenario(replace(get_preset(preset), duration_s=60.0), sample_us=1000).trace
    assert trace.drops or preset == "fig3-bottom"
    write_trace_csv(trace, tmp_path / "blocks.csv")
    _reference_trace_csv(trace, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("preset", ["fig2a", "fig3-bottom"])
def test_trace_writer_holds_no_copy_of_the_trace(preset, tmp_path):
    # a full-length trace is 30,001 ticks in about 200k lines: over 15 MB if
    # held as a list of rows, and over 1 MB for its tick times alone.
    # fig3-bottom has no drop or halving to cut it into blocks.
    trace = run_scenario(get_preset(preset)).trace
    assert len(trace.sample_t_us) == 30_001
    tracemalloc.start()
    try:
        write_trace_csv(trace, tmp_path / "trace.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
