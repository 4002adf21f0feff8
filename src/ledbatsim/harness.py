"""Running and recording a scenario: wires its flows onto a shared
bottleneck, runs them, samples traces, detects starvation, drives seeded
multi-run batches for the summary grid, and writes the CSV outputs.

What a scenario is (model, bounds, presets, file format) lives in
scenario.py. Everything inside a run is exact integer-microsecond event
processing, so identical inputs give bit-identical traces.
"""

import bisect
import contextlib
from array import array
from dataclasses import dataclass
from itertools import repeat

from .engine import Engine, EventKind
from .ledbat import LedbatFlow
from .metrics import MetricsReport, aggregate_runs, compute_report
from .network import AckPath, Bottleneck
from .scenario import (Scenario, UsageError, check_seed, resolve_starts, service_time_us,
                       table1_cells)
from .tcp import TcpFlow
from .transport import MIN_TIMEOUT_US, Receiver, SenderBase

DEFAULT_SAMPLE_US = 10_000
STARVATION_WINDOW_S = 10.0
STARVATION_THRESHOLD = 0.05  # of the fair share
STATS_SAMPLE = EventKind.STATS_SAMPLE  # bound once, as in network.py
TRACE_BLOCK_TICKS = 128  # ticks the trace writer formats at once, which bounds its memory


# ---------------------------------------------------------------------------
# trace capture


class TraceSet:
    """Columnar per-run trace: fixed-cadence samples plus event rows.

    The trace lays itself out. Tick k falls at k * sample_us, up to
    duration_us. The trace keeps the ticks whose indexes are in the range
    `ticks`, every tick by default, so the kept tick times are held as a
    range too; the constructor allocates every series at the kept length,
    zeroed, and the run's j-th kept tick writes entry j of each.
    A trace that keeps fewer ticks answers interval queries only at the
    ticks it kept, and the writer and starvation detection read it as if it
    had no others, so only the grid's batch runs ask for one.
    Sampled series are 8-byte typed arrays, `array("q")` of ints except the
    window, `array("d")`. Every kept tick: the link queue occupancy and
    cumulative counters, and per flow the window and the cumulative delivered
    bytes. The delay estimates exist only for the flows in `delay_flow_ids`
    (the LEDBAT flows), and each covers the trace's last len(series) ticks,
    from `first_tick(series)` on: `queuing_est_us` every kept tick, and
    `base_delay_us`, empty at first, the ticks after the flow's first delay
    sample, one entry appended by each.
    `min_cwnd_pkts` is the least window any flow had at any tick, kept or
    not. It and the event rows, drops (exact times) and window halvings, are
    handed over when the run ends. Safety timeouts are in RunResult.flow_stats.
    """

    def __init__(self, flow_ids, capacity_bps, duration_us, sample_us, delay_flow_ids=(),
                 ticks=None):
        self.flow_ids = list(flow_ids)
        self.capacity_bps = capacity_bps
        self.duration_us = duration_us

        every_tick = range(0, duration_us + 1, sample_us)
        self.ticks = range(len(every_tick)) if ticks is None else ticks
        self.sample_t_us = every_tick[self.ticks.start:self.ticks.stop:self.ticks.step]
        n = len(self.sample_t_us)
        self.queue_pkts = array("q", [0]) * n
        self.link_offered = array("q", [0]) * n
        self.link_dropped = array("q", [0]) * n
        self.cwnd_pkts = {fid: array("d", [0]) * n for fid in self.flow_ids}
        self.base_delay_us = {fid: array("q") for fid in delay_flow_ids}
        self.queuing_est_us = {fid: array("q", [0]) * n for fid in delay_flow_ids}
        self.delivered_bytes = {fid: array("q", [0]) * n for fid in self.flow_ids}

        self.drops: list[tuple[int, int, int]] = []  # (t_us, flow_id, seq)
        self.halvings = {fid: [] for fid in self.flow_ids}  # (t_us, cwnd_after, rtt_gate)
        self.min_cwnd_pkts = float("inf")
        self.conservation_ok = True

    def first_tick(self, series) -> int:
        """Index of the tick a delay series starts at (the tick count if it is empty)."""
        return len(self.sample_t_us) - len(series)

    def tick_at(self, t_us: int) -> int:
        """Index of the last kept tick at or before t_us."""
        i = bisect.bisect_right(self.sample_t_us, t_us) - 1
        if i < 0:
            raise ValueError(f"t={t_us} precedes the first sample")
        return i


@dataclass
class FlowStats:
    retransmits: int
    max_update_ratio: float  # ledbat: largest gain*off_target applied (packets)
    timeouts: list[int]  # safety-timeout firing times (us)


@dataclass
class RunResult:
    scenario: Scenario
    trace: TraceSet
    metrics: MetricsReport
    flow_stats: list[FlowStats]


# ---------------------------------------------------------------------------
# the wired simulation


class _Simulation:
    def __init__(self, scenario: Scenario, sample_us: int, ticks=None):
        self.scenario = scenario
        self.sample_us = sample_us
        self.duration_us = scenario.duration_us
        self.engine = Engine()

        svc = service_time_us(scenario.packet_bytes, scenario.capacity_bps)
        self.link = Bottleneck(self.engine, svc, scenario.rtt_base_us // 2 - svc,
                               scenario.buffer_pkts)
        self.ack_path = AckPath(self.engine, scenario.rtt_base_us // 2)

        self.senders = []
        self.receivers = []
        for fid, spec in enumerate(scenario.flows):
            sender_cls = LedbatFlow if spec.kind == "ledbat" else TcpFlow
            self.senders.append(sender_cls(self.engine, fid, self.link, spec))
            self.receivers.append(Receiver(spec.clock_offset_us))

        ledbats = [s for s in self.senders if isinstance(s, LedbatFlow)]
        tr = self.trace = TraceSet(range(len(self.senders)), scenario.capacity_bps,
                                   self.duration_us, sample_us, [s.flow_id for s in ledbats],
                                   ticks)
        # the next kept tick's index, and its entry in the series
        self._keep_k, self._keep_step, self._keep_j = tr.ticks.start, tr.ticks.step, 0
        self._min_cwnd = tr.min_cwnd_pkts
        self._flow_series = [
            (s, tr.cwnd_pkts[s.flow_id], tr.delivered_bytes[s.flow_id]) for s in self.senders]
        self._delay_series = [
            (s, tr.base_delay_us[s.flow_id].append, tr.queuing_est_us[s.flow_id])
            for s in ledbats]

        eng = self.engine
        eng.register(EventKind.PACKET_ARRIVAL, self._on_arrival)
        # looked up on the class here, so that a wrapper put on it is what runs
        eng.register(EventKind.PACING_TIMER, SenderBase.on_pacing_timer)
        eng.register(EventKind.FLOW_START, self._on_flow_start)
        eng.register(STATS_SAMPLE, self._on_sample)
        eng.register(EventKind.SIM_END, lambda _payload: None)

    def _on_arrival(self, pkt) -> None:
        now = self.engine.now
        if pkt.is_ack:
            self.senders[pkt.flow_id].on_ack(pkt, now)
        else:
            ack = self.receivers[pkt.flow_id].on_data(pkt, now)
            self.ack_path.send(ack)

    def _on_flow_start(self, fid) -> None:
        self.senders[fid].start(self.engine.now)

    def _on_sample(self, k) -> None:
        now = self.engine.now
        link = self.link
        queued = len(link.queue)
        n_dropped = len(link.drops)
        if k == self._keep_k:  # a kept tick: its entry j of every series
            j = self._keep_j
            self._keep_j = j + 1
            self._keep_k = k + self._keep_step
            tr = self.trace
            tr.queue_pkts[j] = queued
            tr.link_offered[j] = link.offered
            tr.link_dropped[j] = n_dropped
            by_flow = link.delivered_by_flow
            packet_bytes = self.scenario.packet_bytes  # the link counts packets
            for s, cwnd, delivered in self._flow_series:
                cwnd[j] = s.cwnd
                delivered[j] = by_flow.get(s.flow_id, 0) * packet_bytes
            for s, store_base, qest in self._delay_series:
                base = s.base_delay_us
                if base is not None:  # once set by the first delay sample, it stays set
                    store_base(base)
                qest[j] = s.queuing_delay_est_us
        # the link's conservation identity, at every tick
        if link.offered != link.delivered + n_dropped + queued:
            raise RuntimeError(f"packet conservation violated at t={now}")
        # a timeout waits at least MIN_TIMEOUT_US from the last progress, so
        # a flow that made progress since then is not polled; a poll changes
        # no window but its own flow's, which is read first
        low = self._min_cwnd
        for s in self.senders:
            if s.cwnd < low:
                low = s.cwnd
            if now - s.last_progress_at >= MIN_TIMEOUT_US:
                s.check_timeout(now)
        self._min_cwnd = low
        nxt = now + self.sample_us
        if nxt <= self.duration_us:
            self.engine.schedule(nxt, STATS_SAMPLE, k + 1)

    def run(self) -> None:
        self.engine.schedule(0, STATS_SAMPLE, 0)  # the payload is the tick index
        for fid, spec in enumerate(self.scenario.flows):
            self.engine.schedule(spec.start_us, EventKind.FLOW_START, fid)
        self.engine.schedule(self.duration_us, EventKind.SIM_END)
        self.engine.run(self.duration_us)
        # the handlers and the events left queued point back at this
        # simulation, its link and its senders: dropping them leaves no cycle,
        # so the finished run is freed without the cycle collector
        self.engine.clear()
        self.trace.drops = self.link.drops
        self.trace.min_cwnd_pkts = float(self._min_cwnd)  # as a window series holds it
        for s in self.senders:
            self.trace.halvings[s.flow_id] = list(s.halvings)


def check_sample_us(sample_us: int, scenario: Scenario) -> None:
    """A sampling period for a valid scenario: an int number of microseconds
    in (0, duration_us], so that a run holds at least its first and last
    tick, and one whose last tick comes after the latest start the second
    flow can draw, so that the measurement interval's ends read two ticks."""
    duration_us = scenario.duration_us
    if type(sample_us) is not int or not 0 < sample_us <= duration_us:
        raise UsageError(f"sampling period must be an int of us within (0, {duration_us}], "
                         f"not {sample_us!r}")
    if len(scenario.flows) > 1:
        latest_us = scenario.latest_second_start_us()
        last_tick_us = duration_us // sample_us * sample_us
        if latest_us >= last_tick_us:
            raise UsageError(f"second flow may start at {latest_us / 1e6:g} s, "
                             f"not before the last tick at {last_tick_us / 1e6:g} s")


def run_scenario(scenario: Scenario, sample_us: int = DEFAULT_SAMPLE_US,
                 full_trace: bool = True) -> RunResult:
    """Resolve start-time randomness from the scenario seed, run, and measure.

    The measurement interval is [second flow's resolved start, duration]
    ([0, duration] for a single flow). Deterministic: same scenario and seed
    give bit-identical traces and metrics.

    The trace keeps every tick unless `full_trace` is false. Then it keeps
    only the two ticks the metrics read, the one at or before the interval's
    start and the last, or one tick when they coincide. Such a trace
    answers interval queries only at those ticks, so only `_batch_worker`
    asks for one. Either way every tick fires, checks conservation and polls
    stalled flows at the same times, so the run, its metrics and its check
    facts are the same.
    """
    scenario.validate()
    check_sample_us(sample_us, scenario)
    resolved = resolve_starts(scenario, scenario.seed, 0, 0)
    t0_us = resolved.flows[1].start_us if len(resolved.flows) > 1 else 0
    ticks = None
    if not full_trace:
        first, last = t0_us // sample_us, resolved.duration_us // sample_us
        ticks = range(first, last + 1, last - first or 1)
    sim = _Simulation(resolved, sample_us, ticks)
    sim.run()
    metrics = compute_report(sim.trace, (t0_us, resolved.duration_us))
    stats = [
        FlowStats(
            retransmits=s.retransmits,
            max_update_ratio=getattr(s, "max_update_ratio", 0.0),
            timeouts=list(s.timeouts),
        )
        for s in sim.senders
    ]
    return RunResult(scenario=resolved, trace=sim.trace, metrics=metrics, flow_stats=stats)


# ---------------------------------------------------------------------------
# starvation detection


@dataclass
class StarvationEpisode:
    flow_id: int
    t0_us: int
    t1_us: int


def detect_starvation(trace: TraceSet):
    """Windows of STARVATION_WINDOW_S where one flow runs under
    STARVATION_THRESHOLD of the fair share while another holds more than half
    of it; consecutive windows merge into episodes. Needs a multi-flow trace."""
    if len(trace.flow_ids) < 2:
        raise UsageError("starvation detection needs at least two flows")
    fair_bps = trace.capacity_bps / len(trace.flow_ids)
    window_us = int(round(STARVATION_WINDOW_S * 1_000_000))
    end_us = trace.sample_t_us[-1]
    episodes: list[StarvationEpisode] = []
    open_eps: dict[int, StarvationEpisode] = {}
    t = 0
    while t + window_us <= end_us:
        i0, i1 = trace.tick_at(t), trace.tick_at(t + window_us)
        rates = {
            fid: 8 * (trace.delivered_bytes[fid][i1] - trace.delivered_bytes[fid][i0])
            / (window_us / 1e6)
            for fid in trace.flow_ids
        }
        for fid in trace.flow_ids:
            if trace.delivered_bytes[fid][i1] == 0:
                continue  # flow has not sent anything yet: silence, not starvation
            starved = rates[fid] < STARVATION_THRESHOLD * fair_bps and any(
                rates[g] > 0.5 * fair_bps for g in trace.flow_ids if g != fid
            )
            if starved:
                ep = open_eps.get(fid)
                if ep is None:
                    open_eps[fid] = StarvationEpisode(fid, t, t + window_us)
                else:
                    ep.t1_us = t + window_us
            elif fid in open_eps:
                episodes.append(open_eps.pop(fid))
        t += window_us
    episodes.extend(open_eps.values())
    episodes.sort(key=lambda e: (e.t0_us, e.flow_id))
    return episodes


# ---------------------------------------------------------------------------
# multi-run batches (summary grid)


@dataclass
class CellSummary:
    name: str
    mix: str  # "tcp-ledbat" | "ledbat-ledbat"
    capacity_mbps: float
    buffer_pkts: int
    delta_t: str  # "2" | "10" | "U(0,10)"
    slow_start: bool
    runs: int
    eta: tuple[float, float]
    fairness: tuple[float, float]
    loss: tuple[float, float]


@dataclass
class RunCheckFacts:
    """Flow/trace invariant digest carried out of every batch run."""
    max_update_ratio: float
    min_sampled_cwnd: float
    halving_gaps_ok: bool
    conservation_ok: bool


def extract_check_facts(result: RunResult) -> RunCheckFacts:
    max_ratio = max(fs.max_update_ratio for fs in result.flow_stats)
    gaps_ok = True
    for halvings in result.trace.halvings.values():
        for (t_prev, _, _), (t_cur, _, gate) in zip(halvings, halvings[1:]):
            if t_cur - t_prev < gate:
                gaps_ok = False
    return RunCheckFacts(
        max_update_ratio=max_ratio,
        min_sampled_cwnd=result.trace.min_cwnd_pkts,
        halving_gaps_ok=gaps_ok,
        conservation_ok=result.trace.conservation_ok,
    )


def _batch_worker(scenario: Scenario) -> tuple[MetricsReport, RunCheckFacts]:
    result = run_scenario(scenario, full_trace=False)
    return result.metrics, extract_check_facts(result)


def select_table1_cells(base_seed: int, cells=None) -> list[tuple[int, Scenario]]:
    """The grid cells, with their grid index, whose name contains one of the
    `cells` substrings (every cell when `cells` is empty). Raises UsageError
    for a base seed out of range or a filter that selects nothing."""
    check_seed(base_seed)
    selected = [(ci, scn) for ci, scn in enumerate(table1_cells())
                if not cells or any(sub in scn.name for sub in cells)]
    if not selected:
        raise UsageError("cell filter selected nothing")
    return selected


def run_table1(runs_per_cell: int, base_seed: int, jobs: int = 1, cells=None,
               progress=None) -> tuple[list[CellSummary], list[RunCheckFacts]]:
    """Run the summary grid: both flow mixes on both links, three start
    offsets, slow start off and on. `cells` filters by substring of the cell
    name without disturbing per-cell seeding."""
    if runs_per_cell < 1 or jobs < 1:
        raise UsageError("runs_per_cell and jobs must each be at least 1")
    selected = select_table1_cells(base_seed, cells)
    work = [(ci, resolve_starts(scn, base_seed, ci, ri))  # (cell index, concrete run)
            for ci, scn in selected for ri in range(runs_per_cell)]

    outputs = _run_batch([scn for _, scn in work], jobs, progress)

    summaries = []
    all_facts = [facts for _, facts in outputs]
    by_cell: dict[int, list[MetricsReport]] = {}
    for (ci, _), (metrics, _) in zip(work, outputs):
        by_cell.setdefault(ci, []).append(metrics)
    for ci, scn in selected:
        agg = aggregate_runs(by_cell[ci])
        mix = "tcp-ledbat" if scn.flows[0].kind == "tcp" else "ledbat-ledbat"
        delta_t = "U(0,10)" if scn.delta_t_mode == "uniform" else f"{scn.flows[1].start_s:g}"
        summaries.append(CellSummary(
            name=scn.name,
            mix=mix,
            capacity_mbps=scn.capacity_bps / 1e6,
            buffer_pkts=scn.buffer_pkts,
            delta_t=delta_t,
            slow_start=scn.flows[0].slow_start,
            runs=len(by_cell[ci]),
            eta=agg["eta_percent"],
            fairness=agg["fairness"],
            loss=agg["loss_rate"],
        ))
    return summaries, all_facts


def _run_batch(scenarios: list[Scenario], jobs: int, progress=None):
    """Ordered map over runs; fold order is by input index however many workers.
    A pool starts all its workers at the first submit, so it gets no more
    workers than there are runs, and one run or job runs in this process."""
    from concurrent.futures import ProcessPoolExecutor
    workers = min(jobs, len(scenarios))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        out = []
        for res in (pool.map if pool else map)(_batch_worker, scenarios):
            out.append(res)
            if progress:
                progress(len(out), len(scenarios))
    return out


# ---------------------------------------------------------------------------
# file output


def _write_csv(path, header: str, lines) -> None:
    """Every CSV output: UTF-8, a header, then each item of `lines` (a row, or
    a block of rows joined by newlines) ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)


def write_trace_csv(trace: TraceSet, path: str) -> None:
    """Long-form rows: t_us,entity,series,value (entity is a flow id or 'link').

    Rows are in time order; at equal times a tick's sampled rows come first,
    then drops, then halvings by flow id. The ticks are formatted in blocks of
    at most TRACE_BLOCK_TICKS, each written as it is formed.
    """
    # halvings land as exact-time window samples so plots show the edge
    events = [(t, f"{t},{fid},drop,{seq}") for t, fid, seq in trace.drops] + [
        (t, f"{t},{fid},cwnd_pkts,{cwnd_after}")
        for fid in trace.flow_ids for t, cwnd_after, _ in trace.halvings[fid]]
    events.sort(key=lambda e: e[0])
    times = trace.sample_t_us
    n = len(times)
    # an event row goes before the first tick later than it
    event_at = [bisect.bisect_right(times, t) for t, _ in events]

    # the sampled series in row order: (first tick, row label, series); a
    # loss-based flow's delay series are empty, so they start after the last tick
    columns = [(0, ",link,queue_pkts,", trace.queue_pkts)]
    for fid in trace.flow_ids:
        base = trace.base_delay_us.get(fid, ())
        qest = trace.queuing_est_us.get(fid, ())
        columns += [(0, f",{fid},cwnd_pkts,", trace.cwnd_pkts[fid]),
                    (trace.first_tick(base), f",{fid},base_delay_us,", base),
                    (trace.first_tick(qest), f",{fid},queuing_est_us,", qest),
                    (0, f",{fid},delivery,", trace.delivered_bytes[fid])]

    # within a block every tick has the same rows and no event falls between two ticks
    cuts = sorted({*range(0, n, TRACE_BLOCK_TICKS), n, *event_at,
                   *(first for first, _, _ in columns if 0 < first < n)})

    def lines():
        k = 0
        for i0, i1 in zip(cuts, cuts[1:]):
            while k < len(events) and event_at[k] <= i0:
                yield events[k][1]
                k += 1
            t = list(map(str, times[i0:i1]))
            parts = []
            for first, label, series in columns:
                if first <= i0:
                    parts += [t, repeat(label), map(str, series[i0 - first:i1 - first]),
                              repeat("\n")]
            parts.pop()  # the newline after a tick's last row is the join's
            yield "\n".join(map("".join, zip(*parts)))
        for _, line in events[k:]:
            yield line

    _write_csv(path, "t_us,entity,series,value", lines())


def write_summary_csv(result: RunResult, path: str) -> None:
    m = result.metrics
    cols = ["scenario", "capacity_bps", "buffer_pkts", "t0_us", "t1_us",
            "eta_percent", "fairness", "loss_rate"]
    vals = [result.scenario.name, result.scenario.capacity_bps, result.scenario.buffer_pkts,
            m.t0_us, m.t1_us, m.eta_percent, m.fairness, m.loss_rate]
    for fid, (spec, rate) in enumerate(zip(result.scenario.flows, m.flow_rates_bps)):
        cols += [f"flow{fid}_kind", f"flow{fid}_start_us", f"flow{fid}_rate_bps"]
        vals += [spec.kind, spec.start_us, rate]
    _write_csv(path, ",".join(cols), [",".join(map(str, vals))])


def write_table_csv(summaries: list[CellSummary], path: str) -> None:
    header = ("scenario,mix,capacity_mbps,buffer_pkts,delta_t,slow_start,runs,"
              "eta_mean,eta_std,fairness_mean,fairness_std,loss_mean,loss_std")
    _write_csv(path, header, (",".join(map(str, [
        c.name, c.mix, c.capacity_mbps, c.buffer_pkts, f'"{c.delta_t}"',
        "on" if c.slow_start else "off", c.runs, *c.eta, *c.fairness, *c.loss,
    ])) for c in summaries))
