"""Scenario harness: builds flows onto a shared bottleneck, runs them, samples
traces, and drives seeded multi-run batches for the summary grid.

A scenario is deterministic given its seed: the only randomness is the second
flow's start time (a uniform start offset and/or a small start jitter), drawn
from a named, splittable generator (PCG64 seeded by [base_seed, cell_index,
run_index]). Everything inside a run is exact integer-microsecond event
processing, so identical inputs give bit-identical traces.
"""

import bisect
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .engine import Engine, EventKind
from .ledbat import LedbatFlow
from .metrics import MetricsReport, aggregate_runs, compute_report
from .network import AckPath, Bottleneck, service_time_us
from .tcp import TcpFlow
from .transport import FlowSpec, Receiver

DEFAULT_SAMPLE_US = 10_000
UNIFORM_START_MAX_S = 10.0  # delta_t_mode "uniform" draws the second start from U(0, this)


class UsageError(Exception):
    """Caller misuse: bad invocation, malformed input, impossible request."""


class ParseError(UsageError):
    """Scenario file rejected; message carries file/line context."""


class ValidationError(UsageError):
    """Scenario contents out of range."""


# ---------------------------------------------------------------------------
# scenario model


@dataclass
class Scenario:
    # keyword-only, so that its default can stand before the required fields
    name: str = field(default="scenario", kw_only=True)
    capacity_bps: int
    buffer_pkts: int
    flows: list[FlowSpec]
    rtt_base_us: int = 50_000
    packet_bytes: int = 1500
    duration_s: float = 300.0
    seed: int = 0
    delta_t_mode: str = "fixed"  # "fixed" | "uniform" (second start ~ U(0,10) s)
    start_jitter_s: float = 0.0  # extra U(0, jitter) on the second flow's start

    def validate(self) -> None:
        if self.capacity_bps <= 0:
            raise ValidationError("capacity_bps must be positive")
        if self.buffer_pkts < 1:
            raise ValidationError("buffer_pkts must be at least 1")
        if self.packet_bytes <= 0:
            raise ValidationError("packet_bytes must be positive")
        if self.duration_s <= 0:
            raise ValidationError("duration_s must be positive")
        if not self.flows:
            raise ValidationError("scenario needs at least one flow")
        if self.delta_t_mode not in ("fixed", "uniform"):
            raise ValidationError(f"unknown delta_t_mode {self.delta_t_mode!r}")
        if self.start_jitter_s < 0:
            raise ValidationError("start_jitter_s must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")
        svc = service_time_us(self.packet_bytes, self.capacity_bps)
        if self.rtt_base_us // 2 < svc:
            raise ValidationError(
                "rtt_base_us too small: one-way path cannot absorb the service time"
            )
        for i, f in enumerate(self.flows):
            if f.kind not in ("ledbat", "tcp"):
                raise ValidationError(f"flow {i}: unknown kind {f.kind!r}")
            if not 0 <= f.start_s < self.duration_s:
                raise ValidationError(f"flow {i}: start_s outside [0, duration)")
            if f.target_us < 1:
                raise ValidationError(f"flow {i}: target_ms must be at least 0.001 (1 us)")
            if not 2 <= f.base_histo_min <= 10:
                raise ValidationError(f"flow {i}: base_histo_min must be within [2, 10]")
            if f.gain is not None and (f.gain[0] <= 0 or f.gain[1] <= 0):
                raise ValidationError(f"flow {i}: gain must be a positive rational")
        if len(self.flows) > 1:
            # the latest start resolve_starts can draw for the second flow
            if self.delta_t_mode == "uniform":
                latest_s = UNIFORM_START_MAX_S
            else:
                latest_s = self.flows[1].start_s + self.start_jitter_s
            if latest_s >= self.duration_s:
                raise ValidationError(
                    f"second flow may start at {latest_s:g} s, not before duration_s"
                )

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1_000_000))


def rng_for_run(base_seed: int, cell_index: int, run_index: int) -> np.random.Generator:
    """The run-level generator: PCG64 split by (base seed, cell, run index)."""
    seq = np.random.SeedSequence([int(base_seed), int(cell_index), int(run_index)])
    return np.random.Generator(np.random.PCG64(seq))


def resolve_starts(scenario: Scenario, rng: np.random.Generator) -> Scenario:
    """Replace random start-time modes with concrete start times."""
    flows = [replace(f) for f in scenario.flows]
    if len(flows) > 1:
        if scenario.delta_t_mode == "uniform":
            flows[1].start_s = float(rng.uniform(0.0, UNIFORM_START_MAX_S))
        elif scenario.start_jitter_s > 0:
            flows[1].start_s += float(rng.uniform(0.0, scenario.start_jitter_s))
    return replace(scenario, flows=flows, delta_t_mode="fixed", start_jitter_s=0.0)


# ---------------------------------------------------------------------------
# trace capture


class TraceSet:
    """Columnar per-run trace: fixed-cadence samples plus event rows.

    Sampled series (aligned lists, one entry per tick): link queue occupancy
    and cumulative counters, and per flow the window, the delay estimates,
    and cumulative delivered bytes. Event rows: drops (exact times) and window
    halvings. Safety timeouts are in RunResult.flow_stats.
    """

    def __init__(self, flow_ids, capacity_bps, duration_us):
        self.flow_ids = list(flow_ids)
        self.capacity_bps = capacity_bps
        self.duration_us = duration_us

        self.sample_t_us: list[int] = []
        self.queue_pkts: list[int] = []
        self.link_delivered_bytes: list[int] = []
        self.link_offered: list[int] = []
        self.link_dropped: list[int] = []
        self.cwnd_pkts = {fid: [] for fid in self.flow_ids}
        self.base_delay_us = {fid: [] for fid in self.flow_ids}
        self.queuing_est_us = {fid: [] for fid in self.flow_ids}
        self.delivered_bytes = {fid: [] for fid in self.flow_ids}

        self.drops: list[tuple[int, int, int]] = []  # (t_us, flow_id, seq)
        self.halvings = {fid: [] for fid in self.flow_ids}  # (t_us, cwnd_after, rtt_gate)
        self.conservation_ok = True

    def _sample_index_at(self, t_us: int) -> int:
        i = bisect.bisect_right(self.sample_t_us, t_us) - 1
        if i < 0:
            raise ValueError(f"t={t_us} precedes the first sample")
        return i

    def _between(self, series, t0_us, t1_us) -> int:
        return series[self._sample_index_at(t1_us)] - series[self._sample_index_at(t0_us)]

    def delivered_bytes_between(self, t0_us: int, t1_us: int, flow_id: int | None = None) -> int:
        series = self.link_delivered_bytes if flow_id is None else self.delivered_bytes[flow_id]
        return self._between(series, t0_us, t1_us)

    def offered_between(self, t0_us: int, t1_us: int) -> int:
        return self._between(self.link_offered, t0_us, t1_us)

    def dropped_between(self, t0_us: int, t1_us: int) -> int:
        return self._between(self.link_dropped, t0_us, t1_us)


@dataclass
class FlowStats:
    flow_id: int
    kind: str
    final_cwnd: float
    rtt_est_us: int | None
    base_delay_us: int | None
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
    def __init__(self, scenario: Scenario, sample_us: int):
        self.scenario = scenario
        self.sample_us = sample_us
        self.duration_us = scenario.duration_us
        self.engine = Engine()

        svc = service_time_us(scenario.packet_bytes, scenario.capacity_bps)
        self.link = Bottleneck(
            self.engine,
            scenario.capacity_bps,
            scenario.rtt_base_us // 2 - svc,
            scenario.buffer_pkts,
            on_drop=self._on_drop,
        )
        self.ack_path = AckPath(self.engine, scenario.rtt_base_us // 2)

        self.senders = []
        self.receivers = []
        for fid, spec in enumerate(scenario.flows):
            sender_cls = LedbatFlow if spec.kind == "ledbat" else TcpFlow
            self.senders.append(
                sender_cls(self.engine, fid, self.link, scenario.packet_bytes, spec))
            self.receivers.append(Receiver(fid, spec.clock_offset_us))

        self.trace = TraceSet(range(len(self.senders)), scenario.capacity_bps, self.duration_us)

        eng = self.engine
        eng.register(EventKind.PACKET_ARRIVAL, self._on_arrival)
        eng.register(EventKind.PACING_TIMER, self._on_pacing_timer)
        eng.register(EventKind.FLOW_START, self._on_flow_start)
        eng.register(EventKind.STATS_SAMPLE, self._on_sample)
        eng.register(EventKind.SIM_END, lambda _payload: None)

    def _on_drop(self, now: int, pkt) -> None:
        self.trace.drops.append((now, pkt.flow_id, pkt.seq))

    def _on_arrival(self, pkt) -> None:
        now = self.engine.now
        if pkt.is_ack:
            self.senders[pkt.flow_id].on_ack(pkt, now)
        else:
            ack = self.receivers[pkt.flow_id].on_data(pkt, now)
            self.ack_path.send(ack)

    def _on_pacing_timer(self, fid) -> None:
        self.senders[fid].on_pacing_timer(self.engine.now)

    def _on_flow_start(self, fid) -> None:
        self.senders[fid].start(self.engine.now)

    def _on_sample(self, _payload) -> None:
        now = self.engine.now
        tr = self.trace
        link = self.link
        tr.sample_t_us.append(now)
        tr.queue_pkts.append(link.queue_pkts())
        tr.link_delivered_bytes.append(link.bytes_delivered)
        tr.link_offered.append(link.offered)
        tr.link_dropped.append(link.dropped)
        for s in self.senders:
            fid = s.flow_id
            tr.cwnd_pkts[fid].append(s.cwnd)
            tr.delivered_bytes[fid].append(link.bytes_by_flow.get(fid, 0))
            if s.kind == "ledbat":
                tr.base_delay_us[fid].append(s.base_delay_us)
                tr.queuing_est_us[fid].append(s.queuing_delay_est_us())
            else:
                tr.base_delay_us[fid].append(None)
                tr.queuing_est_us[fid].append(None)
        if not link.conservation_ok():
            tr.conservation_ok = False
            raise RuntimeError(f"packet conservation violated at t={now}")
        for s in self.senders:
            s.check_timeout(now)
        nxt = now + self.sample_us
        if nxt <= self.duration_us:
            self.engine.schedule(nxt, EventKind.STATS_SAMPLE)

    def run(self) -> None:
        self.engine.schedule(0, EventKind.STATS_SAMPLE)
        for fid, spec in enumerate(self.scenario.flows):
            self.engine.schedule(int(round(spec.start_s * 1_000_000)), EventKind.FLOW_START, fid)
        self.engine.schedule(self.duration_us, EventKind.SIM_END)
        self.engine.run(self.duration_us)
        for s in self.senders:
            self.trace.halvings[s.flow_id] = list(s.halvings)


def run_scenario(scenario: Scenario, sample_us: int = DEFAULT_SAMPLE_US) -> RunResult:
    """Resolve start-time randomness from the scenario seed, run, and measure.

    The measurement interval is [second flow's resolved start, duration]
    ([0, duration] for a single flow). Deterministic: same scenario and seed
    give bit-identical traces and metrics.
    """
    scenario.validate()
    resolved = resolve_starts(scenario, rng_for_run(scenario.seed, 0, 0))
    sim = _Simulation(resolved, sample_us)
    sim.run()
    t0 = resolved.flows[1].start_s if len(resolved.flows) > 1 else 0.0
    interval = (int(round(t0 * 1_000_000)), resolved.duration_us)
    metrics = compute_report(sim.trace, resolved.capacity_bps, interval)
    stats = [
        FlowStats(
            flow_id=s.flow_id,
            kind=s.kind,
            final_cwnd=s.cwnd,
            rtt_est_us=s.rtt_est_us,
            base_delay_us=getattr(s, "base_delay_us", None),
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


def detect_starvation(trace: TraceSet, window_s: float = 10.0, threshold: float = 0.05):
    """Windows where one flow runs under threshold*fair_share while another
    holds more than half the fair share; consecutive windows merge into
    episodes. Needs a multi-flow trace."""
    if len(trace.flow_ids) < 2:
        raise UsageError("starvation detection needs at least two flows")
    fair_bps = trace.capacity_bps / len(trace.flow_ids)
    window_us = int(round(window_s * 1_000_000))
    end_us = trace.sample_t_us[-1]
    episodes: list[StarvationEpisode] = []
    open_eps: dict[int, StarvationEpisode] = {}
    t = 0
    while t + window_us <= end_us:
        rates = {
            fid: 8 * trace.delivered_bytes_between(t, t + window_us, fid) / (window_us / 1e6)
            for fid in trace.flow_ids
        }
        i1 = trace._sample_index_at(t + window_us)
        for fid in trace.flow_ids:
            if trace.delivered_bytes[fid][i1] == 0:
                continue  # flow has not sent anything yet: silence, not starvation
            starved = rates[fid] < threshold * fair_bps and any(
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
# presets


def _two_flow(name, cap_mbps, buffer_pkts, kind0, kind1, dt_s=0.0, slow_start=False,
              jitter_s=0.0, dt_mode="fixed"):
    return Scenario(
        name=name,
        capacity_bps=int(round(cap_mbps * 1_000_000)),
        buffer_pkts=buffer_pkts,
        flows=[
            FlowSpec(kind=kind0, start_s=0.0, slow_start=slow_start),
            FlowSpec(kind=kind1, start_s=dt_s, slow_start=slow_start),
        ],
        delta_t_mode=dt_mode,
        start_jitter_s=jitter_s,
    )


def _build_presets() -> dict[str, Scenario]:
    p: dict[str, Scenario] = {}

    def add(scn: Scenario, *aliases: str):
        p[scn.name] = scn
        for a in aliases:
            p[a] = scn

    add(_two_flow("hs-b40-tcp-vs-ledbat", 10, 40, "tcp", "ledbat"), "fig2a")
    add(_two_flow("hs-b40-ledbat-vs-ledbat", 10, 40, "ledbat", "ledbat"), "fig2b")
    add(_two_flow("hs-b40-ledbat-pair-dt2", 10, 40, "ledbat", "ledbat", dt_s=2.0), "fig3-top")
    add(_two_flow("hs-b40-ledbat-pair-dt10", 10, 40, "ledbat", "ledbat", dt_s=10.0), "fig3-mid")
    add(_two_flow("hs-b100-ledbat-pair-dt10", 10, 100, "ledbat", "ledbat", dt_s=10.0), "fig3-bottom")
    add(Scenario(
        name="tcp-alone-hs-b40",
        capacity_bps=10_000_000,
        buffer_pkts=40,
        flows=[FlowSpec(kind="tcp", start_s=0.0)],
    ))
    add(_two_flow("adsl-b10-tcp-vs-ledbat", 2, 10, "tcp", "ledbat"))
    add(_two_flow("adsl-up-b10-tcp-vs-ledbat", 0.5, 10, "tcp", "ledbat"))
    for scn in table1_cells():
        add(scn)
    return p


def table1_cells() -> list[Scenario]:
    """The summary grid in canonical order; list position seeds each cell."""
    cells = []
    for mix, kinds in (("tl", ("tcp", "ledbat")), ("ll", ("ledbat", "ledbat"))):
        for cap_mbps, buf in ((2, 10), (10, 50)):
            for dt_label in ("2", "10", "u"):
                for ss in (False, True):
                    name = f"table1-{mix}-c{cap_mbps}-b{buf}-dt{dt_label}-{'ss' if ss else 'noss'}"
                    if dt_label == "u":
                        scn = _two_flow(name, cap_mbps, buf, *kinds, dt_s=0.0,
                                        slow_start=ss, dt_mode="uniform")
                    else:
                        scn = _two_flow(name, cap_mbps, buf, *kinds, dt_s=float(dt_label),
                                        slow_start=ss, jitter_s=0.1)
                    cells.append(scn)
    return cells


def get_preset(name: str) -> Scenario:
    presets = _build_presets()
    if name not in presets:
        raise UsageError(f"unknown preset {name!r}; known: {', '.join(sorted(presets))}")
    scn = presets[name]
    return replace(scn, flows=[replace(f) for f in scn.flows])


def preset_names() -> list[str]:
    return sorted(_build_presets())


# ---------------------------------------------------------------------------
# scenario files

_HEADER = "ledbatsim-scenario v1"

_BOOL = {"on": True, "off": False, "true": True, "false": False}


def _read_float(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _read_bool(value: str) -> bool:
    if value.lower() not in _BOOL:
        raise ValueError(f"expected on/off, got {value!r}")
    return _BOOL[value.lower()]


def _read_gain(value: str) -> tuple[int, int]:
    parts = value.split("/")
    if len(parts) != 2:
        raise ValueError(f"expected num/den, got {value!r}")
    return int(parts[0]), int(parts[1])


def _scaled(scale: int):
    """Read and write a file number whose unit is `scale` of the model's
    integer unit (Mbps for bps, ms for us)."""
    return lambda v: int(round(_read_float(v) * scale)), lambda n: repr(n / scale)


# conversions in and out; repr writes the shortest text that reads back the
# same float
_STR = (str, str)
_INT = (int, str)
_FLOAT = (_read_float, repr)
_ONOFF = (_read_bool, lambda b: "on" if b else "off")

# (file key, attribute, read, write). An absent key takes the dataclass
# default, and format_scenario leaves out every value equal to it.
_SCENARIO_KEYS = [
    ("name", "name", *_STR),
    ("capacity_mbps", "capacity_bps", *_scaled(1_000_000)),
    ("buffer_pkts", "buffer_pkts", *_INT),
    ("rtt_base_ms", "rtt_base_us", *_scaled(1000)),
    ("packet_bytes", "packet_bytes", *_INT),
    ("duration_s", "duration_s", *_FLOAT),
    ("seed", "seed", *_INT),
    ("delta_t_mode", "delta_t_mode", *_STR),
    ("start_jitter_s", "start_jitter_s", *_FLOAT),
]
_FLOW_KEYS = [
    ("kind", "kind", *_STR),
    ("start_s", "start_s", *_FLOAT),
    ("slow_start", "slow_start", *_ONOFF),
    ("pacing", "pacing", *_ONOFF),
    ("target_ms", "target_ms", *_FLOAT),
    ("gain", "gain", _read_gain, lambda g: f"{g[0]}/{g[1]}"),
    ("base_histo_min", "base_histo_min", *_INT),
    ("clock_offset_us", "clock_offset_us", *_INT),
    ("pin_zero_queuing_delay", "pin_zero_queuing_delay", *_ONOFF),
]


def _read_block(cls, keys, block: dict[str, tuple[str, str]], where: str) -> dict:
    """Constructor arguments for `cls` from one section's key -> (value, line)."""
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    kwargs = {}
    for key, attr, read, _ in keys:
        if key in block:
            value, at = block.pop(key)
            try:
                kwargs[attr] = read(value)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{at}: bad value for {key!r}: {exc}") from exc
        elif attr in required:
            raise ParseError(f"{where}: missing required key {key!r}")
    if block:
        key = sorted(block)[0]
        raise ParseError(f"{block[key][1]}: unknown key {key!r}")
    return kwargs


def parse_scenario_text(text: str, origin: str = "<string>") -> Scenario:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise ParseError(f"{origin}:1: first line must be {_HEADER!r}")

    top: dict[str, tuple[str, str]] = {}
    flow_blocks: list[dict[str, tuple[str, str]]] = []
    current = top
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[flow]":
            current = {}
            flow_blocks.append(current)
            continue
        where = f"{origin}:{ln}"
        if "=" not in line:
            raise ParseError(f"{where}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise ParseError(f"{where}: duplicate key {key!r}")
        current[key] = (value.strip(), where)

    top_kwargs = _read_block(Scenario, _SCENARIO_KEYS, top, origin)
    if not flow_blocks:
        raise ParseError(f"{origin}: no [flow] sections")
    flows = [
        FlowSpec(**_read_block(FlowSpec, _FLOW_KEYS, block, f"{origin} [flow] #{i}"))
        for i, block in enumerate(flow_blocks)
    ]
    return Scenario(flows=flows, **top_kwargs)


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a preset name, or parse a scenario file."""
    presets = _build_presets()
    if name_or_path in presets:
        return get_preset(name_or_path)
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"no preset or readable scenario file {name_or_path!r}: {exc}") from exc
    return parse_scenario_text(text, origin=name_or_path)


def format_scenario(s: Scenario) -> str:
    """Inverse of parse_scenario_text, for diff-friendly scenario files:
    parse_scenario_text(format_scenario(s)) == s, as long as no text value
    holds a '#', a line break, or leading or trailing blanks."""
    out = [_HEADER]

    def write_block(obj, keys):
        defaults = {f.name: f.default for f in fields(obj)}
        for key, attr, _, write in keys:
            value = getattr(obj, attr)
            if value != defaults[attr]:
                out.append(f"{key} = {write(value)}")

    write_block(s, _SCENARIO_KEYS)
    for f in s.flows:
        out.append("[flow]")
        write_block(f, _FLOW_KEYS)
    return "\n".join(out) + "\n"


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
    max_ratio = max(
        (fs.max_update_ratio for fs in result.flow_stats if fs.kind == "ledbat"),
        default=0.0,
    )
    min_cwnd = min(min(series) for series in result.trace.cwnd_pkts.values())
    gaps_ok = True
    for halvings in result.trace.halvings.values():
        for (t_prev, _, _), (t_cur, _, gate) in zip(halvings, halvings[1:]):
            if t_cur - t_prev < gate:
                gaps_ok = False
    return RunCheckFacts(
        max_update_ratio=max_ratio,
        min_sampled_cwnd=min_cwnd,
        halving_gaps_ok=gaps_ok,
        conservation_ok=result.trace.conservation_ok,
    )


def _batch_worker(args) -> tuple[MetricsReport, RunCheckFacts]:
    scenario, sample_us = args
    result = run_scenario(scenario, sample_us)
    return result.metrics, extract_check_facts(result)


def resolve_cell_run(scenario: Scenario, base_seed: int, cell_index: int, run_index: int) -> Scenario:
    """Concrete per-run scenario for one grid cell run."""
    return resolve_starts(scenario, rng_for_run(base_seed, cell_index, run_index))


def run_table1(runs_per_cell: int, base_seed: int, jobs: int = 1, cells=None,
               progress=None) -> tuple[list[CellSummary], list[RunCheckFacts]]:
    """Run the summary grid: both flow mixes on both links, three start
    offsets, slow start off and on. `cells` filters by substring of the cell
    name without disturbing per-cell seeding."""
    if runs_per_cell < 1:
        raise UsageError("runs_per_cell must be at least 1")
    grid = table1_cells()
    work = []
    selected = []
    for ci, scn in enumerate(grid):
        if cells and not any(sub in scn.name for sub in cells):
            continue
        selected.append((ci, scn))
        for ri in range(runs_per_cell):
            work.append((ci, ri, resolve_cell_run(scn, base_seed, ci, ri)))
    if not selected:
        raise UsageError("cell filter selected nothing")

    outputs = _run_batch([(scn, DEFAULT_SAMPLE_US) for _, _, scn in work], jobs, progress)

    summaries = []
    all_facts = [facts for _, facts in outputs]
    by_cell: dict[int, list[MetricsReport]] = {}
    for (ci, _, _), (metrics, _) in zip(work, outputs):
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


def _run_batch(args_list, jobs: int, progress=None):
    """Ordered map over runs; fold order is by input index however many workers."""
    if jobs <= 1:
        out = []
        for i, args in enumerate(args_list):
            out.append(_batch_worker(args))
            if progress:
                progress(i + 1, len(args_list))
        return out
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        out = []
        for i, res in enumerate(pool.map(_batch_worker, args_list)):
            out.append(res)
            if progress:
                progress(i + 1, len(args_list))
    return out


# ---------------------------------------------------------------------------
# file output


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_trace_csv(trace: TraceSet, path: str) -> None:
    """Long-form rows: t_us,entity,series,value (entity is a flow id or 'link')."""
    rows: list[tuple[int, str]] = []
    for i, t in enumerate(trace.sample_t_us):
        rows.append((t, f"{t},link,queue_pkts,{trace.queue_pkts[i]}"))
        for fid in trace.flow_ids:
            rows.append((t, f"{t},{fid},cwnd_pkts,{_fmt(trace.cwnd_pkts[fid][i])}"))
            base = trace.base_delay_us[fid][i]
            if base is not None:
                rows.append((t, f"{t},{fid},base_delay_us,{base}"))
            qest = trace.queuing_est_us[fid][i]
            if qest is not None:
                rows.append((t, f"{t},{fid},queuing_est_us,{qest}"))
            rows.append((t, f"{t},{fid},delivery,{trace.delivered_bytes[fid][i]}"))
    for t, fid, seq in trace.drops:
        rows.append((t, f"{t},{fid},drop,{seq}"))
    for fid in trace.flow_ids:
        # halvings land as exact-time window samples so plots show the edge
        for t, cwnd_after, _ in trace.halvings[fid]:
            rows.append((t, f"{t},{fid},cwnd_pkts,{_fmt(cwnd_after)}"))
    rows.sort(key=lambda r: r[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,entity,series,value\n")
        fh.write("\n".join(r[1] for r in rows))
        fh.write("\n")


def write_summary_csv(result: RunResult, path: str) -> None:
    m = result.metrics
    cols = ["scenario", "capacity_bps", "buffer_pkts", "t0_us", "t1_us",
            "eta_percent", "fairness", "loss_rate"]
    vals = [result.scenario.name, result.scenario.capacity_bps, result.scenario.buffer_pkts,
            m.t0_us, m.t1_us, m.eta_percent, m.fairness, m.loss_rate]
    for fid, (spec, rate) in enumerate(zip(result.scenario.flows, m.flow_rates_bps)):
        cols += [f"flow{fid}_kind", f"flow{fid}_start_us", f"flow{fid}_rate_bps"]
        vals += [spec.kind, int(round(spec.start_s * 1_000_000)), rate]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write(",".join(_fmt(v) for v in vals) + "\n")


def write_table_csv(summaries: list[CellSummary], path: str) -> None:
    header = ("scenario,mix,capacity_mbps,buffer_pkts,delta_t,slow_start,runs,"
              "eta_mean,eta_std,fairness_mean,fairness_std,loss_mean,loss_std")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for c in summaries:
            fh.write(",".join([
                c.name, c.mix, _fmt(c.capacity_mbps), str(c.buffer_pkts), f'"{c.delta_t}"',
                "on" if c.slow_start else "off", str(c.runs),
                _fmt(c.eta[0]), _fmt(c.eta[1]),
                _fmt(c.fairness[0]), _fmt(c.fairness[1]),
                _fmt(c.loss[0]), _fmt(c.loss[1]),
            ]) + "\n")
