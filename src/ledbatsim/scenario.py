"""Scenario description: what a run is, before anything runs.

The `Scenario` model with its bounds, the seeded resolution of random start
times, the packaged presets and the scenario file format. Running a scenario
and recording it live in harness.py.

A scenario is deterministic given its seed: the only randomness is the second
flow's start time (a uniform start offset and/or a small start jitter), drawn
from a named, splittable generator: PCG64 seeded by [base_seed, cell_index,
run_index]. Only a scenario that draws builds one. `Pcg64` is a pure-Python
port of numpy's SeedSequence -> PCG64 -> Generator.uniform chain that returns
the same doubles bit for bit, so a grid run draws numpy's start times without
loading numpy.
"""

import math
import operator
from dataclasses import MISSING, dataclass, field, fields, replace

from .transport import FlowSpec

UNIFORM_START_MAX_S = 10.0  # delta_t_mode "uniform" draws the second start from U(0, this)
DEFAULT_SAMPLE_US = 10_000  # a run ticks every 10 ms unless given another period


class UsageError(Exception):
    """Caller misuse: bad invocation, malformed input, impossible request."""


class ParseError(UsageError):
    """Scenario file rejected; message carries file/line context."""


class ValidationError(UsageError):
    """Scenario contents out of range."""


# ---------------------------------------------------------------------------
# scenario model


def _check_numbers(obj, where: str) -> None:
    # nan passes every range comparison below, and inf breaks the integer
    # clock; a float in an int field breaks the run or is truncated by it
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{where}{f.name} must be a finite number")
        if f.type is int and type(value) is not int:  # a bool is an int subclass
            raise ValidationError(f"{where}{f.name} must be an int, not {value!r}")


def service_time_us(packet_bytes: int, rate_bps: int) -> int:
    """The link's time to serve one packet, exact in integers: 1500 B take
    1200 us at 10 Mbps, 24000 us at 500 kbps."""
    return packet_bytes * 8 * 1_000_000 // rate_bps


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

    def validate(self, sample_us: int = DEFAULT_SAMPLE_US) -> None:
        """Raise ValidationError unless a run sampled every `sample_us` can be made."""
        # the name is an output file stem, a scenario-file value and an
        # unquoted CSV field
        if not self.name or self.name != self.name.strip():
            raise ValidationError("name must be non-empty, without leading or trailing blanks")
        if not self.name.isprintable() or any(c in self.name for c in '/\\#,"'):
            raise ValidationError(
                f"name {self.name!r} must be printable, without '/', '\\', '#', ',' or '\"'")
        _check_numbers(self, "")
        for i, f in enumerate(self.flows):
            _check_numbers(f, f"flow {i}: ")
        if self.capacity_bps <= 0:
            raise ValidationError("capacity_bps must be positive")
        if self.buffer_pkts < 1:
            raise ValidationError("buffer_pkts must be at least 1")
        if self.packet_bytes <= 0:
            raise ValidationError("packet_bytes must be positive")
        # the run reads every time in whole microseconds, so the bounds do too
        duration_us = self.duration_us
        if duration_us < 1:
            raise ValidationError("duration_s must be at least 0.000001 (1 us)")
        if not self.flows:
            raise ValidationError("scenario needs at least one flow")
        if self.delta_t_mode not in ("fixed", "uniform"):
            raise ValidationError(f"unknown delta_t_mode {self.delta_t_mode!r}")
        if self.start_jitter_s < 0:
            raise ValidationError("start_jitter_s must be non-negative")
        check_seed(self.seed)
        svc = service_time_us(self.packet_bytes, self.capacity_bps)
        if self.rtt_base_us // 2 < svc:
            raise ValidationError(
                "rtt_base_us too small: one-way path cannot absorb the service time"
            )
        for i, f in enumerate(self.flows):
            if f.kind not in ("ledbat", "tcp"):
                raise ValidationError(f"flow {i}: unknown kind {f.kind!r}")
            if not 0 <= f.start_us < duration_us:
                raise ValidationError(f"flow {i}: start_s outside [0, duration) in whole us")
            if f.target_us < 1:
                raise ValidationError(f"flow {i}: target_ms must be at least 0.001 (1 us)")
            if not 2 <= f.base_histo_min <= 10:
                raise ValidationError(f"flow {i}: base_histo_min must be within [2, 10]")
            if not -2**62 <= f.clock_offset_us <= 2**62:  # base delays are stored as int64
                raise ValidationError(f"flow {i}: clock_offset_us must be within +-2**62")
            if f.gain is not None and not (
                isinstance(f.gain, tuple) and len(f.gain) == 2
                and all(isinstance(g, int) and g > 0 for g in f.gain)
            ):
                raise ValidationError(f"flow {i}: gain must be a pair of positive ints")
        # the run holds at least its first and last tick, and the last comes
        # after the latest start the seed can draw for the second flow, so
        # that the measurement interval's ends read two ticks
        if type(sample_us) is not int or not 0 < sample_us <= duration_us:
            raise ValidationError(f"sampling period must be an int of us within "
                                  f"(0, {duration_us}], not {sample_us!r}")
        if len(self.flows) > 1:
            latest_s = (UNIFORM_START_MAX_S if self.delta_t_mode == "uniform"
                        else self.flows[1].start_s + self.start_jitter_s)
            latest_us = int(round(latest_s * 1_000_000))
            last_tick_us = duration_us // sample_us * sample_us
            if latest_us >= last_tick_us:
                raise ValidationError(f"second flow may start at {latest_us / 1e6:g} s, "
                                      f"not before the last tick at {last_tick_us / 1e6:g} s")

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1_000_000))


def check_seed(seed: int) -> None:
    """A scenario seed or a grid's base seed: the generator takes an int in [0, 2**64)."""
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be within [0, 2**64) and an int, not {seed!r}")


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 (pcg_setseq_128,
# XSL-RR output) constants
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _words32(n: int) -> list[int]:
    """An entropy int as little-endian 32-bit words; 0 is one word."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"entropy must be a non-negative integer, not {n}")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: a hash whose constant advances on every call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


class Pcg64:
    """numpy's `Generator(PCG64(SeedSequence(entropy)))`, for `uniform` only."""

    def __init__(self, *entropy: int):
        words = [w for n in entropy for w in _words32(n)]
        h = _hasher(_INIT_A, _MULT_A)
        pool = [h(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], h(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], h(w))
        # generate_state(4, uint64): eight uint32 words read as four
        # little-endian uint64; the first two are the seed, the last two the
        # stream, each high word first
        g = _hasher(_INIT_B, _MULT_B)
        w32 = [g(pool[i % 4]) for i in range(8)]
        w64 = [w32[i] | w32[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (w64[2] << 64 | w64[3]) << 1 & _M128 | 1
        self._state = 0
        self._step()
        self._state = (self._state + (w64[0] << 64 | w64[1])) & _M128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        """The next uint64: XSL-RR of the stepped state."""
        self._step()
        s = self._state
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (-rot & 63)) & _M64

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high), as `Generator.uniform` draws it."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)


def rng_for_run(base_seed: int, cell_index: int, run_index: int) -> Pcg64:
    """The run-level generator: PCG64 split by (base seed, cell, run index)."""
    return Pcg64(base_seed, cell_index, run_index)


def resolve_starts(scenario: Scenario, base_seed: int, cell_index: int,
                   run_index: int) -> Scenario:
    """Replace random start-time modes with concrete start times, drawn from
    `rng_for_run(base_seed, cell_index, run_index)` if the scenario draws."""
    flows = [replace(f) for f in scenario.flows]
    uniform = scenario.delta_t_mode == "uniform"
    if len(flows) > 1 and (uniform or scenario.start_jitter_s > 0):
        rng = rng_for_run(base_seed, cell_index, run_index)
        if uniform:
            flows[1].start_s = rng.uniform(0.0, UNIFORM_START_MAX_S)
        else:
            flows[1].start_s += rng.uniform(0.0, scenario.start_jitter_s)
    return replace(scenario, flows=flows, delta_t_mode="fixed", start_jitter_s=0.0)


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


_PRESETS = _build_presets()  # name or alias -> scenario; never handed out uncopied


def get_preset(name: str) -> Scenario:
    if name not in _PRESETS:
        raise UsageError(f"unknown preset {name!r}; known: {', '.join(sorted(_PRESETS))}")
    scn = _PRESETS[name]
    return replace(scn, flows=[replace(f) for f in scn.flows])


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a preset name, or parse a scenario file."""
    if name_or_path in _PRESETS:
        return get_preset(name_or_path)
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"no preset or readable scenario file {name_or_path!r}: {exc}") from exc
    return parse_scenario_text(text, origin=name_or_path)


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
    """Read a file number whose unit is `scale` of the model's integer unit
    (Mbps for bps, ms for us)."""
    return lambda v: int(round(_read_float(v) * scale))


# (file key, attribute, read). An absent key takes the dataclass default.
_SCENARIO_KEYS = [
    ("name", "name", str),
    ("capacity_mbps", "capacity_bps", _scaled(1_000_000)),
    ("buffer_pkts", "buffer_pkts", int),
    ("rtt_base_ms", "rtt_base_us", _scaled(1000)),
    ("packet_bytes", "packet_bytes", int),
    ("duration_s", "duration_s", _read_float),
    ("seed", "seed", int),
    ("delta_t_mode", "delta_t_mode", str),
    ("start_jitter_s", "start_jitter_s", _read_float),
]
_FLOW_KEYS = [
    ("kind", "kind", str),
    ("start_s", "start_s", _read_float),
    ("slow_start", "slow_start", _read_bool),
    ("pacing", "pacing", _read_bool),
    ("target_ms", "target_ms", _read_float),
    ("gain", "gain", _read_gain),
    ("base_histo_min", "base_histo_min", int),
    ("clock_offset_us", "clock_offset_us", int),
    ("pin_zero_queuing_delay", "pin_zero_queuing_delay", _read_bool),
]


def _read_block(cls, keys, block: dict[str, tuple[str, str]], where: str) -> dict:
    """Constructor arguments for `cls` from one section's key -> (value, line)."""
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    kwargs = {}
    for key, attr, read in keys:
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
