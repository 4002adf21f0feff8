"""Scenario model and bounds, start resolution, presets, scenario files."""

import random
import statistics
from dataclasses import fields, replace
from decimal import Decimal

import pytest

from ledbatsim import scenario
from ledbatsim.harness import run_scenario
from ledbatsim.scenario import (
    ParseError,
    Scenario,
    UsageError,
    ValidationError,
    get_preset,
    parse_scenario_text,
    preset_names,
    resolve_starts,
    rng_for_run,
    table1_cells,
)
from ledbatsim.transport import FlowSpec


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


# -- validation ----------------------------------------------------------------


def test_validate_passes_sane_scenario():
    _tiny().validate()


@pytest.mark.parametrize("patch,fragment", [
    (dict(capacity_bps=0), "capacity"),
    (dict(buffer_pkts=0), "buffer"),
    (dict(flows=[]), "at least one flow"),
    (dict(duration_s=0.0), "duration"),
    # the run takes its times in whole microseconds, and so do the bounds:
    # a duration that rounds to 0 us, a start that rounds to the end
    (dict(duration_s=4e-7), r"duration_s must be at least 0.000001 \(1 us\)"),
    (dict(duration_s=1.0, flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=0.9999996)]),
     r"flow 1: start_s outside \[0, duration\) in whole us"),
    (dict(duration_s=1.0, flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=0.5)],
          start_jitter_s=0.4999996), "second flow may start at 1 s"),
    (dict(delta_t_mode="uniform", duration_s=10.0000004), "second flow may start at 10 s"),
    (dict(delta_t_mode="gaussian"), "delta_t_mode"),
    (dict(start_jitter_s=-1.0), "jitter"),
    (dict(seed=-1), r"seed must be within \[0, 2\*\*64\)"),
    (dict(seed=2**64), r"seed must be within \[0, 2\*\*64\)"),
    # the latest second-flow start the seed can draw must fall before the last tick
    (dict(delta_t_mode="uniform", duration_s=10.0), "second flow may start at 10 s"),
    (dict(flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=19.95)], start_jitter_s=0.1),
     "second flow may start at 20.05 s"),
    # nan passes every range check and inf every lower bound
    (dict(start_jitter_s=float("nan")), "start_jitter_s must be a finite number"),
    (dict(duration_s=float("inf")), "duration_s must be a finite number"),
    (dict(capacity_bps=float("nan")), "capacity_bps must be a finite number"),
    # the name is an output file stem and must read back from a scenario file
    (dict(name=""), "non-empty"),
    (dict(name="../escaped"), "without '/'"),
    (dict(name="sub\\x"), "without '/'"),
    (dict(name="run#1"), "without '/'"),
    (dict(name="two\nlines"), "printable"),
    (dict(name=" padded"), "leading or trailing blanks"),
    (dict(name="padded\t"), "leading or trailing blanks"),
    # the name is also an unquoted field of <name>-summary.csv
    (dict(name="a,b"), "without '/'"),
    (dict(name='"q'), "without '/'"),
    # an int field takes a plain int: a float breaks the run or is truncated
    (dict(capacity_bps=10e6), "capacity_bps must be an int, not 10000000.0"),
    (dict(rtt_base_us=50000.0), "rtt_base_us must be an int"),
    (dict(packet_bytes=1500.0), "packet_bytes must be an int"),
    (dict(buffer_pkts=40.5), "buffer_pkts must be an int"),
    (dict(buffer_pkts=True), "buffer_pkts must be an int, not True"),
    (dict(seed=1.5), "seed must be an int"),
])
def test_validate_rejects_bad_top_level(patch, fragment):
    with pytest.raises(ValidationError, match=fragment):
        _tiny(**patch).validate()


@pytest.mark.parametrize("flow,fragment", [
    (FlowSpec("quic"), "unknown kind"),
    (FlowSpec("tcp", start_s=25.0), "start_s"),  # beyond 20 s duration
    (FlowSpec("ledbat", target_ms=0.0), "target_ms"),
    (FlowSpec("ledbat", target_ms=0.0004), "target_ms"),  # rounds to 0 us
    (FlowSpec("ledbat", base_histo_min=1), "base_histo_min"),
    (FlowSpec("ledbat", gain=(0, 5)), "gain"),
    (FlowSpec("ledbat", gain=(1.5, 2)), "gain must be a pair of positive ints"),
    (FlowSpec("ledbat", gain=(1,)), "gain must be a pair of positive ints"),
    (FlowSpec("ledbat", gain="1/25000"), "gain must be a pair of positive ints"),
    (FlowSpec("ledbat", target_ms=-5.0), "target_ms"),
    (FlowSpec("ledbat", base_histo_min=11), "base_histo_min"),
    (FlowSpec("ledbat", target_ms=float("nan")), "flow 0: target_ms must be a finite number"),
    (FlowSpec("ledbat", target_ms=float("inf")), "flow 0: target_ms must be a finite number"),
    (FlowSpec("ledbat", clock_offset_us=2**62 + 1), "clock_offset_us"),
    (FlowSpec("ledbat", clock_offset_us=-2**62 - 1), "clock_offset_us"),
    (FlowSpec("ledbat", base_histo_min=2.0), "flow 0: base_histo_min must be an int"),
    (FlowSpec("ledbat", clock_offset_us=0.5), "flow 0: clock_offset_us must be an int"),
])
def test_validate_rejects_bad_flow(flow, fragment):
    with pytest.raises(ValidationError, match=fragment):
        _tiny(flows=[flow]).validate()


def test_validate_takes_the_sampling_period():
    # the second flow may start at 15 s: before the last 10 ms tick of the
    # 20 s run, but not before its last 7 s tick, at 14 s
    scn = _tiny(flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=14.0)], start_jitter_s=1.0)
    scn.validate()
    scn.validate(10_000)
    refusal = r"second flow may start at 15 s, not before the last tick at 14 s"
    with pytest.raises(ValidationError, match=refusal):
        scn.validate(7_000_000)
    with pytest.raises(ValidationError, match=refusal):
        run_scenario(scn, sample_us=7_000_000)  # the run asks the same one rule


def test_validate_rejects_rtt_below_service_time():
    # 1500 B at 10 Mbps needs 1200 us; a 2 ms RTT leaves only 1000 us one-way
    with pytest.raises(ValidationError, match="rtt_base_us"):
        _tiny(rtt_base_us=2000).validate()


# -- presets -------------------------------------------------------------------


def test_preset_inventory():
    names = preset_names()
    assert len(names) == 37
    for required in ("fig2a", "fig2b", "fig3-top", "fig3-mid", "fig3-bottom",
                     "tcp-alone-hs-b40", "adsl-b10-tcp-vs-ledbat"):
        assert required in names
    assert sum(1 for n in names if n.startswith("table1-")) == 24


def test_get_preset_returns_independent_copies():
    a = get_preset("fig2a")
    a.flows[0].start_s = 123.0
    assert get_preset("fig2a").flows[0].start_s != 123.0


def test_get_preset_unknown_name():
    with pytest.raises(UsageError, match="unknown preset"):
        get_preset("fig99")


def test_presets_validate():
    for name in preset_names():
        get_preset(name).validate()


def test_table_grid_order_is_frozen():
    cells = table1_cells()
    assert len(cells) == 24
    assert cells[0].name == "table1-tl-c2-b10-dt2-noss"
    assert cells[20].name == "table1-ll-c10-b50-dt10-noss"
    assert cells[23].name == "table1-ll-c10-b50-dtu-ss"
    for scn in cells:
        scn.validate()
        assert len(scn.flows) == 2


# -- start resolution ----------------------------------------------------------


# (base seed, cell, run, first three U(0, 10) draws), recorded from numpy 2.4.6's
# Generator(PCG64(SeedSequence([base, cell, run]))).uniform(0.0, 10.0) before
# the pure-Python port replaced it. Base seeds span the extremes; the last two
# rows have an index of 2**32 or more, so their entropy has more than one word
# per int.
NUMPY_DRAWS = [
    (0, 0, 0, [6.369616873214543, 2.697867137638703, 0.4097352393619469]),
    (0, 4, 2, [5.729940126661102, 9.151467268336155, 5.912416272379374]),
    (7, 4, 2, [7.724929607883628, 0.4298977735649856, 7.426789216901789]),
    (3, 23, 0, [2.9535893986808217, 9.54704178332159, 9.007415804156098]),
    (1, 0, 1, [6.922753364723952, 2.2334387706847014, 8.096203142218423]),
    (2**32 - 1, 1, 0, [8.923705960062671, 9.114926941701697, 8.96089367801421]),
    (2**32, 2, 3, [6.0148452142816025, 5.486316869276056, 8.307327466820285]),
    (2**63, 5, 9, [8.40224825503459, 2.2323600084360318, 5.096941997450691]),
    (2**64 - 1, 23, 19, [5.037268787962205, 5.364123234862001, 0.38021645623904754]),
    (2**64 - 1, 0, 0, [6.800266789616931, 8.453117585624742, 0.07403081599260064]),
    (12345, 2**32, 0, [9.798065138848989, 2.3274412229227694, 4.387062298973497]),
    (9, 7, 2**32 + 1, [8.63711861999507, 7.1309828633980255, 1.6624740256034032]),
]


@pytest.mark.parametrize("base, cell, run, draws", NUMPY_DRAWS)
def test_rng_reproduces_numpy_draws(base, cell, run, draws):
    rng = rng_for_run(base, cell, run)
    assert [rng.uniform(0.0, 10.0) for _ in draws] == draws


def test_rng_matches_numpy_live():
    np = pytest.importorskip("numpy")
    r = random.Random(16)
    for _ in range(300):
        key = [r.randrange(2**64), r.randrange(2**r.randrange(1, 40)), r.randrange(64)]
        low = r.uniform(-5.0, 5.0)
        high = low + r.uniform(0.0, 20.0)
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        rng = rng_for_run(*key)
        for _ in range(3):
            assert rng.uniform(low, high) == float(ref.uniform(low, high)), key


@pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -2**64)])
def test_rng_refuses_negative_entropy(key):
    with pytest.raises(ValueError, match="non-negative"):
        rng_for_run(*key)


def test_rng_draws_floats_within_bounds():
    rng = rng_for_run(2**64 - 1, 23, 19)
    for low, high in ((0.0, 10.0), (0.0, 0.1), (-3.0, 2.0), (5.0, 5.0)):
        for _ in range(200):
            x = rng.uniform(low, high)
            assert type(x) is float
            assert low <= x < high or x == low == high


def test_rng_split_is_stable_and_disjoint():
    a = rng_for_run(7, 3, 0).uniform(0, 10)
    b = rng_for_run(7, 3, 0).uniform(0, 10)
    c = rng_for_run(7, 3, 1).uniform(0, 10)
    assert a == b
    assert a != c


def test_uniform_mode_draws_second_start():
    scn = _tiny(duration_s=60.0, delta_t_mode="uniform")
    draws = [resolve_starts(scn, 0, 0, i).flows[1].start_s for i in range(10_000)]
    assert all(0.0 <= d < 10.0 for d in draws)
    assert abs(statistics.fmean(draws) - 5.0) < 0.15
    resolved = resolve_starts(scn, 0, 0, 0)
    assert resolved.delta_t_mode == "fixed"  # a resolved scenario re-runs as-is
    assert resolved.flows[0].start_s == 0.0


def test_fixed_mode_jitters_around_the_offset():
    scn = _tiny(duration_s=60.0,
                flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=10.0)],
                start_jitter_s=0.1)
    starts = [resolve_starts(scn, 0, 0, i).flows[1].start_s for i in range(200)]
    assert all(10.0 <= s < 10.1 for s in starts)
    assert len(set(starts)) > 100  # actually random


def test_cell_run_starts_are_deterministic():
    scn = table1_cells()[4]  # a dt=U(0,10) cell
    a = resolve_starts(scn, 7, 4, 2)
    b = resolve_starts(scn, 7, 4, 2)
    assert a.flows[1].start_s == b.flows[1].start_s
    # pinned: the exact start that rng_for_run(7, 4, 2) draws
    assert a.flows[1].start_s == 7.724929607883628


def test_only_a_scenario_that_draws_builds_a_generator(monkeypatch):
    built = []

    def recording(*key):
        built.append(key)
        return rng_for_run(*key)

    monkeypatch.setattr(scenario, "rng_for_run", recording)
    fixed = _tiny(flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=2.0)])
    assert resolve_starts(fixed, 0, 0, 0) == fixed
    assert resolve_starts(replace(fixed, flows=fixed.flows[:1], delta_t_mode="uniform"),
                          0, 0, 0).flows == fixed.flows[:1]
    assert built == []
    resolve_starts(replace(fixed, start_jitter_s=0.1), 0, 1, 2)
    resolve_starts(replace(fixed, delta_t_mode="uniform"), 3, 4, 5)
    assert built == [(0, 1, 2), (3, 4, 5)]


# -- scenario files --------------------------------------------------------------


# every key of both sections set to a value other than its default; the
# seven-digit numbers are ones that a six-digit reading would change
EVERY_KEY_TEXT = """\
ledbatsim-scenario v1
name = every-key
capacity_mbps = 1.234567
buffer_pkts = 33
rtt_base_ms = 1234.567
packet_bytes = 1000
duration_s = 120.5
seed = 7
delta_t_mode = uniform
start_jitter_s = 0.25

[flow]
kind = tcp
slow_start = on

[flow]
kind = ledbat
start_s = 12.345678
slow_start = true
pacing = off
target_ms = 1234.5678
gain = 1/50000
base_histo_min = 4
clock_offset_us = -250
pin_zero_queuing_delay = on
"""


def test_every_scenario_file_key_parses_to_its_field():
    scn = parse_scenario_text(EVERY_KEY_TEXT, origin="every.scn")
    assert scn == Scenario(
        name="every-key", capacity_bps=1_234_567, buffer_pkts=33, rtt_base_us=1_234_567,
        packet_bytes=1000, duration_s=120.5, seed=7, delta_t_mode="uniform",
        start_jitter_s=0.25,
        flows=[
            FlowSpec("tcp", slow_start=True),
            FlowSpec("ledbat", start_s=12.345678, slow_start=True, pacing=False,
                     target_ms=1234.5678, gain=(1, 50_000), base_histo_min=4,
                     clock_offset_us=-250, pin_zero_queuing_delay=True),
        ])
    scn.validate()
    # the text names every key, and each reads as other than its default
    set_keys = {line.partition("=")[0].strip() for line in EVERY_KEY_TEXT.splitlines()[1:]
                if "=" in line}
    assert set_keys == {key for key, _, _ in scenario._SCENARIO_KEYS + scenario._FLOW_KEYS}
    for obj, keys in ((scn, scenario._SCENARIO_KEYS), (scn.flows[1], scenario._FLOW_KEYS)):
        defaults = {f.name: f.default for f in fields(obj)}  # MISSING where required
        for key, attr, _ in keys:
            assert getattr(obj, attr) != defaults[attr], key


# file unit against model unit as a power of ten (Mbps for bps, ms for us)
_FILE_UNIT_SHIFT = {"capacity_mbps": -6, "rtt_base_ms": -3}


def _file_value(key, value):
    if key in _FILE_UNIT_SHIFT:
        return str(Decimal(value).scaleb(_FILE_UNIT_SHIFT[key]))  # exact decimal
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return "%d/%d" % value
    return repr(value) if isinstance(value, float) else str(value)


def _scenario_file_text(scn):
    """Scenario-file text that states every field of `scn` exactly."""
    lines = ["ledbatsim-scenario v1"]
    for obj, keys in [(scn, scenario._SCENARIO_KEYS)] + [(f, scenario._FLOW_KEYS)
                                                         for f in scn.flows]:
        if obj is not scn:
            lines.append("[flow]")
        lines += [f"{key} = {_file_value(key, getattr(obj, attr))}"
                  for key, attr, _ in keys if getattr(obj, attr) is not None]
    return "\n".join(lines) + "\n"


def test_scenario_text_round_trip():
    scn = _tiny(flows=[
        FlowSpec("tcp", slow_start=True),
        FlowSpec("ledbat", start_s=3.0, gain=(1, 50_000), base_histo_min=4,
                 clock_offset_us=250, pacing=False, pin_zero_queuing_delay=True),
    ], seed=7, delta_t_mode="uniform", start_jitter_s=0.25, packet_bytes=1000)
    assert parse_scenario_text(_scenario_file_text(scn), origin="round.scn") == scn


# a reading that kept 6 significant digits would change every one of these
SEVEN_DIGITS = _tiny(
    capacity_bps=1_234_567,
    rtt_base_us=1_234_567,
    flows=[FlowSpec("tcp"), FlowSpec("ledbat", start_s=12.345678, target_ms=1234.5678)],
)


@pytest.mark.parametrize("scn", [get_preset(n) for n in preset_names()] + [SEVEN_DIGITS],
                         ids=preset_names() + ["seven-digits"])
def test_scenario_file_round_trips_exactly(scn):
    # every preset, stated as a file, reads back as itself
    assert parse_scenario_text(_scenario_file_text(scn)) == scn


@pytest.mark.parametrize("text,fragment", [
    ("not-a-scenario\n", "first line"),
    ("ledbatsim-scenario v1\ncapacity_mbps 10\n", ":2: expected key = value"),
    ("ledbatsim-scenario v1\nseed = 1\nseed = 2\n", ":3: duplicate key"),
    ("ledbatsim-scenario v1\nbuffer_pkts = 40\n[flow]\nkind = tcp\n",
     "missing required key 'capacity_mbps'"),
    ("ledbatsim-scenario v1\ncapacity_mbps = 10\nbuffer_pkts = 40\n", "no \\[flow\\]"),
    ("ledbatsim-scenario v1\ncapacity_mbps = 10\nbuffer_pkts = 40\nwarp = 9\n"
     "[flow]\nkind = tcp\n", "unknown key 'warp'"),
    ("ledbatsim-scenario v1\ncapacity_mbps = 10\nbuffer_pkts = 40\n"
     "[flow]\nkind = tcp\nslow_start = maybe\n", "expected on/off"),
    ("ledbatsim-scenario v1\ncapacity_mbps = 10\nbuffer_pkts = 40\n"
     "[flow]\nkind = tcp\ngain = 1:2\n", "num/den"),
    ("ledbatsim-scenario v1\ncapacity_mbps = ten\nbuffer_pkts = 40\n"
     "[flow]\nkind = tcp\n", "bad value for 'capacity_mbps'"),
    # numbers must be finite: nan slipped past validation, inf crashed the run
    ("ledbatsim-scenario v1\ncapacity_mbps = 10\nbuffer_pkts = 40\nduration_s = inf\n"
     "[flow]\nkind = tcp\n", ":4: bad value for 'duration_s'"),
    ("ledbatsim-scenario v1\ncapacity_mbps = 10\nbuffer_pkts = 40\nstart_jitter_s = nan\n"
     "[flow]\nkind = tcp\n", ":4: bad value for 'start_jitter_s'"),
    ("ledbatsim-scenario v1\ncapacity_mbps = 10\nbuffer_pkts = 40\n"
     "[flow]\nkind = ledbat\ntarget_ms = nan\n", ":6: bad value for 'target_ms'"),
    ("ledbatsim-scenario v1\ncapacity_mbps = 1e305\nbuffer_pkts = 40\n"
     "[flow]\nkind = tcp\n", "bad value for 'capacity_mbps'"),
])
def test_parse_errors_carry_origin_and_line(text, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_scenario_text(text, origin="bad.scn")
    assert "bad.scn" in str(exc.value)


def test_comments_and_blank_lines_are_ignored():
    text = (
        "ledbatsim-scenario v1\n"
        "\n"
        "# capacity of the shared link\n"
        "capacity_mbps = 2  # ADSL-ish\n"
        "buffer_pkts = 10\n"
        "[flow]\n"
        "kind = ledbat\n"
    )
    scn = parse_scenario_text(text)
    assert scn.capacity_bps == 2_000_000
    assert scn.flows[0].kind == "ledbat"
