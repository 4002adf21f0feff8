"""Digest corpus: generated scenarios, with their output bytes and events pinned.

The golden runs cover the presets only. `generate_scenarios` draws valid
scenarios across `Scenario.validate`'s bounds from the stdlib generator:
1-4 flows of either kind, 0.1-200 Mbps with packet sizes whose service time
has a remainder, buffers of 1-1000 packets (the largest queues pass the
engine's split), slow start and pacing on and off, targets of 5-100 ms,
base-history depths of 2-10, clock offsets, drawn and fixed starts at 0, on
a tick and between ticks, and two flows starting at the same microsecond.

corpus.json holds each scenario as drawn, its trace and summary SHA-256 and
its events by kind. A refactor keeps them; a change that moves them on
purpose re-records them with `PYTHONPATH=src python3 tests/test_corpus.py`
and names the cause.

Each generated run must also hold the exact properties: conservation at
every tick, the window floor, the halving gate, the per-ack bound of the
default gain, and clock-offset invariance (acceptance 6b). With slow start
off, each must also degenerate to the loss-based law when its delay-based
flows pin their estimator to zero (acceptance 6c).
"""

import functools
import json
import random
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import pytest

from ledbatsim.engine import FRONT, Engine
from ledbatsim.harness import DEFAULT_SAMPLE_US, extract_check_facts, run_scenario
from ledbatsim.scenario import UNIFORM_START_MAX_S, Scenario, service_time_us
from ledbatsim.transport import FlowSpec
from test_golden import counted_run, digest_run, output_digests

CORPUS = Path(__file__).with_name("corpus.json")
SEED = 2009
N_SCENARIOS = 32
DECADES_BPS = [(100_000, 1_000_000), (1_000_000, 10_000_000), (10_000_000, 100_000_000),
               (100_000_000, 200_000_001)]
DECADES_PKTS = [(1, 10), (10, 100), (100, 1001)]
DEEP = range(1, N_SCENARIOS, 8)  # the indexes of the deep scenarios
MAX_PKTS = 20_000  # packets a scenario's link can serve in its run, which bounds its cost
HOUR_US = 3_600_000_000


def _start_us(rng, mode, duration_us, previous_us):
    if mode == "zero":
        return 0
    if mode == "same":
        return previous_us
    if mode == "tick":
        return DEFAULT_SAMPLE_US * rng.randrange(1, duration_us // (2 * DEFAULT_SAMPLE_US))
    us = rng.randrange(1, duration_us // 2)
    return us + 1 if us % DEFAULT_SAMPLE_US == 0 else us


def _flow(rng, start_us, slow_start):
    target_ms = rng.randrange(5_000, 100_001) / 1000
    gain = None
    if rng.random() < 0.2:
        gain = (rng.randint(1, 3), rng.randint(1, 4) * round(target_ms * 1000))
    return FlowSpec(
        kind=rng.choice(("ledbat", "tcp")),
        start_s=start_us / 1e6,
        slow_start=slow_start,
        pacing=rng.random() < 0.7,
        target_ms=target_ms,
        gain=gain,
        base_histo_min=rng.randint(2, 10),
        clock_offset_us=rng.choice([0, 0, rng.randrange(-3_600_000_000, 3_600_000_001),
                                    rng.choice([-2**62, 2**62])]),
    )


def generate_scenarios() -> list[Scenario]:
    """N_SCENARIOS valid scenarios drawn from `random.Random(SEED)`.

    The flow count, the start modes and which scenarios draw their second
    start cycle with the index, so that every draw covers them. Every eighth
    scenario is a slow one, at 0.1-0.2 Mbps, and every eighth a deep one: a
    fast link with a large buffer and a first flow in slow start, whose
    window passes FRONT packets within the run.
    """
    rng = random.Random(SEED)
    scenarios = []
    for i in range(N_SCENARIOS):
        n_flows = 1 + i % 4
        deep = i in DEEP
        # log-uniform in integers, so that no libm rounding enters a draw
        if deep:
            decade = (100_000_000, 200_000_000)
        elif i % 8 == 5:  # a slow one
            decade = (100_000, 200_000)
        else:
            decade = rng.choice(DECADES_BPS)
        capacity_bps = rng.randrange(*decade)
        while True:  # a service time with a remainder
            packet_bytes = rng.randrange(64, 1501)
            if packet_bytes * 8 * 1_000_000 % capacity_bps:
                break
        svc = service_time_us(packet_bytes, capacity_bps)
        rtt_base_us = 2 * svc + rng.randrange(100_000 if deep else 1_000, 200_000)
        buffer_pkts = rng.randrange(500, 1001) if deep else rng.randrange(*rng.choice(DECADES_PKTS))
        pkts_per_s = capacity_bps / (8 * packet_bytes)
        duration_ms = min(rng.randrange(500, 20_001), max(500, round(1000 * MAX_PKTS / pkts_per_s)))
        if deep:
            duration_ms = max(duration_ms, 3000)
        duration_us = 1000 * duration_ms
        # flow 0 starts at 0 every other scenario; the later flows take the
        # start modes in turn, so that "same" repeats a start that is not 0
        modes = ["zero" if i % 2 == 0 else "between"] + [
            ("tick", "same", "between", "zero")[(i // 4 + j) % 4] for j in range(n_flows - 1)]
        starts = []
        for mode in modes:
            starts.append(_start_us(rng, mode, duration_us, starts[-1] if starts else 0))
        flows = [_flow(rng, us, (deep and j == 0) or rng.random() < 0.5)
                 for j, us in enumerate(starts)]
        scn = Scenario(name=f"gen-{i:02d}", capacity_bps=capacity_bps, buffer_pkts=buffer_pkts,
                       flows=flows, rtt_base_us=rtt_base_us, packet_bytes=packet_bytes,
                       duration_s=duration_ms / 1000)
        if n_flows > 1 and i % 3 == 0:  # the second start is drawn
            scn.seed = rng.randrange(2**64)
            if duration_ms > 1000 * UNIFORM_START_MAX_S:
                scn.delta_t_mode = "uniform"
            else:
                latest_s = (duration_ms / 1000 - flows[1].start_s) / 2
                scn.start_jitter_s = round(rng.uniform(0.0, latest_s), 6)
        scn.validate()
        scenarios.append(scn)
    return scenarios


def _describe(scenario) -> dict:
    d = asdict(scenario)
    for f in d["flows"]:
        f["gain"] = list(f["gain"]) if f["gain"] else None  # as JSON reads it back
    return d


def record():
    corpus = {}
    for scn in generate_scenarios():
        (trace, summary), events = digest_run(scn)
        corpus[scn.name] = dict(scenario=_describe(scn), trace=trace, summary=summary,
                                events=events)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


RECORDED = json.loads(CORPUS.read_text())
GENERATED = {scn.name: scn for scn in generate_scenarios()}


def test_the_generator_draws_the_recorded_scenarios():
    assert {name: _describe(scn) for name, scn in GENERATED.items()} == {
        name: entry["scenario"] for name, entry in RECORDED.items()}


def test_the_corpus_covers_the_bounds():
    scns = list(GENERATED.values())
    flows = [f for s in scns for f in s.flows]
    assert {len(s.flows) for s in scns} == {1, 2, 3, 4}
    assert {f.kind for f in flows} == {"ledbat", "tcp"}
    caps = [s.capacity_bps for s in scns]
    assert min(caps) < 200_000 and max(caps) > 100_000_000
    bufs = [s.buffer_pkts for s in scns]
    assert min(bufs) <= 2 and max(bufs) >= 500
    assert {f.slow_start for f in flows} == {f.pacing for f in flows} == {False, True}
    assert {f.gain is None for f in flows} == {False, True}
    assert {f.clock_offset_us != 0 for f in flows} == {False, True}
    assert {s.delta_t_mode for s in scns} == {"fixed", "uniform"}
    assert any(s.start_jitter_s for s in scns)
    starts = [f.start_us for f in flows]
    assert any(us and us % DEFAULT_SAMPLE_US == 0 for us in starts)
    assert any(us % DEFAULT_SAMPLE_US for us in starts)
    assert any(a.start_us == b.start_us > 0
               for s in scns for a, b in zip(s.flows, s.flows[1:]))


@functools.cache
def _run(name):
    """Run a generated scenario once: (its result, events by kind)."""
    return counted_run(GENERATED[name])


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_generated_scenario_output_and_events_match_the_corpus(name):
    entry = RECORDED[name]
    result, events = _run(name)
    assert (output_digests(result), events) == (
        (entry["trace"], entry["summary"]), entry["events"])


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_generated_scenario_holds_the_window_floor_halving_gate_and_per_ack_bound(name):
    # the run completed, so the link conserved packets at every tick
    result, _ = _run(name)
    facts = extract_check_facts(result)
    assert facts.min_sampled_cwnd >= 1.0
    assert facts.halving_gaps_ok
    for spec, stats in zip(result.scenario.flows, result.flow_stats):
        if spec.kind == "ledbat" and spec.gain is None:
            assert stats.max_update_ratio <= 1.0


def assert_clock_offset_invariant(scn, a):
    """Rerun `scn`, whose run left trace `a`, with each flow's offset moved by
    an hour, toward zero at the largest valid ones: only the base delays move,
    and by exactly that hour."""
    moves = [-HOUR_US if f.clock_offset_us == 2**62 else HOUR_US for f in scn.flows]
    moved = replace(scn, flows=[replace(f, clock_offset_us=f.clock_offset_us + move)
                                for f, move in zip(scn.flows, moves)])
    b = run_scenario(moved).trace
    assert b.cwnd_pkts == a.cwnd_pkts and b.queue_pkts == a.queue_pkts
    assert b.drops == a.drops and b.halvings == a.halvings
    assert b.queuing_est_us == a.queuing_est_us
    for fid, base in a.base_delay_us.items():
        assert b.first_tick(b.base_delay_us[fid]) == a.first_tick(base)
        assert list(b.base_delay_us[fid]) == [d + moves[fid] for d in base]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_generated_scenario_is_clock_offset_invariant(name):
    assert_clock_offset_invariant(GENERATED[name], _run(name)[0].trace)


def _pinned_and_loss_based(scn):
    """Two copies of `scn` with every flow's slow start off: in one, each
    delay-based flow pins its estimator to zero, unpaced at the default gain;
    in the other, every flow is loss-based."""
    flows = [replace(f, slow_start=False) for f in scn.flows]
    pinned = [replace(f, pin_zero_queuing_delay=True, pacing=False, gain=None)
              if f.kind == "ledbat" else f for f in flows]
    return replace(scn, flows=pinned), replace(scn, flows=[replace(f, kind="tcp") for f in flows])


@functools.cache
def _degenerate_runs(name):
    """The traces of both copies of a generated scenario."""
    return tuple(run_scenario(scn).trace for scn in _pinned_and_loss_based(GENERATED[name]))


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_generated_scenario_with_the_estimator_pinned_follows_the_loss_based_law(name):
    # acceptance 6c on a generated scenario: the same windows, queue,
    # halvings and drops, exactly
    a, b = _degenerate_runs(name)
    assert a.cwnd_pkts == b.cwnd_pkts and a.queue_pkts == b.queue_pkts
    assert a.halvings == b.halvings and a.drops == b.drops


def test_the_pinned_estimator_relation_sees_a_delay_based_flow_halve():
    # so that the relation above cannot hold for want of a halving
    assert any(_degenerate_runs(name)[0].halvings[fid]
               for name, scn in GENERATED.items()
               for fid, f in enumerate(scn.flows) if f.kind == "ledbat")


@pytest.mark.parametrize("name", [f"gen-{i:02d}" for i in DEEP])
def test_a_deep_scenario_reaches_the_engine_split(name):
    refront, splits = Engine._refront, []

    def counted(engine):
        splits.append(len(engine._times) > 2 * FRONT)
        refront(engine)

    with mock.patch.object(Engine, "_refront", counted):
        digest_run(GENERATED[name])
    assert any(splits)


if __name__ == "__main__":
    record()
