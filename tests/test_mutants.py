"""Mutants that the exact checks must catch.

Each row of MUTANTS is (name, patch, check). `patch` puts one fault into the
program through monkeypatch, on one method or constant. `check` runs an
existing checker, called as a plain function, on the few runs that catch
that fault. Every row must fail its check: a check that holds under its
mutant has lost the power it was shown to have (DeMillo, Lipton & Sayward,
"Hints on test data selection", 1978). A change that moves a seam a patch
names re-points its row and says so; one whose check survives is a fault
found, not a row to drop.

The checks call no cached run, so a mutant's runs never reach another test.
The file needs no numpy.
"""

from bisect import bisect_left
from dataclasses import replace

import pytest

import test_corpus
import test_engine
import test_harness
import test_metamorphic
import test_network
import test_scenario
from ledbatsim import acceptance, harness, ledbat, scenario
from ledbatsim.engine import FRONT, Engine
from ledbatsim.harness import TraceSet, _Simulation, extract_check_facts, run_scenario
from ledbatsim.ledbat import LedbatFlow
from ledbatsim.network import Bottleneck
from ledbatsim.scenario import Pcg64, get_preset
from ledbatsim.transport import SenderBase
from test_golden import CUT_S, GOLDEN, digest_run
from test_tcp import GATED


# -- patches: one fault each


def tick_after(mp):
    """The interval's ends read the tick after the one at or before them."""
    tick_at = TraceSet.tick_at
    mp.setattr(TraceSet, "tick_at",
               lambda self, t_us: min(tick_at(self, t_us) + 1, len(self.sample_t_us) - 1))


def ungated_halving(mp):
    """Every loss halves the window: the gate never sees an earlier halving."""
    halve = SenderBase._halve

    def ungated(self, now, new_cwnd):
        earlier = self.halvings[:]
        self.halvings.clear()
        halved = halve(self, now, new_cwnd)
        self.halvings[:0] = earlier  # in place: the trace holds this list
        return halved
    mp.setattr(SenderBase, "_halve", ungated)


def service_time_rounded_up(mp):
    mp.setattr(harness, "service_time_us",
               lambda packet_bytes, rate_bps: -(-packet_bytes * 8 * 1_000_000 // rate_bps))


def draws_without_the_shift(mp):
    """All 64 bits of a draw scaled by 2**-53, not its top 53."""
    mp.setattr(Pcg64, "uniform",
               lambda self, low, high: low + (high - low) * (self._next64() * 2.0**-53))


def seed_words_swapped(mp):
    """The generator's two 64-bit seed words added to its state in the other
    order. Its output folds the state's halves with a symmetric xor, so the
    seed is where a swap shows."""
    init = Pcg64.__init__
    inverse = pow(scenario._PCG_MULT, -1, 1 << 128)
    m128 = (1 << 128) - 1

    def swapped(self, *entropy):
        init(self, *entropy)
        # the seeding ended in state = (inc + seed) * mult + inc: undo it
        seed = ((self._state - self._inc) * inverse - self._inc) & m128
        self._state = (self._inc + (seed >> 64 | seed << 64 & m128)) & m128
        self._step()
    mp.setattr(Pcg64, "__init__", swapped)


def ledbat_floor_halved(mp):
    """The delay-based window floors at half a packet."""
    mp.setattr(ledbat, "MIN_CWND_PKTS", 0.5)


def _estimate_plus(extra):
    def patch(mp):
        on_delay_sample = LedbatFlow.on_delay_sample

        def skewed(self, ack, now):
            on_delay_sample(self, ack, now)
            self.queuing_delay_est_us += extra(ack.measured_delay_us)
        mp.setattr(LedbatFlow, "on_delay_sample", skewed)
    return patch


def pin_ignored(mp):
    """A delay-based flow estimates its queuing delay even when pinned to zero."""
    init = LedbatFlow.__init__

    def estimates(self, *args):
        init(self, *args)
        self.pin_zero_queuing_delay = False
    mp.setattr(LedbatFlow, "__init__", estimates)


def minimum_at_kept_ticks(mp):
    """The running window minimum folds only the ticks the trace keeps."""
    on_sample = _Simulation._on_sample

    def folds_kept(self, payload):
        low, kept = self.trace.min_cwnd_pkts, self.engine.now in self.trace.sample_t_us
        on_sample(self, payload)
        if not kept:
            self.trace.min_cwnd_pkts = low
    mp.setattr(_Simulation, "_on_sample", folds_kept)


def two_tick_start_one_tick_late(mp):
    """A trace given an interval keeps the tick after the one at or before its start."""
    init = TraceSet.__init__

    def late(self, flow_ids, capacity_bps, duration_us, sample_us, delay_flow_ids=(),
             interval=None):
        if interval is not None:
            interval = (interval[0] + sample_us, interval[1])
        init(self, flow_ids, capacity_bps, duration_us, sample_us, delay_flow_ids, interval)
    mp.setattr(TraceSet, "__init__", late)


def dropped_offer_counted_twice(mp):
    """The link counts a tail-dropped offer twice, which breaks its conservation identity."""
    enqueue = Bottleneck.enqueue

    def twice(self, pkt):
        accepted = enqueue(self, pkt)
        if not accepted:
            self.offered += 1
        return accepted
    mp.setattr(Bottleneck, "enqueue", twice)


def counts_1500_bytes(mp):
    """The tick counts every delivered packet as 1500 B, whatever its size."""
    init = _Simulation.__init__

    def fixed_size(self, scenario, *args):
        init(self, scenario, *args)
        self.scenario = replace(scenario, packet_bytes=1500)
    mp.setattr(_Simulation, "__init__", fixed_size)


def split_drops_ties(mp):
    """A refront's cut leaves the events tied with its bound in the later lists."""
    refront = Engine._refront

    def drops_ties(engine):
        refront(engine)
        times, events = engine._times, engine._events
        cut = bisect_left(times, engine._bound)
        engine._later_times[:0] = times[cut:]
        engine._later_events[:0] = events[cut:]
        del times[cut:]
        del events[cut:]
    mp.setattr(Engine, "_refront", drops_ties)


def in_service_packet_takes_a_slot(mp):
    """The drop-tail buffer counts the packet in service: an offer is refused
    once buffer_pkts packets are there, not buffer_pkts + 1. The link reads
    buffer_pkts only there, so a link built one slot short is that rule."""
    init = Bottleneck.__init__

    def one_slot_short(self, engine, service_us, prop_delay_us, buffer_pkts):
        init(self, engine, service_us, prop_delay_us, buffer_pkts - 1)
    mp.setattr(Bottleneck, "__init__", one_slot_short)


def uniform_start_reads_the_run_length(mp):
    """A uniform start is drawn from U(0, min(10 s, duration / 30)), so the
    run's length moves its second flow's start."""
    resolve = scenario.resolve_starts

    def capped(scn, *args):
        with mp.context() as m:
            m.setattr(scenario, "UNIFORM_START_MAX_S",
                      min(scenario.UNIFORM_START_MAX_S, scn.duration_s / 30))
            return resolve(scn, *args)
    mp.setattr(harness, "resolve_starts", capped)


def receivers_share_flow_0s_offset(mp):
    """Every receiver is built with flow 0's clock offset."""
    init = _Simulation.__init__

    def shared(self, *args):
        init(self, *args)
        for receiver in self.receivers:
            receiver.clock_offset_us = self.receivers[0].clock_offset_us
    mp.setattr(_Simulation, "__init__", shared)


# -- checks: existing checkers, on the runs that catch their mutant


def fig2a_summary_is_golden(mp):
    assert digest_run(replace(get_preset("fig2a"), duration_s=CUT_S))[0][1] == GOLDEN["fig2a"][1]


def gated_run_keeps_its_halving_gaps(mp):
    assert extract_check_facts(run_scenario(GATED)).halving_gaps_ok


def corpus_run_follows_lindley(mp):
    test_network.test_whole_run_follows_lindleys_recursion("gen-02", test_network.log_link(mp))


def draws_match_numpy(mp):
    test_scenario.test_rng_reproduces_numpy_draws(*test_scenario.NUMPY_DRAWS[0])


def corpus_run_keeps_the_window_floor(mp):
    scn = test_corpus.GENERATED["gen-05"]
    assert extract_check_facts(run_scenario(scn)).min_sampled_cwnd >= 1.0


def corpus_run_is_clock_offset_invariant(mp):
    scn = test_corpus.GENERATED["gen-05"]
    test_corpus.assert_clock_offset_invariant(scn, run_scenario(scn).trace)


def check_finds_the_offsets_cancel_out(mp):
    assert acceptance._criterion_6b()["6b"][1]


def check_finds_the_pinned_estimator_follows_the_loss_based_law(mp):
    assert acceptance._criterion_6c()["6c"][1]


def delay_based_pair_keeps_the_per_ack_bound(mp):
    scn = replace(get_preset("fig2b"), duration_s=2.0)  # both flows at the default gain
    assert extract_check_facts(run_scenario(scn)).max_update_ratio <= 1.0


def two_tick_run_sees_every_window(mp):
    test_harness.test_a_two_tick_trace_still_sees_the_window_at_every_tick(mp)


def two_tick_runs_measure_what_the_full_runs_do(mp):
    for run in ("table1-tl-c2-b10-dt2-noss", "table1-tl-c2-b10-dtu-ss", "gen-05"):
        try:
            test_metamorphic.test_a_run_keeping_two_ticks_measures_what_the_full_run_does(run)
        except ValueError as exc:  # the interval's start precedes the first kept tick
            raise AssertionError(exc) from exc


def short_fig2a_run_conserves_packets(mp):
    # the first drops come near 5.7 s
    try:
        run_scenario(replace(get_preset("fig2a"), duration_s=6.0))
    except RuntimeError as exc:  # the tick's check of the link's identity
        if "packet conservation violated" in str(exc):
            raise AssertionError(exc) from exc
        raise


def scaling_scales_only_the_bytes(mp):
    test_metamorphic.test_scaling_rate_and_packet_size_together_scales_only_the_bytes(
        "adsl-up-b10-tcp-vs-ledbat")


def uniform_start_cell_is_a_prefix(mp):
    test_metamorphic.test_a_short_run_is_the_prefix_of_a_longer_one("table1-tl-c2-b10-dtu-noss")


def corpus_pair_mirrors_when_reversed(mp):
    test_metamorphic.test_reversing_the_flow_list_mirrors_a_late_start_pair("gen-13")


def split_queue_dispatches_like_a_heap(mp):
    test_engine.test_queue_dispatches_like_a_reference_heap(0, 6 * FRONT, 10**9)


MUTANTS = [
    ("tick-after", tick_after, fig2a_summary_is_golden),
    ("halving-gate-removed", ungated_halving, gated_run_keeps_its_halving_gaps),
    ("service-time-rounded-up", service_time_rounded_up, corpus_run_follows_lindley),
    ("pcg64-without-shift", draws_without_the_shift, draws_match_numpy),
    ("pcg64-seed-words-swapped", seed_words_swapped, draws_match_numpy),
    ("ledbat-floor-halved", ledbat_floor_halved, corpus_run_keeps_the_window_floor),
    ("estimate-offset-dependent", _estimate_plus(lambda measured: measured % 7),
     corpus_run_is_clock_offset_invariant),
    ("check-estimate-offset-dependent", _estimate_plus(lambda measured: measured % 7),
     check_finds_the_offsets_cancel_out),
    ("check-pin-ignored", pin_ignored, check_finds_the_pinned_estimator_follows_the_loss_based_law),
    ("estimate-1us-low", _estimate_plus(lambda measured: -1),
     delay_based_pair_keeps_the_per_ack_bound),
    ("minimum-at-kept-ticks", minimum_at_kept_ticks, two_tick_run_sees_every_window),
    ("two-tick-start-one-tick-late", two_tick_start_one_tick_late,
     two_tick_runs_measure_what_the_full_runs_do),
    ("dropped-offer-counted-twice", dropped_offer_counted_twice,
     short_fig2a_run_conserves_packets),
    ("counts-1500-bytes", counts_1500_bytes, scaling_scales_only_the_bytes),
    ("split-drops-ties", split_drops_ties, split_queue_dispatches_like_a_heap),
    ("in-service-packet-takes-a-slot", in_service_packet_takes_a_slot, corpus_run_follows_lindley),
    ("uniform-start-reads-the-run-length", uniform_start_reads_the_run_length,
     uniform_start_cell_is_a_prefix),
    ("receivers-share-flow-0s-offset", receivers_share_flow_0s_offset,
     corpus_pair_mirrors_when_reversed),
]


@pytest.mark.parametrize("name,patch,check", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_check_fails_under_its_mutant(monkeypatch, name, patch, check):
    check(monkeypatch)  # holds on the program as it is
    patch(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)
