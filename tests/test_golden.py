"""Golden runs: the SHA-256 of the trace and summary CSVs, and the number of
events dispatched per kind, of every figure preset and of one summary-grid
cell per flow mix, each cut to 30 s; and the full-length `fig2a` and
`fig3-bottom` runs and the grid-slow table at base seed 0, their output files
and events per kind against the ones pinned in bench/pinned.json.

A refactor that is meant to keep behaviour must keep these bytes and this
event schedule. A change that moves them on purpose re-records them and says
why.
"""

import contextlib
import functools
import hashlib
import json
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from ledbatsim import cli, harness
from ledbatsim.engine import Engine
from ledbatsim.harness import run_scenario, write_summary_csv, write_trace_csv
from ledbatsim.scenario import get_preset

ROOT = Path(__file__).resolve().parents[1]
CUT_S = 30.0
GRID_SEED = 5

# preset -> (trace sha256, summary sha256)
GOLDEN = {
    "fig2a": (
        "f3aa5987d88bdb003c2428491e7f7fcf03e58b27c5d670ad674465ae91385ddf",
        "31e97d0b2ba698795fb6ccfe1e704abc6f33539a52ef974ff6aecd3d23ab130a",
    ),
    "fig2b": (
        "b3c7b1f9ef71622ec0fe9a49703b0783e6a9f50816be4f1276288d6109bb97d3",
        "6626069b0d7fd29fabf9d5b4e4e02526aa11732e075c4b40b0c66c37082d87b9",
    ),
    "fig3-top": (
        "b8737da50f0d05dd7142e9b3e1369b7d152bb841caaaa59a3d05a46b2936af23",
        "1f3cffedbb4e2888a91e2d93aa4de1557d0c4984407e6cb962b1e4c66f892b0a",
    ),
    "fig3-mid": (
        "6f61fd2cde82c40affa381e1af1870d2a36e9af6806383c212800a8f90c285ce",
        "56d9be619437c7f76a28619d98a5b7cf14a3d9393be590675a4e1170052bb4a4",
    ),
    "fig3-bottom": (
        "67c4af91de16dd747efea724b8223cb1ce66bc4843521c5f32b5876b3953b51d",
        "2bdb3df0c2829abb06b9d1f92f241f4db7727934158ce612460bd860a685aff6",
    ),
    "tcp-alone-hs-b40": (
        "e728461ae52f52699e1206267203376ab64f287f41616d5ba6529f7ea68e791a",
        "329bef1248917db7a92dc40bbb68e92590e890565a531588598381ca1411daea",
    ),
    "table1-tl-c2-b10-dtu-noss": (
        "76ce60bb687ce5f669ce55c3a056f21a2f88829e5cd295c8c1fe1777fd9db5a0",
        "fe0f796d473fe4a555f77f4fd698c78bb07ec939429dfe339a766ffdc48c434e",
    ),
    "table1-ll-c2-b10-dt2-ss": (
        "652cf4ad47978733ab4e5028082bc5233988097e6a6fc9aa52567c7e58f2d890",
        "a9ca02ea14592e1808b898dfb3228908a3c2e128cab3fbed1458f07fee6a636e",
    ),
}


# preset -> events dispatched per kind
EVENTS = {
    "fig2a": dict(FLOW_START=2, LINK_SERVICE_DONE=24173, PACING_TIMER=1731,
                  PACKET_ARRIVAL=48285, SIM_END=1, STATS_SAMPLE=3001),
    "fig2b": dict(FLOW_START=2, LINK_SERVICE_DONE=24479, PACING_TIMER=14402,
                  PACKET_ARRIVAL=48897, SIM_END=1, STATS_SAMPLE=3001),
    "fig3-top": dict(FLOW_START=2, LINK_SERVICE_DONE=24016, PACING_TIMER=19667,
                     PACKET_ARRIVAL=47971, SIM_END=1, STATS_SAMPLE=3001),
    "fig3-mid": dict(FLOW_START=2, LINK_SERVICE_DONE=23935, PACING_TIMER=14568,
                     PACKET_ARRIVAL=47810, SIM_END=1, STATS_SAMPLE=3001),
    "fig3-bottom": dict(FLOW_START=2, LINK_SERVICE_DONE=24006, PACING_TIMER=15607,
                        PACKET_ARRIVAL=47952, SIM_END=1, STATS_SAMPLE=3001),
    "tcp-alone-hs-b40": dict(FLOW_START=1, LINK_SERVICE_DONE=23728,
                             PACKET_ARRIVAL=47395, SIM_END=1, STATS_SAMPLE=3001),
    "table1-tl-c2-b10-dtu-noss": dict(FLOW_START=2, LINK_SERVICE_DONE=4772, PACING_TIMER=67,
                                      PACKET_ARRIVAL=9542, SIM_END=1, STATS_SAMPLE=3001),
    "table1-ll-c2-b10-dt2-ss": dict(FLOW_START=2, LINK_SERVICE_DONE=4702, PACING_TIMER=2956,
                                    PACKET_ARRIVAL=9394, SIM_END=1, STATS_SAMPLE=3001),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def _counting_events():
    """Count, by kind name, every event the runs inside the block dispatch."""
    dispatched = Counter()

    class CountingEngine(Engine):
        def register(self, kind, handler):
            def counted(payload):
                dispatched[kind.name] += 1
                handler(payload)
            super().register(kind, counted)

    with mock.patch.object(harness, "Engine", CountingEngine):
        yield dispatched


@functools.cache
def _golden_run(preset):
    """Run a preset's 30 s cut once: ((trace sha256, summary sha256), events by kind)."""
    scenario = replace(get_preset(preset), duration_s=CUT_S)
    if preset.startswith("table1-"):
        scenario = replace(scenario, seed=GRID_SEED)
    with _counting_events() as dispatched:
        result = run_scenario(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        trace, summary = Path(tmp, "trace.csv"), Path(tmp, "summary.csv")
        write_trace_csv(result.trace, trace)
        write_summary_csv(result, summary)
        digests = (_sha256(trace), _sha256(summary))
    return digests, dict(dispatched)


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_output_bytes_match_golden(preset):
    assert _golden_run(preset)[0] == GOLDEN[preset]


@pytest.mark.parametrize("preset", sorted(EVENTS))
def test_event_counts_match_golden(preset):
    assert _golden_run(preset)[1] == EVENTS[preset]


# bench workload -> (its command line, the keys of its pin in bench/pinned.json)
FULL_LENGTH = {
    "fig2a": (["run", "--preset", "fig2a"], ["fig2a"]),
    "fig3-bottom": (["run", "--preset", "fig3-bottom"], ["fig3-bottom"]),
    "grid-slow": (["table1", "--cells=-c2-", "--runs", "1", "--seed", "0", "--jobs", "1"],
                  ["grid-slow", "0"]),
}


@pytest.mark.parametrize("workload", sorted(FULL_LENGTH))
def test_full_length_output_matches_bench_pins(workload, tmp_path):
    # the cut runs above end at 30 s; this covers the late drops and ties
    argv, keys = FULL_LENGTH[workload]
    pinned = json.loads((ROOT / "bench" / "pinned.json").read_text())
    for key in keys:
        pinned = pinned[key]
    with _counting_events() as dispatched:  # --jobs 1: every run in this process
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == pinned["files"]
    assert {kind.lower(): n for kind, n in dispatched.items()} == pinned["events"]
