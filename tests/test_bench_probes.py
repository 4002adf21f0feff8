"""The benchmark's probes find every name they wrap or replace.

bench/layers.py wraps functions and methods under src/ by name. A rename
there would make every benchmark pass fail, so the probes are installed here
in a fresh interpreter and must report no missing target.

bench/one_pass.py shortens the smoke runs by replacing `cli.load_scenario`
and `harness.table1_cells`. Those only take effect while the program looks
the names up there, so the cut is checked on what actually runs.

A wrapped name must also stay on the path the simulator runs: a span that is
installed but never entered (say, after `AckPath.send` is inlined into its
caller) makes the per-layer metric read 0 on working code. The third test is
`bench/run.py --smoke`'s `never_called` check, on shortened runs.

Every timed pass reads its end-to-end numbers through `layers.RunProbe`, so
the last test runs that probe end to end: it must see the set-up end, the
simulated seconds of each run, and the conservation flag it reads from the
trace and the check facts.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_BOTH = """
import layers
layers.RunProbe().install()  # raises MissingTarget on a missing name
missing = layers.Spans().install()
assert missing == [], missing
"""

CUT_REACHES_THE_RUNS = """
import tempfile
import one_pass
from ledbatsim import cli, harness

assert callable(harness.table1_cells) and callable(cli.load_scenario)
one_pass.cut_durations(cli, harness, 15.0)

ran = []

def recording(fn):
    def wrapper(scenario, *args, **kwargs):
        ran.append(scenario)
        return fn(scenario, *args, **kwargs)
    return wrapper

cli.run_scenario = recording(cli.run_scenario)
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["run", "--preset", "tcp-alone-hs-b40", "--out", out]) == 0
assert [s.duration_s for s in ran] == [15.0], ran

batches = []
run_batch = harness._run_batch

def recording_batch(scenarios, *args, **kwargs):
    batches.append(scenarios)
    return run_batch(scenarios, *args, **kwargs)

harness._run_batch = recording_batch
harness.run_table1(1, 0, cells=["tl-c2-b10-dt2-noss"])
assert [s.duration_s for s in batches[0]] == [15.0], batches
"""

EVERY_SPAN_IS_ENTERED = """
import tempfile
import layers
import one_pass
from ledbatsim import cli, harness

spans = layers.Spans()
assert spans.install() == []
# past fig3-bottom's second start at 10 s, which a shorter run may not cut off
one_pass.cut_durations(cli, harness, 11.0)
entry = spans.wrap("cli.main", cli.main)
# --jobs 1: the grid's spans must land in this process
for argv in (["run", "--preset", "fig2a"], ["run", "--preset", "fig3-bottom"],
             ["table1", "--cells=tl-c2-b10-dt2-ss", "--runs", "1", "--jobs", "1"]):
    with tempfile.TemporaryDirectory() as out:
        assert entry(argv + ["--out", out]) == 0, argv
assert spans.never_called() == [], spans.never_called()
"""


def _run_in_bench_env(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def test_bench_probes_find_every_target():
    proc = _run_in_bench_env(INSTALL_BOTH)
    assert proc.returncode == 0, proc.stderr


def test_smoke_cut_reaches_every_run():
    proc = _run_in_bench_env(CUT_REACHES_THE_RUNS)
    assert proc.returncode == 0, proc.stderr


def test_every_bench_span_is_entered():
    proc = _run_in_bench_env(EVERY_SPAN_IS_ENTERED)
    assert proc.returncode == 0, proc.stderr


RUN_PROBE_SEES_EACH_RUN = """
import tempfile
import layers
import one_pass
from ledbatsim import cli, harness

probe = layers.RunProbe()
probe.install()
one_pass.cut_durations(cli, harness, 11.0)
# --jobs 1: the grid's run must land in this process
for argv in (["run", "--preset", "fig2a"],
             ["table1", "--cells=tl-c2-b10-dt2-ss", "--runs", "1", "--jobs", "1"]):
    sim_s = probe.sim_s
    with tempfile.TemporaryDirectory() as out:
        assert cli.main(argv + ["--out", out]) == 0, argv
    assert probe.sim_s - sim_s == 11.0, (argv, probe.sim_s)
    assert probe.setup_end is not None, argv
    assert probe.conservation_ok is True, argv
"""


def test_run_probe_times_each_run():
    proc = _run_in_bench_env(RUN_PROBE_SEES_EACH_RUN)
    assert proc.returncode == 0, proc.stderr
