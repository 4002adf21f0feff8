"""Command-line surface: outputs, exit codes, overwrite behavior."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ledbatsim import cli, harness

TINY_SCENARIO = """\
ledbatsim-scenario v1
name = cli-probe
capacity_mbps = 10
buffer_pkts = 40
duration_s = 15
[flow]
kind = tcp
[flow]
kind = ledbat
start_s = 2
"""


@pytest.fixture
def scn_file(tmp_path):
    p = tmp_path / "probe.scn"
    p.write_text(TINY_SCENARIO, encoding="utf-8")
    return p


def test_list_presets(capsys):
    assert cli.main(["run", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig2a" in out and "fig3-bottom" in out
    assert len(out) == 37


def test_run_scenario_writes_trace_and_summary(tmp_path, scn_file, capsys):
    rc = cli.main(["run", "--scenario", str(scn_file), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cli-probe: eta=" in out
    trace = tmp_path / "o" / "cli-probe-trace.csv"
    summary = tmp_path / "o" / "cli-probe-summary.csv"
    assert trace.exists() and summary.exists()
    header, row = summary.read_text().splitlines()
    assert header.startswith("scenario,capacity_bps,buffer_pkts")
    assert row.startswith("cli-probe,10000000,40")
    first_data = trace.read_text().splitlines()[1]
    assert first_data == "0,link,queue_pkts,0"


def test_run_refuses_overwrite_without_force(tmp_path, scn_file, capsys):
    out = str(tmp_path / "o")
    assert cli.main(["run", "--scenario", str(scn_file), "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--scenario", str(scn_file), "--out", out]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert cli.main(["run", "--scenario", str(scn_file), "--out", out, "--force"]) == 0


def test_fig2_checks_every_output_before_the_first_run(tmp_path, monkeypatch, capsys):
    # only the last preset's summary exists: nothing may run or be written
    existing = tmp_path / "tcp-alone-hs-b40-summary.csv"
    existing.write_text("kept\n", encoding="utf-8")

    def no_run(*args, **kwargs):
        raise AssertionError("ran a scenario before checking every output path")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert cli.main(["fig2", "--out", str(tmp_path)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [existing]
    assert existing.read_text(encoding="utf-8") == "kept\n"


def test_run_same_seed_identical_bytes(tmp_path, scn_file):
    for sub in ("a", "b"):
        cli.main(["run", "--scenario", str(scn_file), "--out", str(tmp_path / sub)])
    a = (tmp_path / "a" / "cli-probe-trace.csv").read_bytes()
    b = (tmp_path / "b" / "cli-probe-trace.csv").read_bytes()
    assert a == b


def test_run_seed_override_changes_nothing_without_randomness(tmp_path, scn_file):
    # fixed starts: the seed only matters for randomized modes
    cli.main(["run", "--scenario", str(scn_file), "--out", str(tmp_path / "a")])
    cli.main(["run", "--scenario", str(scn_file), "--seed", "99",
              "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "cli-probe-trace.csv").read_bytes() == \
        (tmp_path / "b" / "cli-probe-trace.csv").read_bytes()


def test_run_unknown_preset_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--preset", "fig99", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sample_ms", ["0", "nan", "inf", "16000"])
def test_run_bad_sample_period_exits_2(tmp_path, scn_file, capsys, sample_ms):
    # 16000 ms is longer than the 15 s run, which would then hold one sample
    rc = cli.main(["run", "--scenario", str(scn_file), "--out", str(tmp_path / "o"),
                   "--sample-ms", sample_ms])
    assert rc == 2
    assert "--sample-ms" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [scn_file]  # nothing written


SUB_US_TARGET = TINY_SCENARIO + "target_ms = 0.0004\n"  # rounds to 0 us
NAN_TARGET = TINY_SCENARIO + "target_ms = nan\n"
INF_DURATION = TINY_SCENARIO.replace("duration_s = 15\n", "duration_s = inf\n")
NAN_JITTER = TINY_SCENARIO.replace("duration_s = 15\n", "duration_s = 15\nstart_jitter_s = nan\n")
# a 5 s run with U(0,10) s second starts: seeds 2 and 3 draw a start inside
# the run, so only a bound on the latest possible draw rejects them
LATE_UNIFORM_START = TINY_SCENARIO.replace(
    "duration_s = 15\n", "duration_s = 5\ndelta_t_mode = uniform\n")
# the name is the output file stem: this one used to write beside --out
ESCAPED_NAME = TINY_SCENARIO.replace("name = cli-probe", "name = ../escaped")


@pytest.mark.parametrize("text,seed", [
    (SUB_US_TARGET, "0"),
    (LATE_UNIFORM_START, "2"),
    (LATE_UNIFORM_START, "3"),
    (NAN_TARGET, "0"),
    (INF_DURATION, "0"),
    (NAN_JITTER, "0"),
    (ESCAPED_NAME, "0"),
], ids=["sub-us-target", "uniform-seed2", "uniform-seed3", "nan-target", "inf-duration",
        "nan-jitter", "escaped-name"])
def test_run_rejects_scenario_the_run_cannot_use(tmp_path, capsys, text, seed):
    p = tmp_path / "bad.scn"
    p.write_text(text, encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(p), "--seed", seed, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [p]  # nothing written, inside --out or beside it


@pytest.mark.parametrize("argv", [
    ["table1", "--seed", "-1"],
    ["table1", "--seed", str(2**64)],
    ["run", "--preset", "fig2a", "--seed", "-1"],
    ["run", "--preset", "fig2a", "--seed", str(2**64)],
], ids=["table1-negative", "table1-2**64", "run-negative", "run-2**64"])
def test_seed_outside_64_bits_exits_2_before_any_run(tmp_path, monkeypatch, capsys, argv):
    def no_run(*_args, **_kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_run_batch", no_run)
    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "seed must be within [0, 2**64)" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["--seed", "-1"],
    ["--seed", str(2**64)],
    ["--cells", "no-such-cell"],
], ids=["seed-negative", "seed-2**64", "cells-select-nothing"])
def test_table1_usage_error_creates_no_out_directory(tmp_path, monkeypatch, capsys, argv):
    def no_run(*_args, **_kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_run_batch", no_run)
    out = tmp_path / "new"
    assert cli.main(["table1", *argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


NO_NUMPY = """
import sys
if sys.argv[1:] == ["import-acceptance"]:
    import ledbatsim.acceptance
else:
    from ledbatsim import cli
    assert cli.main(sys.argv[1:]) == 0
loaded = sorted(m for m in ("numpy", "numpy.random") if m in sys.modules)
assert loaded == [], loaded
"""


@pytest.mark.parametrize("what", ["fixed-start run", "drawing table1", "import acceptance"])
def test_runs_draws_and_acceptance_never_import_numpy(tmp_path, scn_file, what):
    # in a fresh interpreter: this one may have loaded numpy for other tests
    argv = {
        "fixed-start run": ["run", "--scenario", str(scn_file), "--out", str(tmp_path / "o")],
        "drawing table1": ["table1", "--cells=-c2-", "--runs", "1", "--jobs", "1",
                           "--out", str(tmp_path / "o")],
        "import acceptance": ["import-acceptance"],
    }[what]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if what == "fixed-start run":
        assert (tmp_path / "o" / "cli-probe-trace.csv").exists()
    elif what == "drawing table1":
        assert (tmp_path / "o" / "table1.csv").exists()


def test_table1_has_no_sample_period(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table1", "--sample-ms", "250", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["table1", "--jobs", "0"],
    ["check", "--jobs", "0"],
    ["table1", "--runs", "0"],
    ["check", "--runs", "0"],
])
def test_fewer_than_one_job_or_run_is_a_usage_error(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + (["--out", str(tmp_path / "o")] if argv[0] == "table1" else []))
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_run_requires_a_target(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])
    assert exc.value.code == 2


def test_table_subcommand_writes_csv(tmp_path, capsys):
    rc = cli.main(["table1", "--runs", "1", "--cells", "tl-c2-b10-dt2-noss",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "table1.csv").read_text().splitlines()
    assert lines[0].startswith("scenario,mix,capacity_mbps,buffer_pkts")
    assert len(lines) == 2
    assert lines[1].startswith('table1-tl-c2-b10-dt2-noss,tcp-ledbat,2.0,10,"2",off,1,')


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
