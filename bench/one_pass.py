"""One benchmark pass: run a ledbatsim command in this fresh interpreter.

    python3 bench/one_pass.py '<spec json>'

The spec gives `argv` for `ledbatsim.cli.main`, the output directory `out`
the command writes into, `traced` (install the per-layer spans), `speed_log`
(an empty directory for the host-speed samples, or null for none) with
`slice_us` (simulated time between samples), and `cut_s`
(smoke mode: shorten every scenario to that many simulated seconds, or
null). The last line of stdout is one JSON object describing the pass.
Times come from `time.perf_counter`, memory from `getrusage`, and the
host-speed samples from `time.thread_time` (bench/hostspeed.py).
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parents[1]


def digests(out_dir: Path) -> dict:
    out = {}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.name] = h.hexdigest()
    return out


def cut_durations(cli, harness, cut_s: float) -> None:
    load, cells = cli.load_scenario, harness.table1_cells
    cli.load_scenario = lambda name: replace(load(name), duration_s=cut_s)
    harness.table1_cells = lambda: [replace(c, duration_s=cut_s) for c in cells()]


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))

    t_start = time.perf_counter()
    from ledbatsim import cli, engine, harness
    import layers
    import numpy

    report = {"ok": False, "error": None, "missing": [], "numpy": numpy.__version__}
    speed = None
    if spec["speed_log"]:
        # first, so that the other probes wrap the sliced event loop
        speed = hostspeed.HostSpeed(Path(spec["speed_log"]), spec["slice_us"])
        speed.install(engine.Engine)
    probe = layers.RunProbe()
    try:
        probe.install()
    except layers.MissingTarget as exc:
        report["missing"].append(str(exc))
    spans = None
    if spec["traced"]:
        spans = layers.Spans()
        report["missing"] += spans.install()
    if spec["cut_s"]:
        cut_durations(cli, harness, spec["cut_s"])
    entry = spans.wrap("cli.main", cli.main) if spans else cli.main

    try:
        rc = entry(spec["argv"])
    except Exception:  # the pass reports any failure of the command as data
        report["error"] = traceback.format_exc()
        rc = None
    t_end = time.perf_counter()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    report.update(
        rc=rc,
        wall_s=t_end - t_start,
        setup_s=(probe.setup_end - t_start) if probe.setup_end else None,
        sim_s=probe.sim_s,
        sim_host_s=probe.sim_host_s,
        peak_rss_mb=rss_kb / 1024,
        conservation_ok=probe.conservation_ok,
        digests=digests(Path(spec["out"])),
    )
    if rc != 0 and report["error"] is None:
        report["error"] = f"exit code {rc}"
    if speed:
        report["ref_samples"], report["ref_procs"] = speed.totals()
    if spans:
        report["layers"] = spans.metrics()
        report["events"] = spans.events_by_kind()
        report["never_called"] = spans.never_called()
    report["ok"] = (report["error"] is None and not report["missing"]
                    and probe.conservation_ok and report["setup_s"] is not None)
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
