"""ledbatsim benchmark: end-to-end host-time metrics and a traced per-layer pass.

    python3 bench/run.py --workload fig2a --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --smoke                 # quick self-check, see smoke()

Each pass runs one user command through `ledbatsim.cli.main` in a fresh
interpreter (bench/one_pass.py), closed loop, one command at a time, for as
long as another pass fits in `--seconds`. With `--trace 0` the result holds
the end-to-end metrics, medians over the passes, whose count is printed:

    wall_s       pass start (before importing ledbatsim.cli) to cli.main return
    sim_s_per_s  simulated seconds per host second inside run_scenario
                 (run_table1 for grid-slow)
    setup_s      pass start to the first event loop or batch start
    peak_rss_mb  ru_maxrss of the pass (max of self and children)

wall_s and sim_s_per_s are host times at a nominal host speed: the speed of
the host drifts, and each pass divides out the drift it measured while it
ran (bench/hostspeed.py, at_nominal_speed). The times as measured are printed
and kept in the per-pass record. setup_s is as measured, after a warm-up
that puts the host in the same state before every pass (hostspeed.warm_up).

A pass fails if it raises, exits non-zero, breaks packet conservation, or
writes files whose SHA-256 differ from the ones pinned in bench/pinned.json.
failed_frac (failed / attempted) is printed with the metrics, and is the
`failed` and `attempted` of the result line: it is 0 when all is well, which
the result line's metrics may not be.

With `--trace 1` the run makes one untraced pass and two traced passes (see
bench/layers.py) and reports the per-layer metrics BENCHMARK.json lists; every
count must repeat exactly between the two traced passes, and the event counts
must match the pinned ones. The grid's traced passes, and their untraced
reference, use --jobs 1 so that every span lands in one process. No traced
pass, nor its reference, samples the host speed.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it records the host and every pass.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
PINNED = BENCH / "pinned.json"

# Why each workload (the numbers are for the pinned code):
#   fig2a: the loss-driven path. 774,711 events for 245,183 deliveries, 91
#     drops, 9,219 pacing timers: TCP, drop-tail and the trace writer are live,
#     pacing barely is.
#   fig3-bottom: the pacing and delay-estimator path. 945,627 events, 168,665
#     of them pacing timers, no drop and no TCP flow: a drop-path or TCP change
#     should not move it.
#   grid-slow: the 12 slow-link (2 Mbps, 10-pkt) table1 cells at the seed's
#     base seed, one run each, two worker processes: the batch layer and
#     per-run fixed costs; no trace CSV; the sampling tick is 17% of events.
#     The `=` in --cells=-c2- keeps argparse from reading it as a flag.
WORKLOADS = ("fig2a", "fig3-bottom", "grid-slow")
GRID_RUNS_PER_CELL = 1
GRID_SEEDS = 16  # grid-slow's base seed is --seed mod this; each one is pinned
SMOKE_CUT_S = 15.0  # past fig3-bottom's 10 s start and the grid's latest start
HARD_LIMIT_S = 150.0  # no pass starts that could end a run past this
# Host-speed sampling of the timed passes (hostspeed.HostSpeed): simulated
# time between two samples, for about 300 samples a pass, and the thread CPU
# time of one hostspeed.reference_work at the nominal host speed.
SPEED_SLICE_US = {"fig2a": 1_000_000, "fig3-bottom": 1_000_000, "grid-slow": 10_000_000}
REFERENCE_S = 200e-6


def workload_argv(workload: str, seed: int, jobs: int) -> list[str]:
    out = ["--out", str(WORK / "out"), "--force"]
    if workload == "grid-slow":
        return ["table1", "--cells=-c2-", "--runs", str(GRID_RUNS_PER_CELL),
                "--seed", str(seed % GRID_SEEDS), "--jobs", str(jobs)] + out
    return ["run", "--preset", workload] + out


def pinned_for(pins, workload: str, seed: int):
    if pins is None:
        return None
    if workload == "grid-slow":
        return pins[workload][str(seed % GRID_SEEDS)]
    return pins[workload]


def run_pass(argv, traced: bool, cut_s, timeout: float, slice_us=None) -> dict:
    """One fresh-interpreter pass; returns its report, with `ok` False on any failure.

    With `slice_us`, the host is warmed up first (hostspeed.warm_up), and
    the pass samples the host's speed every `slice_us` of simulated time
    (hostspeed.HostSpeed).
    """
    out, speed_log = WORK / "out", WORK / "speed"
    for d in (out, speed_log):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    spec = json.dumps({"argv": argv, "out": str(out), "traced": traced, "cut_s": cut_s,
                       "speed_log": str(speed_log) if slice_us else None,
                       "slice_us": slice_us})
    env = dict(os.environ)
    env.pop("LEDBATSIM_OUT_DIR", None)  # it would override --out
    if slice_us:
        subprocess.run([sys.executable, str(BENCH / "hostspeed.py")], cwd=ROOT,
                       timeout=30, check=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "one_pass.py"), spec], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        stdout, stderr = None, "timed out"
    finally:
        # the pass's pool workers share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if stdout is None:
            proc.communicate()
    elapsed = time.perf_counter() - t0
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (AttributeError, IndexError, json.JSONDecodeError):
        return {"ok": False, "error": f"no report (exit {proc.returncode}): {stderr[-2000:]}",
                "elapsed": elapsed}
    report["elapsed"] = elapsed
    if report["missing"]:
        report["ok"] = False
        report["error"] = "probe targets not found: " + ", ".join(report["missing"])
    return report


def check_fingerprint(report: dict, expected_files) -> None:
    """Fail the pass if its output files differ from the expected digests."""
    if report["ok"] and report["digests"] != expected_files:
        report["ok"] = False
        report["error"] = f"output fingerprint {report['digests']} != {expected_files}"


def fingerprint_reference(reports, pinned):
    """Pinned digests, or in smoke mode (no pins) the first passing pass's."""
    if pinned is not None:
        return pinned["files"]
    return next((r["digests"] for r in reports if r["ok"]), None)


# -- host facts ----------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_digest():
    """SHA-256 over src/'s Python files, which names the code measured without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def host_facts(reports) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in reports if "numpy" in r), None),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# -- the two kinds of run --------------------------------------------------------


def at_nominal_speed(report: dict) -> None:
    """Add the pass's wall and simulation times at the nominal host speed.

    The reference work sampled during the pass measures the host's speed
    where the simulation runs. Its time is taken out, and the rest is scaled
    by REFERENCE_S over the mean sample.
    """
    samples = report["ref_samples"]
    busy = sum(samples) / report["ref_procs"]  # what each sampling process spent
    scale = REFERENCE_S * len(samples) / sum(samples)
    report["slowdown"] = 1 / scale
    report["wall_nominal_s"] = (report["wall_s"] - busy) * scale
    report["sim_host_nominal_s"] = (report["sim_host_s"] - busy) * scale


def timed_run(workload: str, seed: int, seconds: float, cut_s, pins) -> dict:
    """Untraced passes for as long as another fits in `seconds`; end-to-end medians."""
    pinned = pinned_for(pins, workload, seed)
    argv = workload_argv(workload, seed, jobs=2)
    t_begin = time.perf_counter()
    reports = []
    while True:
        elapsed = time.perf_counter() - t_begin
        # start a pass only if one as long as the last still fits the window
        last = reports[-1]["elapsed"] if reports else 0.0
        if reports and (elapsed + last > seconds or elapsed + 1.5 * last > HARD_LIMIT_S):
            break
        reports.append(run_pass(argv, False, cut_s, HARD_LIMIT_S - elapsed,
                                SPEED_SLICE_US[workload]))
    reference = fingerprint_reference(reports, pinned)
    for r in reports:
        check_fingerprint(r, reference)
    ok = [r for r in reports if r["ok"]]
    for r in ok:
        at_nominal_speed(r)
    metrics = {}
    if ok:
        metrics = {
            "wall_s": (statistics.median(r["wall_nominal_s"] for r in ok), "s"),
            "sim_s_per_s": (statistics.median(r["sim_s"] / r["sim_host_nominal_s"] for r in ok),
                            "s/s"),
            "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
        }
    return {"reports": reports, "metrics": metrics, "checks": {}}


def traced_run(workload: str, seed: int, cut_s, pins, per_layer) -> dict:
    """One untraced and two traced passes; per-layer metrics, counts exact.

    `per_layer` is BENCHMARK.json's list: a metric whose unit is not "s" is a
    count or a ratio of counts, and must repeat exactly between the passes.
    """
    pinned = pinned_for(pins, workload, seed)
    argv = workload_argv(workload, seed, jobs=1)
    t_begin = time.perf_counter()
    reports = []
    for traced in (False, True, True):
        left = HARD_LIMIT_S - (time.perf_counter() - t_begin)
        reports.append(run_pass(argv, traced, cut_s, left))
    reference = fingerprint_reference(reports, pinned)
    for r in reports:
        check_fingerprint(r, reference)
    ref, t1, t2 = reports
    checks = {}
    metrics = {}
    if all(r["ok"] for r in reports):
        # every metric the spec names, and nothing else, comes from the spans
        checks["names_match"] = (set(t1["layers"]) | {"trace.overhead_frac"}
                                 == {m["name"] for m in per_layer})
    if checks.get("names_match"):
        counts = [m["name"] for m in per_layer
                  if m["unit"] != "s" and m["name"] != "trace.overhead_frac"]
        checks["counts_repeat"] = all(t1["layers"][n] == t2["layers"][n] for n in counts)
        checks["events_match_pin"] = pinned is None or t1["events"] == pinned["events"]
        for m in per_layer:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_frac":
                value = (t1["wall_s"] + t2["wall_s"]) / 2 / ref["wall_s"] - 1
            elif unit == "s":
                value = (t1["layers"][name] + t2["layers"][name]) / 2
            else:
                value = t1["layers"][name]
            metrics[name] = (value, unit)
    return {"reports": reports, "metrics": metrics, "checks": checks}


def result_lines(workload, seed, trace, run, host) -> list[str]:
    reports = run["reports"]
    failed = sum(not r["ok"] for r in reports)
    correct = failed == 0 and all(run["checks"].values()) and bool(run["metrics"])
    lines = [f"# {workload} seed={seed} trace={trace}: {len(reports)} passes, "
             f"failed_frac={failed / len(reports):.4g} ({failed}/{len(reports)})"]
    for r in reports:
        if not r["ok"]:
            lines.append(f"#   failed pass: {r['error'].strip().splitlines()[-1]}")
    for name, (value, unit) in run["metrics"].items():
        lines.append(f"#   {name:<34} {value:>14.6g} {unit}")
    timed = [r for r in reports if "slowdown" in r]
    if timed:
        med = lambda key: statistics.median(r[key] for r in timed)
        lines.append(f"#   as measured (medians over the passes): wall_s {med('wall_s'):.4g} s"
                     f" at host slowdown {med('slowdown'):.3g}")
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "host": host,
        "checks": run["checks"],
        "failed_frac": failed / len(reports),
        "passes": [{k: r.get(k) for k in ("ok", "error", "elapsed", "wall_s", "setup_s",
                                          "sim_s", "sim_host_s", "peak_rss_mb", "slowdown",
                                          "wall_nominal_s", "sim_host_nominal_s", "digests")}
                   for r in reports],
    }
    lines.append(json.dumps(detail))
    lines.append(json.dumps({
        "correct": correct,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in run["metrics"].items()},
    }))
    return lines


def smoke(spec) -> int:
    """Every workload cut to SMOKE_CUT_S simulated seconds, untraced and traced.

    Passes if every pass succeeds, the emitted metric names and units are
    exactly BENCHMARK.json's, every probe target is found, and every span is
    entered by at least one workload.
    """
    problems = []
    never_called = {}
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            if trace:
                run = traced_run(workload, 0, SMOKE_CUT_S, None, spec["per_layer"])
                never_called[workload] = set(run["reports"][1].get("never_called", []))
            else:
                run = timed_run(workload, 0, 0, SMOKE_CUT_S, None)
            print("\n".join(result_lines(workload, 0, trace, run, None)[:-2]))
            problems += [f"{workload} trace={trace}: {r['error'].strip()}"
                         for r in run["reports"] if not r["ok"]]
            problems += [f"{workload} trace={trace}: check {k} failed"
                         for k, v in run["checks"].items() if v is False]
            emitted = {n: u for n, (_, u) in run["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in expected}
            if emitted != wanted:
                problems.append(f"{workload} trace={trace}: metrics {emitted} != {wanted}")
    never_anywhere = set.intersection(*never_called.values())
    if never_anywhere:
        problems.append("spans no workload enters: " + ", ".join(sorted(never_anywhere)))
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the untraced passes of one workload measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-check of the benchmark on shortened runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ledbatsim" / "cli.py").is_file():
        print(f"error: no ledbatsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(spec)
    pins = json.loads(PINNED.read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if args.trace:
            run = traced_run(workload, args.seed, None, pins, spec["per_layer"])
        else:
            run = timed_run(workload, args.seed, args.seconds, None, pins)
        if not any(r["ok"] for r in run["reports"]):
            for r in run["reports"]:
                print(f"error: {workload}: {r['error']}", file=sys.stderr)
            return 1
        host = host_facts(run["reports"])
        print("\n".join(result_lines(workload, args.seed, args.trace, run, host)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
