"""Command-line entry points.

Subcommands:
    run     one scenario (packaged preset or scenario file) -> trace + summary
    fig2    the two start-together presets plus the solo loss-based baseline
    fig3    the three late-start presets
    table1  the summary grid over repeated randomized runs -> one CSV
    check   the acceptance suite; prints one PASS/FAIL line per criterion

Exit codes: 0 success, 1 acceptance failure, 2 usage or configuration error.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .harness import (
    DEFAULT_SAMPLE_US,
    check_sample_us,
    run_scenario,
    run_table1,
    select_table1_cells,
    write_summary_csv,
    write_table_csv,
    write_trace_csv,
)
from .scenario import UsageError, load_scenario, preset_names

FIG2_PRESETS = ["fig2a", "fig2b", "tcp-alone-hs-b40"]
FIG3_PRESETS = ["fig3-top", "fig3-mid", "fig3-bottom"]


def _prepare_paths(out_dir: Path, names, force: bool) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / n for n in names]
    if not force:
        clobbered = [str(p) for p in paths if p.exists()]
        if clobbered:
            raise UsageError(
                "refusing to overwrite existing output (pass --force): "
                + ", ".join(clobbered)
            )
    return paths


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _run_and_write(targets, args) -> int:
    """Run each preset name or scenario file, and write its trace and summary.
    Every scenario and output path is checked before the first run."""
    sample_us = round(args.sample_ms * 1000) if math.isfinite(args.sample_ms) else 0
    scenarios = [load_scenario(target) for target in targets]
    if args.seed is not None:
        scenarios = [replace(s, seed=args.seed) for s in scenarios]
    for scenario in scenarios:
        scenario.validate()
        try:
            check_sample_us(sample_us, scenario.duration_us)
        except UsageError as exc:
            raise UsageError(f"--sample-ms {args.sample_ms:g} for {scenario.name}: {exc}") from None
    paths = _prepare_paths(Path(args.out), [f"{s.name}-{kind}.csv" for s in scenarios
                                            for kind in ("trace", "summary")], args.force)
    for scenario, trace_path, summary_path in zip(scenarios, paths[::2], paths[1::2]):
        result = run_scenario(scenario, sample_us=sample_us)
        write_trace_csv(result.trace, trace_path)
        write_summary_csv(result, summary_path)
        m = result.metrics
        print(f"{scenario.name}: eta={m.eta_percent:.1f}% F={m.fairness:.3f} "
              f"L={m.loss_rate:.2e}")
        print(f"wrote {trace_path}")
        print(f"wrote {summary_path}")
    return 0


def cmd_run(args) -> int:
    return _run_and_write([args.target], args)


def cmd_fig2(args) -> int:
    return _run_and_write(FIG2_PRESETS, args)


def cmd_fig3(args) -> int:
    return _run_and_write(FIG3_PRESETS, args)


def cmd_table1(args) -> int:
    cells = args.cells or None
    select_table1_cells(args.seed, cells)  # its usage errors come before any write
    (table_path,) = _prepare_paths(Path(args.out), ["table1.csv"], args.force)
    summaries, _ = run_table1(
        args.runs, args.seed, jobs=args.jobs, cells=cells,
        progress=(lambda done, total: print(f"  {done}/{total} runs")) if args.verbose else None,
    )
    write_table_csv(summaries, table_path)
    print(f"wrote {table_path} ({len(summaries)} cells x {args.runs} runs)")
    return 0


def cmd_check(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(table_runs=args.runs, seed=args.seed, jobs=args.jobs)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"[{tag}] {r.cid:<14} {r.description}")
        print(f"       measured: {r.measured}")
        print(f"       expected: {r.expected}")
    total = len(results)
    print(f"{total - failed}/{total} criteria passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledbatsim",
        description="Deterministic bottleneck simulator for delay-based vs "
                    "loss-based congestion control.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, runs_scenarios=True):
        p.add_argument("--out", default="out",
                       help="output directory (default: ./out)")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        if runs_scenarios:
            p.add_argument("--sample-ms", type=float, default=DEFAULT_SAMPLE_US / 1000,
                           help="trace sampling period in ms (default: 10)")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")

    p_run = sub.add_parser("run", help="run one scenario and write its trace")
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", dest="target", metavar="NAME",
                       help="packaged scenario name (see --list)")
    group.add_argument("--scenario", dest="target", metavar="FILE",
                       help="scenario description file")
    group.add_argument("--list", action="store_true", dest="list_presets",
                       help="list packaged preset names and exit")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    for name, fn in (("fig2", cmd_fig2), ("fig3", cmd_fig3)):
        p = sub.add_parser(name, help=f"run the canned {name} presets")
        add_common(p)
        p.set_defaults(func=fn)

    p_tab = sub.add_parser("table1", help="run the randomized summary grid")
    p_tab.add_argument("--runs", type=_at_least_one, default=10,
                       help="runs per cell (default: 10)")
    p_tab.add_argument("--seed", type=int, default=0, help="base seed")
    p_tab.add_argument("--jobs", type=_at_least_one, default=1, help="worker processes")
    p_tab.add_argument("--cells", action="append", metavar="SUBSTRING",
                       help="only cells whose name contains SUBSTRING (repeatable)")
    p_tab.add_argument("--verbose", action="store_true",
                       help="print each finished run")
    add_common(p_tab, runs_scenarios=False)
    p_tab.set_defaults(func=cmd_table1)

    p_chk = sub.add_parser("check", help="run the acceptance suite")
    p_chk.add_argument("--runs", type=_at_least_one, default=20,
                       help="runs per summary-grid cell (default: 20)")
    p_chk.add_argument("--seed", type=int, default=7, help="base seed")
    p_chk.add_argument("--jobs", type=_at_least_one, default=1, help="worker processes")
    p_chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "list_presets", False):
        for name in preset_names():
            print(name)
        return 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
