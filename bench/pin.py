"""Regenerate bench/pinned.json: each workload's output digests and event counts.

    python3 bench/pin.py

Runs one traced pass of fig2a, of fig3-bottom and of grid-slow at every base
seed below GRID_SEEDS (about ten minutes on two cores). Pins change only when
a change to the simulator changes its output on purpose; say why in
CHANGES.md when they do.
"""

import json
import sys

from run import GRID_SEEDS, HARD_LIMIT_S, PINNED, run_pass, workload_argv


def pin(workload: str, seed: int) -> dict:
    report = run_pass(workload_argv(workload, seed, jobs=1), True, None, HARD_LIMIT_S)
    if not report["ok"]:
        sys.exit(f"{workload} seed {seed}: {report['error']}")
    print(f"{workload} seed {seed}: {report['events']}", flush=True)
    return {"files": report["digests"], "events": report["events"]}


def main() -> int:
    pins = {
        "fig2a": pin("fig2a", 0),
        "fig3-bottom": pin("fig3-bottom", 0),
        "grid-slow": {str(s): pin("grid-slow", s) for s in range(GRID_SEEDS)},
    }
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
