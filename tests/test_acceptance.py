"""Acceptance gate: every criterion from the delivery checklist, one test each.

The whole batch (five figure scenarios, four summary-grid cells at 20 runs
each, the property sweeps, and the CLI determinism probe) runs once per
session; each test then judges its own criterion so the -v listing reads as
a per-criterion scoreboard.
"""

import pytest

from ledbatsim.acceptance import CRITERIA_IDS, run_acceptance

TABLE_RUNS = 20
SEED = 7
JOBS = 2  # the grid's runs fold in input order, so any worker count gives the same results


@pytest.fixture(scope="module")
def scorecard():
    results = run_acceptance(table_runs=TABLE_RUNS, seed=SEED, jobs=JOBS)
    assert [r.cid for r in results] == CRITERIA_IDS
    return {r.cid: r for r in results}


@pytest.mark.parametrize("cid", CRITERIA_IDS)
def test_criterion(scorecard, cid):
    r = scorecard[cid]
    print(f"[{'PASS' if r.passed else 'FAIL'}] {cid}: {r.description} | "
          f"measured: {r.measured} | expected: {r.expected}")
    assert r.passed, (
        f"criterion {cid} ({r.description}) failed: "
        f"measured {r.measured}, expected {r.expected}"
    )
