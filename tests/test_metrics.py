"""Fairness index, utilization, loss rate, cross-run aggregation."""

import math
import random

import pytest

from ledbatsim.harness import TraceSet
from ledbatsim.metrics import (
    AllZeroRates,
    MetricsReport,
    aggregate_runs,
    compute_report,
    jain_fairness,
    loss_rate,
    utilization,
)

S = 1_000_000


def _trace():
    """Two flows over one second: 1.25 MB total, split 625k/625k, 5 drops of 100 offered."""
    tr = TraceSet([0, 1], 10_000_000, S)
    tr.sample_t_us = [0, S]
    tr.queue_pkts = [0, 0]
    tr.link_offered = [0, 100]
    tr.link_dropped = [0, 5]
    tr.cwnd_pkts = {0: [1.0, 2.0], 1: [1.0, 2.0]}
    tr.delivered_bytes = {0: [0, 625_000], 1: [0, 625_000]}
    return tr


# -- jain index ------------------------------------------------------------


def test_jain_equal_rates_is_one():
    assert jain_fairness([5.0, 5.0]) == 1.0


def test_jain_single_hog_is_reciprocal_n():
    assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == 0.25


def test_jain_known_midpoint():
    # (1+2+3)^2 / (3 * 14) = 36/42
    assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(36 / 42, rel=1e-15)


def test_jain_rejects_empty_and_all_zero():
    with pytest.raises(AllZeroRates):
        jain_fairness([])
    with pytest.raises(AllZeroRates):
        jain_fairness([0.0, 0.0])


def test_jain_bounds_and_scale_invariance_random_vectors():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(1, 9)
        x = [rng.uniform(0.0, 1e7) for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            x[rng.randrange(n)] = 0.0
        if not any(x):
            continue
        f = jain_fairness(x)
        assert 1.0 / n - 1e-12 <= f <= 1.0 + 1e-12
        k = rng.uniform(1e-6, 1e6)
        assert jain_fairness([k * v for v in x]) == pytest.approx(f, rel=1e-12)


# -- interval measures -------------------------------------------------------


def test_utilization_counts_delivered_bits():
    tr = _trace()
    assert utilization(tr, (0, S)) == 100.0  # 1.25 MB in 1 s fills 10 Mbps
    assert utilization(tr, (0, S), flow_id=0) == 50.0
    tr.capacity_bps = 20_000_000
    assert utilization(tr, (0, S)) == 50.0


def test_utilization_rejects_empty_interval():
    with pytest.raises(ValueError):
        utilization(_trace(), (S, S))


def test_loss_rate_is_dropped_over_offered():
    assert loss_rate(_trace(), (0, S)) == pytest.approx(0.05)


def test_loss_rate_zero_when_nothing_offered():
    tr = _trace()
    tr.link_offered = [0, 0]
    tr.link_dropped = [0, 0]
    assert loss_rate(tr, (0, S)) == 0.0


def test_compute_report_bundles_all_three():
    rep = compute_report(_trace(), (0, S))
    assert rep.eta_percent == 100.0
    assert rep.fairness == 1.0  # both flows at 5 Mbps
    assert rep.loss_rate == pytest.approx(0.05)
    assert rep.flow_rates_bps == (5_000_000.0, 5_000_000.0)
    assert (rep.t0_us, rep.t1_us) == (0, S)


# -- aggregation --------------------------------------------------------------


def _report(eta, fairness=1.0, loss=0.0):
    return MetricsReport(eta, fairness, loss, 0, S, (0.0,))


def test_aggregate_mean_and_sample_std():
    agg = aggregate_runs([_report(90.0), _report(100.0)])
    mean, std = agg["eta_percent"]
    assert mean == 95.0
    assert std == pytest.approx(math.sqrt(50.0))  # n-1 in the denominator


def test_aggregate_single_run_has_zero_std():
    agg = aggregate_runs([_report(97.0, fairness=0.5, loss=1e-3)])
    assert agg["eta_percent"] == (97.0, 0.0)
    assert agg["fairness"] == (0.5, 0.0)
    assert agg["loss_rate"] == (1e-3, 0.0)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_runs([])
