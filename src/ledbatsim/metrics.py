"""Per-run and cross-run measurements: Jain fairness, link utilization, loss rate.

All interval-based quantities read the cumulative counters the trace sampled;
interval edges snap down to the sample grid (10 ms by default, so well below
every tolerance that consumes these numbers).
"""

import math
from dataclasses import dataclass


class AllZeroRates(Exception):
    """Jain's index is undefined when every rate is zero."""


def jain_fairness(rates) -> float:
    """Jain's index: (sum x)^2 / (N * sum x^2). 1/N (one hog) .. 1.0 (equal)."""
    rates = list(rates)
    if not rates:
        raise AllZeroRates("no rates given")
    total = math.fsum(rates)
    squares = math.fsum(x * x for x in rates)
    if squares == 0.0:
        raise AllZeroRates("all rates are zero")
    return (total * total) / (len(rates) * squares)


def utilization(trace, interval, flow_id: int | None = None) -> float:
    """Percent of the trace's link capacity carried over [t0_us, t1_us].

    Counts bits of packets that finished service inside the interval
    (retransmissions included); flow_id restricts to one flow's contribution.
    A packet completing just inside t0 counts whole, which can push a
    saturated interval a fraction of a packet over 100; clamped.
    """
    t0_us, t1_us = interval
    if t1_us <= t0_us:
        raise ValueError("empty interval")
    bits = 8 * trace.delivered_bytes_between(t0_us, t1_us, flow_id)
    pct = 100.0 * bits / (trace.capacity_bps * (t1_us - t0_us) / 1_000_000)
    return min(pct, 100.0)


def loss_rate(trace, interval) -> float:
    """Dropped fraction of everything offered to the bottleneck over the interval."""
    t0_us, t1_us = interval
    offered = trace.offered_between(t0_us, t1_us)
    if offered == 0:
        return 0.0
    return trace.dropped_between(t0_us, t1_us) / offered


@dataclass
class MetricsReport:
    eta_percent: float
    fairness: float
    loss_rate: float
    t0_us: int
    t1_us: int
    flow_rates_bps: tuple[float, ...]


def compute_report(trace, interval) -> MetricsReport:
    """Standard per-run report over one measurement interval."""
    t0_us, t1_us = interval
    span_s = (t1_us - t0_us) / 1_000_000
    rates = tuple(
        8 * trace.delivered_bytes_between(t0_us, t1_us, fid) / span_s
        for fid in trace.flow_ids
    )
    return MetricsReport(
        eta_percent=utilization(trace, interval),
        fairness=jain_fairness(rates),
        loss_rate=loss_rate(trace, interval),
        t0_us=t0_us,
        t1_us=t1_us,
        flow_rates_bps=rates,
    )


def aggregate_runs(reports) -> dict[str, tuple[float, float]]:
    """Mean and sample standard deviation (n-1; 0.0 for a single run) per metric."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    out = {}
    for key in ("eta_percent", "fairness", "loss_rate"):
        values = [getattr(r, key) for r in reports]
        mean = math.fsum(values) / len(values)
        if len(values) > 1:
            var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        out[key] = (mean, std)
    return out
