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


@dataclass
class MetricsReport:
    eta_percent: float
    fairness: float
    loss_rate: float
    t0_us: int
    t1_us: int
    flow_rates_bps: tuple[float, ...]


def compute_report(trace, interval) -> MetricsReport:
    """Standard per-run report over one measurement interval [t0_us, t1_us].

    Each quantity is the change of a cumulative counter between the ticks
    `trace.tick_at` finds for the two ends. The flows' rates count the bytes
    of packets that finished service inside the interval (retransmissions
    included), and eta their sum as a percent of the link capacity. A packet
    completing just inside t0 counts whole, which can push a saturated
    interval a fraction of a packet over 100; clamped. The loss rate is the
    dropped fraction of everything offered to the bottleneck.
    """
    t0_us, t1_us = interval
    if t1_us <= t0_us:
        raise ValueError("empty interval")
    i0, i1 = trace.tick_at(t0_us), trace.tick_at(t1_us)
    span_us = t1_us - t0_us
    deltas = [trace.delivered_bytes[fid][i1] - trace.delivered_bytes[fid][i0]
              for fid in trace.flow_ids]
    rates = tuple(8 * d / (span_us / 1_000_000) for d in deltas)
    bits = 8 * sum(deltas)  # whole bytes, so the sum over flows is exact
    offered = trace.link_offered[i1] - trace.link_offered[i0]
    dropped = trace.link_dropped[i1] - trace.link_dropped[i0]
    return MetricsReport(
        eta_percent=min(100.0 * bits / (trace.capacity_bps * span_us / 1_000_000), 100.0),
        fairness=jain_fairness(rates),
        loss_rate=dropped / offered if offered else 0.0,
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
