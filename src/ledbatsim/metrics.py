"""Per-run and cross-run measurements: Jain fairness, link utilization, loss
rate and starvation episodes.

All interval-based quantities read the cumulative counters the trace sampled;
interval edges snap down to the sample grid (10 ms by default, so well below
every tolerance that consumes these numbers).
"""

import math
from dataclasses import dataclass

from .scenario import UsageError

STARVATION_WINDOW_S = 10.0
STARVATION_THRESHOLD = 0.05  # of the fair share


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


def _read_interval(trace, t0_us, t1_us):
    """The ticks `trace.tick_at` finds for the ends of [t0_us, t1_us], each
    flow's delivered bytes between them, and its rate in bit/s over the span."""
    i0, i1 = trace.tick_at(t0_us), trace.tick_at(t1_us)
    span_s = (t1_us - t0_us) / 1_000_000
    deltas = [trace.delivered_bytes[fid][i1] - trace.delivered_bytes[fid][i0]
              for fid in trace.flow_ids]
    return i0, i1, deltas, tuple(8 * d / span_s for d in deltas)


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
    i0, i1, deltas, rates = _read_interval(trace, t0_us, t1_us)
    bits = 8 * sum(deltas)  # whole bytes, so the sum over flows is exact
    offered = trace.link_offered[i1] - trace.link_offered[i0]
    dropped = trace.link_dropped[i1] - trace.link_dropped[i0]
    return MetricsReport(
        eta_percent=min(100.0 * bits / (trace.capacity_bps * (t1_us - t0_us) / 1_000_000),
                        100.0),
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


@dataclass
class StarvationEpisode:
    flow_id: int
    t0_us: int
    t1_us: int


def detect_starvation(trace):
    """Windows of STARVATION_WINDOW_S where one flow runs under
    STARVATION_THRESHOLD of the fair share while another holds more than half
    of it; consecutive windows merge into episodes. Needs a multi-flow trace."""
    if len(trace.flow_ids) < 2:
        raise UsageError("starvation detection needs at least two flows")
    fair_bps = trace.capacity_bps / len(trace.flow_ids)
    window_us = int(round(STARVATION_WINDOW_S * 1_000_000))
    end_us = trace.sample_t_us[-1]
    episodes: list[StarvationEpisode] = []
    open_eps: dict[int, StarvationEpisode] = {}
    t = 0
    while t + window_us <= end_us:
        _, i1, _, rates = _read_interval(trace, t, t + window_us)
        for fid, rate in zip(trace.flow_ids, rates):
            if trace.delivered_bytes[fid][i1] == 0:
                continue  # flow has not sent anything yet: silence, not starvation
            starved = rate < STARVATION_THRESHOLD * fair_bps and any(
                r > 0.5 * fair_bps for g, r in zip(trace.flow_ids, rates) if g != fid
            )
            if starved:
                ep = open_eps.get(fid)
                if ep is None:
                    open_eps[fid] = StarvationEpisode(fid, t, t + window_us)
                else:
                    ep.t1_us = t + window_us
            elif fid in open_eps:
                episodes.append(open_eps.pop(fid))
        t += window_us
    episodes.extend(open_eps.values())
    episodes.sort(key=lambda e: (e.t0_us, e.flow_id))
    return episodes
