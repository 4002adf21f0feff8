"""End-to-end acceptance checks over the packaged presets.

Each criterion runs real scenarios and compares measured dynamics against a
fixed expectation band. Exact properties (trajectory equalities, conservation,
bounds) are checked alongside the statistical bands so a single report covers
both. The same routine backs the `check` CLI command and the acceptance test
module; it prints nothing itself. The relations 6b and 6c compare runs, through
`offset_divergence` and `law_divergence`, which the corpus tests call too.
"""

import contextlib
import io
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from .harness import RunResult, TraceSet, extract_check_facts, run_scenario, run_table1
from .metrics import compute_report, detect_starvation, jain_fairness
from .scenario import Scenario, get_preset
from .transport import FlowSpec

S = 1_000_000  # us per second


@dataclass
class CriterionResult:
    cid: str
    description: str
    measured: str
    expected: str
    passed: bool


# cid -> (description, expected band), in report order
CRITERIA = {
    "1a": ("delay-based window plateaus at the queue target in [2,4] s",
           "queue in [18.8, 22.8] pkts while window is at its pre-loss plateau"),
    "1b": ("first loss-based-flow drop in [5,8] s, window halves to ~40",
           "drop time in [5,8] s and post-halving window in [32,48] pkts"),
    "1c": ("two-flow fairness over [0,300] s", "0.65 +/- 0.07"),
    "1d": ("utilization gain from the delay-based flow", "+16 +/- 6 percent relative"),
    "2-fairness": ("two delay-based flows started together share fairly", "F > 0.99"),
    "2-utilization": ("delay-based pair utilization close to mixed pair", "within 2 points"),
    "3": ("late-start pair on the small buffer: resync loss then fair share",
          ">=1 drop in [20,30] s and F > 0.8 over [30,300] s"),
    "4": ("large buffer: no losses before the minima history turns over; "
          "first flow starved until it does",
          "0 drops before 120 s; episode from ~20 s to ~120 s"),
    "5a": ("delay-based pair, fast link, late start, no slow start", "0.53 +/- 0.08"),
    "5b": ("same cell with slow start restores fairness", "0.99 +/- 0.02"),
    "5c": ("loss-based vs delay-based on the slow link", "eta >= 96% and F = 0.60 +/- 0.08"),
    "5d": ("slow-start loss rates stay small (delay-based pairs)", "<= 5e-3"),
    "6a": ("per-ack window update never exceeds 1/cwnd", "<= 1.0 exactly"),
    "6b": ("receiver clock offsets cancel out of every trajectory",
           "trajectories equal for offsets +/-1 s and +/-1 h, base shifted exactly"),
    "6c": ("delay estimator pinned to zero degenerates to the loss-based law",
           "bit-identical window series, halvings, and drops"),
    "6d": ("packet conservation at every sample of every run",
           "offered == delivered + dropped + queued + in service"),
    "6e": ("fairness index bounds and scale invariance (1e4 random vectors)",
           "1/N <= F <= 1 and F(kx)=F(x) to 1e-12 relative"),
    "6f": ("window floor of one packet at every sample", ">= 1.0"),
    "6g": ("window halvings at least one smoothed RTT apart", "inter-halving time >= smoothed RTT"),
    "7": ("run command is byte-deterministic", "byte-identical files for the same seed"),
}
CRITERIA_IDS = list(CRITERIA)


def _criterion_1(fig2a: RunResult, tcp_alone: RunResult):
    tr = fig2a.trace
    tcp_id, ledbat_id = 0, 1

    drops = tr.drops
    first_drop_us = drops[0][0] if drops else fig2a.scenario.duration_us
    cw = tr.cwnd_pkts[ledbat_id]
    ts = tr.sample_t_us
    pre_loss = [c for c, t in zip(cw, ts) if t <= first_drop_us]
    peak = max(pre_loss) if pre_loss else 0.0

    # 1a: somewhere in [2,4] s the delay-based window sits at its plateau and
    # the sampled queue is within 2 packets of the 20.8-packet delay target.
    window = [i for i, t in enumerate(ts) if 2 * S <= t <= 4 * S]
    i_star = max(window, key=lambda i: cw[i])
    q_star = tr.queue_pkts[i_star]
    at_plateau = cw[i_star] >= 0.97 * peak
    q_ok = 18.8 <= q_star <= 22.8

    # 1b: first loss in [5,8] s; the loss-based window halves to about 40.
    tcp_drops = [t for t, fid, _ in drops if fid == tcp_id]
    first_tcp_drop = tcp_drops[0] if tcp_drops else None
    halvings = tr.halvings[tcp_id]
    halve_to = halvings[0][1] if halvings else None
    ok_1b = (
        first_tcp_drop is not None
        and 5 * S <= first_tcp_drop <= 8 * S
        and halve_to is not None
        and 32.0 <= halve_to <= 48.0
    )

    # 1c: fairness over the full run.
    f = fig2a.metrics.fairness

    # 1d: how much the delay-based flow lifts utilization beyond the
    # loss-based flow's own share of the same run (relative percent), with the
    # solo run reported for context.
    eta_total = fig2a.metrics.eta_percent
    eta_tcp_share = 100.0 * fig2a.metrics.flow_rates_bps[tcp_id] / tr.capacity_bps
    gain = 100.0 * (eta_total - eta_tcp_share) / eta_tcp_share
    return {
        "1a": (f"queue={q_star} pkts at t={ts[i_star] / S:.2f} s "
               f"(window {cw[i_star]:.1f} of peak {peak:.1f})",
               at_plateau and q_ok),
        "1b": (f"first drop at t={first_tcp_drop / S:.2f} s, halved to {halve_to:.1f} pkts"
               if first_tcp_drop is not None and halve_to is not None else "no drop/halving seen",
               ok_1b),
        "1c": (f"F={f:.3f}", 0.58 <= f <= 0.72),
        "1d": (f"total {eta_total:.1f}% vs loss-based share {eta_tcp_share:.1f}% "
               f"-> +{gain:.1f}% relative (solo loss-based run: {tcp_alone.metrics.eta_percent:.1f}%)",
               10.0 <= gain <= 22.0),
    }


def _criterion_2(fig2b: RunResult, fig2a: RunResult):
    f = fig2b.metrics.fairness
    d_eta = abs(fig2b.metrics.eta_percent - fig2a.metrics.eta_percent)
    return {
        "2-fairness": (f"F={f:.4f}", f > 0.99),
        "2-utilization": (f"|delta eta|={d_eta:.2f} points", d_eta <= 2.0),
    }


def _criterion_3(fig3mid: RunResult):
    tr = fig3mid.trace
    resync_drops = [t for t, _, _ in tr.drops if 20 * S <= t <= 30 * S]
    f = compute_report(tr, (30 * S, 300 * S)).fairness
    return {"3": (f"{len(resync_drops)} drops in [20,30] s; F[30,300]={f:.3f}",
                  bool(resync_drops) and f > 0.8)}


def _criterion_4(fig3bot: RunResult):
    tr = fig3bot.trace
    early_drops = [t for t, _, _ in tr.drops if t < 120 * S]
    first_flow_eps = [e for e in detect_starvation(tr) if e.flow_id == 0]
    ep_ok = any(
        10 * S <= e.t0_us <= 40 * S and 110 * S <= e.t1_us <= 140 * S
        for e in first_flow_eps
    )
    ep_txt = ", ".join(
        f"[{e.t0_us / S:.0f},{e.t1_us / S:.0f}] s" for e in first_flow_eps
    ) or "none"
    return {"4": (f"{len(early_drops)} drops before 120 s; first-flow starvation {ep_txt}",
                  not early_drops and ep_ok)}


def _criterion_5(by_name):
    def f_txt(s):
        return f"F={s.fairness[0]:.3f} (std {s.fairness[1]:.3f}, {s.runs} runs)"

    noss = by_name["table1-ll-c10-b50-dt10-noss"]
    ss = by_name["table1-ll-c10-b50-dt10-ss"]
    adsl = by_name["table1-tl-c2-b10-dt2-noss"]
    ss_losses = {
        name: by_name[name].loss[0]
        for name in ("table1-ll-c10-b50-dt10-ss", "table1-ll-c2-b10-dt2-ss")
    }
    worst = max(ss_losses, key=ss_losses.get)
    return {
        "5a": (f_txt(noss), 0.45 <= noss.fairness[0] <= 0.61),
        "5b": (f_txt(ss), ss.fairness[0] >= 0.97),
        "5c": (f"eta={adsl.eta[0]:.1f}%, F={adsl.fairness[0]:.3f} ({adsl.runs} runs)",
               adsl.eta[0] >= 96.0 and 0.52 <= adsl.fairness[0] <= 0.68),
        "5d": (f"worst mean L={ss_losses[worst]:.2e} ({worst})", ss_losses[worst] <= 5e-3),
    }


def _pooled_facts(facts):
    """6a, 6d, 6f, 6g: exact properties pooled over every figure and grid run."""
    max_ratio = max(f.max_update_ratio for f in facts)
    conservation = all(f.conservation_ok for f in facts)
    min_cwnd = min(f.min_sampled_cwnd for f in facts)
    gaps = all(f.halving_gaps_ok for f in facts)
    return {
        "6a": (f"max update ratio {max_ratio!r} pkts", max_ratio <= 1.0),
        "6d": ("held everywhere" if conservation else "violated", conservation),
        "6f": (f"min sampled window {min_cwnd}", min_cwnd >= 1.0),
        "6g": ("all gaps >= gate" if gaps else "gap shorter than the RTT gate seen", gaps),
    }


def law_divergence(a: TraceSet, b: TraceSet) -> list[str]:
    """The series of the window law on which traces `a` and `b` differ."""
    return [name for name in ("cwnd_pkts", "queue_pkts", "halvings", "drops")
            if getattr(a, name) != getattr(b, name)]


def offset_divergence(scn: Scenario, trace: TraceSet, moves: list[int]) -> list[str]:
    """Rerun `scn`, whose run left `trace`, with flow i's clock offset moved by
    `moves[i]`, and name what changed: the law's series or the queuing
    estimates, and `base_delay_us` unless each delay-based flow's base series
    starts at the same tick and moves by exactly its flow's move. Empty when
    the offsets cancel out (6b)."""
    b = run_scenario(replace(scn, flows=[replace(f, clock_offset_us=f.clock_offset_us + move)
                                         for f, move in zip(scn.flows, moves)])).trace
    bad = law_divergence(trace, b)
    if b.queuing_est_us != trace.queuing_est_us:
        bad.append("queuing_est_us")
    if not all(b.first_tick(b.base_delay_us[fid]) == trace.first_tick(base)
               and list(b.base_delay_us[fid]) == [d + moves[fid] for d in base]
               for fid, base in trace.base_delay_us.items()):
        bad.append("base_delay_us")
    return bad


def pinned_and_loss_based(scn: Scenario) -> tuple[Scenario, Scenario]:
    """Two copies of `scn` with every flow's slow start off: in one, each
    delay-based flow pins its estimator to zero, unpaced at the default gain;
    in the other, every flow is loss-based. 6c holds when their runs show no
    `law_divergence`."""
    flows = [replace(f, slow_start=False) for f in scn.flows]
    pinned = [replace(f, pin_zero_queuing_delay=True, pacing=False, gain=None)
              if f.kind == "ledbat" else f for f in flows]
    return replace(scn, flows=pinned), replace(scn, flows=[replace(f, kind="tcp") for f in flows])


def _criterion_6b():
    scn = replace(get_preset("fig2b"), duration_s=70.0)
    trace = run_scenario(scn).trace
    bad = [off for off in (S, -S, 3_600 * S, -3_600 * S)
           if offset_divergence(scn, trace, [0, off])]
    return {"6b": ("all offset runs identical" if not bad else f"divergence at offsets {bad}",
                   not bad)}


def _criterion_6c():
    scn = Scenario(name="degen", capacity_bps=10_000_000, buffer_pkts=40, duration_s=80.0,
                   flows=[FlowSpec(kind="ledbat")])
    same = not law_divergence(*(run_scenario(s).trace for s in pinned_and_loss_based(scn)))
    return {"6c": ("window trajectories bit-identical" if same else "trajectories diverge", same)}


def _criterion_6e(seed: int):
    rng = random.Random(seed)
    worst_rel = 0.0
    bounds_ok = True
    for _ in range(10_000):
        n = rng.randint(1, 8)
        x = [rng.uniform(0.0, 100.0) for _ in range(n)]
        if rng.random() < 0.2:
            x[rng.randrange(n)] = 0.0
        if not any(x):
            x[0] = 1.0
        f = jain_fairness(x)
        if not (1.0 / n - 1e-12 <= f <= 1.0 + 1e-12):
            bounds_ok = False
        k = rng.uniform(1e-6, 1e6)
        rel = abs(jain_fairness([k * v for v in x]) - f) / f
        worst_rel = max(worst_rel, rel)
    return {"6e": (f"bounds {'ok' if bounds_ok else 'violated'}, "
                   f"worst relative drift {worst_rel:.2e}",
                   bounds_ok and worst_rel <= 1e-12)}


def _criterion_7():
    from . import cli
    scenario_text = (
        "ledbatsim-scenario v1\n"
        "name = determinism-probe\n"
        "capacity_mbps = 10\n"
        "buffer_pkts = 40\n"
        "duration_s = 40\n"
        "seed = 123\n"
        "delta_t_mode = uniform\n"
        "[flow]\n"
        "kind = tcp\n"
        "[flow]\n"
        "kind = ledbat\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scn_path = tmp / "probe.scn"
        scn_path.write_text(scenario_text, encoding="utf-8")
        outs = []
        for sub in ("a", "b"):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([
                    "run", "--scenario", str(scn_path), "--out", str(tmp / sub),
                ])
            if rc != 0:
                return {"7": (f"run exited {rc}", False)}
            outs.append({
                p.name: p.read_bytes() for p in sorted((tmp / sub).iterdir())
            })
        same = outs[0] == outs[1]
    return {"7": ("trace and summary bytes identical" if same else "output bytes differ", same)}


def run_acceptance(table_runs: int = 20, seed: int = 7, jobs: int = 1) -> list[CriterionResult]:
    """Run every acceptance criterion; returns one result per criterion id, in
    CRITERIA order."""
    presets = ("fig2a", "tcp-alone-hs-b40", "fig2b", "fig3-mid", "fig3-bottom")
    runs = {p: run_scenario(replace(get_preset(p), seed=seed)) for p in presets}
    # the four grid cells of criterion 5 (the first substring selects two)
    cells = ["ll-c10-b50-dt10", "tl-c2-b10-dt2-noss", "ll-c2-b10-dt2-ss"]
    summaries, table_facts = run_table1(table_runs, seed, jobs=jobs, cells=cells)
    facts = [extract_check_facts(r) for r in runs.values()] + table_facts
    got = {
        **_criterion_1(runs["fig2a"], runs["tcp-alone-hs-b40"]),
        **_criterion_2(runs["fig2b"], runs["fig2a"]),
        **_criterion_3(runs["fig3-mid"]),
        **_criterion_4(runs["fig3-bottom"]),
        **_criterion_5({s.name: s for s in summaries}),
        **_pooled_facts(facts),
        **_criterion_6b(),
        **_criterion_6c(),
        **_criterion_6e(seed),
        **_criterion_7(),
    }
    return [CriterionResult(cid, description, got[cid][0], expected, got[cid][1])
            for cid, (description, expected) in CRITERIA.items()]
