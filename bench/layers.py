"""Probes that time ledbatsim's layers from outside the program.

Each probe replaces a name where its caller looks it up (for example
`cli.run_scenario`, which `cmd_run` calls, and `harness.run_scenario`, which
the batch worker calls) with a wrapper that records into this process's
memory. Nothing under `src/` knows about them.

`RunProbe` wraps only calls made once per simulation run, so it is cheap
enough for the timed passes. `Spans` wraps every per-packet entry point and
aggregates count, total time and self time per span name (a span's duration
minus the time of the wrapped spans it contains); it is for the separate
traced pass, whose timings are inflated by the wrappers themselves.
"""

import os
import time

from ledbatsim import cli, engine, harness, ledbat, network, tcp, transport

clock = time.perf_counter


class MissingTarget(Exception):
    """A name the probes wrap is no longer where they look it up."""


def _replace(owner, attr, make_wrapper):
    # only the owner's own attribute counts: an inherited one would be
    # wrapped for every sibling class too
    if attr not in vars(owner):
        raise MissingTarget(f"{getattr(owner, '__name__', owner)}.{attr}")
    setattr(owner, attr, make_wrapper(vars(owner)[attr]))


class RunProbe:
    """Once-per-run timings for the timed passes.

    setup_end: first entry into the event loop or the batch runner, whichever
    comes first. sim_s / sim_host_s: simulated seconds advanced, and host
    seconds spent, inside `run_scenario` (`run_table1` for the grid).
    """

    def __init__(self):
        self.setup_end = None
        self.sim_s = 0.0
        self.sim_host_s = 0.0
        self.conservation_ok = True

    def install(self):
        def mark_setup(fn):
            def wrapper(*args, **kwargs):
                if self.setup_end is None:
                    self.setup_end = clock()
                return fn(*args, **kwargs)
            return wrapper

        def timed_run(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                self.sim_host_s += clock() - t0
                self.sim_s += result.scenario.duration_s
                self.conservation_ok &= result.trace.conservation_ok
                return result
            return wrapper

        def timed_table(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                summaries, facts = fn(*args, **kwargs)
                self.sim_host_s += clock() - t0
                duration = {c.name: c.duration_s for c in harness.table1_cells()}
                self.sim_s += sum(c.runs * duration[c.name] for c in summaries)
                self.conservation_ok &= all(f.conservation_ok for f in facts)
                return summaries, facts
            return wrapper

        _replace(engine.Engine, "run", mark_setup)
        _replace(harness, "_run_batch", mark_setup)
        _replace(cli, "run_scenario", timed_run)
        _replace(cli, "run_table1", timed_table)


class Spans:
    """Per-name span aggregates plus the exact counters the layers expose."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self._open = [0.0]  # wrapped-child time of each open span
        self.pending = 0  # schedules minus dispatches of the current run
        self.pending_hwm = 0
        self.dropped = 0
        self.packets = 0
        self.pacing_useful = 0
        self.trace_bytes = 0
        self.retransmits = 0
        self.timeouts = 0
        self.setup_s = 0.0
        self._run_entered = None

    def wrap(self, name, fn, pre=None, post=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        def span(*args, **kwargs):
            if pre is not None:
                pre(args)
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_spans.pop()
                open_spans[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - inner
            if post is not None:
                post(args, result)
            return result

        return span

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    # -- hooks with side counters -------------------------------------------

    def _scheduled(self, _args):
        self.pending += 1
        if self.pending > self.pending_hwm:
            self.pending_hwm = self.pending

    def _dispatched(self, _args):
        self.pending -= 1

    def _run_entry(self, _args):
        self.pending = 0
        self._run_entered = clock()

    def _run_done(self, _args, result):
        for fs in result.flow_stats:
            self.retransmits += fs.retransmits
            self.timeouts += len(fs.timeouts)

    def _loop_entry(self, _args):
        if self._run_entered is not None:
            self.setup_s += clock() - self._run_entered
            self._run_entered = None

    def _enqueued(self, _args, accepted):
        if not accepted:
            self.dropped += 1

    def _trace_written(self, args, _result):
        self.trace_bytes += os.path.getsize(args[1])

    def install(self):
        w = self.wrap

        def handler_span(register):
            def wrapper(eng, kind, handler):
                name = "handler." + kind.name.lower()
                return register(eng, kind, w(name, handler, pre=self._dispatched))
            return wrapper

        def counted_packet(packet_cls):
            def make(*args, **kwargs):
                self.packets += 1
                return packet_cls(*args, **kwargs)
            return make

        seq_before = []

        def pacing_pre(args):
            seq_before.append(args[0].next_seq)

        def pacing_post(args, _result):
            if args[0].next_seq > seq_before.pop():
                self.pacing_useful += 1

        targets = [
            (engine.Engine, "register", handler_span),
            (engine.Engine, "run", lambda f: w("engine.run", f, pre=self._loop_entry)),
            (engine.Engine, "schedule", lambda f: w("engine.schedule", f, pre=self._scheduled)),
            (network.Bottleneck, "enqueue", lambda f: w("network.enqueue", f, post=self._enqueued)),
            (network.AckPath, "send", lambda f: w("network.ack_send", f)),
            (transport, "Packet", counted_packet),
            (transport.SenderBase, "on_ack", lambda f: w("transport.on_ack", f)),
            (transport.SenderBase, "try_send", lambda f: w("transport.try_send", f)),
            (transport.SenderBase, "on_pacing_timer",
             lambda f: w("transport.pacing_timer", f, pre=pacing_pre, post=pacing_post)),
            (transport.SenderBase, "check_timeout", lambda f: w("transport.check_timeout", f)),
            (transport.Receiver, "on_data", lambda f: w("transport.on_data", f)),
            (ledbat.LedbatFlow, "on_delay_sample", lambda f: w("ledbat.delay_sample", f)),
            (ledbat.BaseDelayHistory, "update", lambda f: w("ledbat.history_update", f)),
            (ledbat.LedbatFlow, "on_new_ack", lambda f: w("ledbat.on_new_ack", f)),
            (ledbat.LedbatFlow, "pacing_gap_us", lambda f: w("ledbat.pacing_gap", f)),
            (tcp.TcpFlow, "on_new_ack", lambda f: w("tcp.on_new_ack", f)),
            (tcp.TcpFlow, "on_loss", lambda f: w("tcp.on_loss", f)),
            (harness, "compute_report", lambda f: w("metrics.compute_report", f)),
            (harness, "_run_batch", lambda f: w("harness.batch", f)),
            (cli, "run_table1", lambda f: w("harness.run_table1", f)),
            (cli, "write_trace_csv",
             lambda f: w("harness.write_trace", f, post=self._trace_written)),
            (cli, "write_summary_csv", lambda f: w("harness.write_summary", f)),
            (cli, "write_table_csv", lambda f: w("harness.write_table", f)),
        ]
        # cmd_run looks run_scenario up in cli, the batch worker in harness
        for owner in (cli, harness):
            targets.append((owner, "run_scenario", lambda f: w(
                "harness.run_scenario", f, pre=self._run_entry, post=self._run_done)))

        missing = []
        for owner, attr, make in targets:
            try:
                _replace(owner, attr, make)
            except MissingTarget as exc:
                missing.append(str(exc))
        return missing

    # -- results ---------------------------------------------------------------

    def events_by_kind(self):
        return {name[len("handler."):]: st[0]
                for name, st in sorted(self.stats.items()) if name.startswith("handler.")}

    def never_called(self):
        return sorted(name for name, st in self.stats.items() if st[0] == 0)

    def metrics(self):
        """Every per-layer metric but trace.overhead_frac, which needs an untraced pass."""
        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return self.stats.get(name, (0, 0.0, 0.0))[2]

        events = self.events_by_kind()
        total_events = sum(events.values())
        delivered = calls("handler.link_service_done")
        offered = calls("network.enqueue")
        wakeups = calls("transport.pacing_timer")

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "engine.events": total_events,
            "engine.events_per_pkt": ratio(total_events, delivered),
            "engine.schedule_calls": calls("engine.schedule"),
            "engine.pending_hwm": self.pending_hwm,
            "engine.self_s": self_s("engine.run"),
            "engine.schedule_s": self_s("engine.schedule"),
            "network.enqueue_calls": offered,
            "network.enqueue_s": self_s("network.enqueue"),
            "network.service_s": self_s("handler.link_service_done"),
            "network.ack_send_s": self_s("network.ack_send"),
            "network.delivered": delivered,
            "network.dropped": self.dropped,
            "network.delivered_frac": ratio(delivered, offered),
            "network.pkt_objects_per_pkt": ratio(self.packets, delivered),
            "transport.on_ack_calls": calls("transport.on_ack"),
            "transport.on_ack_s": self_s("transport.on_ack"),
            "transport.try_send_calls": calls("transport.try_send"),
            "transport.try_send_s": self_s("transport.try_send"),
            "transport.on_data_s": self_s("transport.on_data"),
            "transport.check_timeout_s": self_s("transport.check_timeout"),
            "transport.pacing_wakeups": wakeups,
            "transport.pacing_useful_frac": ratio(self.pacing_useful, wakeups),
            "transport.retransmits": self.retransmits,
            "transport.timeouts": self.timeouts,
            "ledbat.delay_sample_s": self_s("ledbat.delay_sample"),
            "ledbat.history_update_s": self_s("ledbat.history_update"),
            "ledbat.on_new_ack_s": self_s("ledbat.on_new_ack"),
            "ledbat.pacing_gap_calls": calls("ledbat.pacing_gap"),
            "ledbat.pacing_gap_s": self_s("ledbat.pacing_gap"),
            "tcp.on_new_ack_s": self_s("tcp.on_new_ack"),
            "tcp.on_loss_calls": calls("tcp.on_loss"),
            "harness.setup_s": self.setup_s,
            "harness.sample_calls": calls("handler.stats_sample"),
            "harness.sample_s": self_s("handler.stats_sample"),
            "harness.write_trace_s": self_s("harness.write_trace"),
            "harness.trace_bytes": self.trace_bytes,
            "harness.write_summary_s": self_s("harness.write_summary"),
            "harness.run_scenario_s": self_s("harness.run_scenario"),
            "harness.batch_s": self_s("harness.batch"),
            "harness.write_table_s": self_s("harness.write_table"),
            "metrics.compute_report_s": self_s("metrics.compute_report"),
            "cli.self_s": self_s("cli.main"),
        }
        for kind in ("packet_arrival", "link_service_done", "pacing_timer", "stats_sample"):
            m[f"engine.events.{kind}"] = events.get(kind, 0)
        return m
