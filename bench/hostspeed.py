"""The host's speed, sampled during a pass, and a warm-up before it.

The speed of a shared host drifts: on a 2-vCPU Intel Xeon virtual machine,
by up to 2x over tens of seconds, so two passes of the same code can differ
that much in host time. `HostSpeed` times a fixed piece of CPU-bound
reference work, like the event loop's, in the pass's own thread between
slices of the event loop; the timed passes divide their host times by it
(see run.py's at_nominal_speed). Run as a script, this module warms the host
up (`warm_up`) before a pass.
"""

import gc
import heapq
import os
import time

WARM_UP_S = 1.0


class _Item:
    __slots__ = ("key", "size")

    def __init__(self, key, size):
        self.key = key
        self.size = size


def reference_work(n=150):
    """A fixed sample of what the event loop does: heap pushes and pops of
    tuples holding small slotted objects, and dict updates."""
    heap = []
    totals = {}
    acc = 0
    for i in range(n):
        item = _Item(i & 63, i * 3)
        heapq.heappush(heap, ((i * 7919) % 10007, i, item))
        totals[item.key] = totals.get(item.key, 0) + item.size
        if len(heap) > 40:
            acc += heapq.heappop(heap)[2].size
    return acc


def sample() -> float:
    """Thread CPU seconds of one reference_work.

    Thread time leaves out the time the thread waits for a CPU, and the
    collector is held off so that no collection of the program's objects
    lands in the sample.
    """
    gc.disable()
    try:
        t0 = time.thread_time()
        reference_work()
        return time.thread_time() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Samples after every `slice_us` of simulated time of every event loop.

    `install` makes `Engine.run` run in slices of `slice_us`: `run(until)`
    dispatches every event due by `until` in the same order however it is
    split, so the run is unchanged. Each process that runs an event loop (the
    pass, or each of its pool workers) writes its samples so far, one a line,
    to `<log_dir>/<pid>` whenever a loop ends.
    """

    def __init__(self, log_dir, slice_us):
        self.log_dir = log_dir
        self.slice_us = slice_us
        self.samples = []

    def install(self, engine_cls):
        run = vars(engine_cls)["run"]

        def sliced(eng, until):
            t = eng.now
            while True:
                t = min(t + self.slice_us, until)
                summary = run(eng, t)
                self.samples.append(sample())
                if t >= until:
                    break
            (self.log_dir / str(os.getpid())).write_text(
                "".join(f"{x!r}\n" for x in self.samples))
            return summary

        engine_cls.run = sliced

    def totals(self):
        """(samples of every process, number of processes that sampled)."""
        paths = list(self.log_dir.iterdir())
        samples = [float(x) for p in paths for x in p.read_text().split()]
        return samples, len(paths)


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def warm_up() -> None:
    """Keep every CPU busy for WARM_UP_S.

    A fresh interpreter's set-up runs about 1.6x faster on a host whose CPUs
    were all busy a moment before than on one where they idled (2-vCPU Intel
    Xeon virtual machine; the state decays within a minute). A warm-up before
    every pass puts set-up in the same state each time.
    """
    import multiprocessing  # here, so that a pass importing this module does not load it

    ctx = multiprocessing.get_context("spawn")
    spinners = [ctx.Process(target=spin, args=(WARM_UP_S,))
                for _ in range((os.cpu_count() or 1) - 1)]
    for p in spinners:
        p.start()
    spin(WARM_UP_S)
    for p in spinners:
        p.join()


if __name__ == "__main__":
    warm_up()
