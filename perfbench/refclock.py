"""Reference clock: the cost of a piece of work in reference seconds, a unit
that stays steady while the speed of a shared CPU swings.

On a host whose CPUs are shared with other tenants, the speed a process gets
swings by up to 2x within seconds and drifts by 20-40% over minutes, and its
CPU time swings with its wall time, so neither is a steady measure of the
work done.  A reference loop, a fixed mix of Python bytecode and small numpy
calls like the per-step loops of hmmrisk, runs in a child process at low
priority on the same CPU as the benchmark.  The scheduler interleaves the
two every few milliseconds, so both see the same speed.  The cost of a piece
of work is its CPU time times the loop's speed over the same interval (loop
chunks per CPU second of the loop), divided by ``NOMINAL_RATE``: the CPU
time the work would take at the loop's nominal speed.

Use it as a context manager.  On entry it pins the calling process, and so
every child it starts, to one CPU and starts the loop there; on exit it stops
the loop, waits for it, and restores the affinity.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time

CHUNK_STEPS = 200  # loop steps per chunk, about 1 ms at full speed
NOMINAL_RATE = 1000.0  # loop chunks per CPU second that define one reference second
MIN_CHUNKS = 20  # fewest loop chunks a speed estimate may rest on
LOOP_NICE = 10  # the loop takes about a tenth of the CPU


def _loop(shared, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(LOOP_NICE)
    import numpy as np

    matrix, vector = np.full((8, 8), 1.0 / 8), np.full(8, 1.0 / 8)
    chunks = 0
    while True:
        for _ in range(CHUNK_STEPS):
            vector = matrix @ vector
            vector = vector / vector.sum()
        chunks += 1
        with shared.get_lock():
            shared[0], shared[1] = chunks, time.process_time()


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class ReferenceClock:
    def __init__(self):
        self._affinity = os.sched_getaffinity(0)
        self.cpu = min(self._affinity)
        context = multiprocessing.get_context("fork")
        self._shared = context.Array("d", 2)
        self._loop = context.Process(target=_loop, args=(self._shared, self.cpu), daemon=True)
        self._readings: list[tuple[float, float]] = []  # (loop chunks, loop CPU seconds)

    def __enter__(self) -> "ReferenceClock":
        os.sched_setaffinity(0, {self.cpu})
        self._loop.start()
        while self._read()[0] < MIN_CHUNKS:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._loop.terminate()
        self._loop.join()
        os.sched_setaffinity(0, self._affinity)

    def _read(self) -> tuple[float, float]:
        with self._shared.get_lock():
            reading = (self._shared[0], self._shared[1])
        self._readings.append(reading)
        return reading

    def measure(self, fn, *args, children: bool = False):
        """Run ``fn(*args)``; return its value, its cost in reference seconds
        and its wall time.  The CPU time is this process's, or with
        ``children`` that of the child processes it waited for."""
        who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        first = len(self._readings)
        self._read()
        cpu, wall = _cpu_seconds(who), time.perf_counter()
        value = fn(*args)
        cpu, wall = _cpu_seconds(who) - cpu, time.perf_counter() - wall
        end = self._read()
        # A short call may see few loop chunks; then the estimate reaches back
        # over earlier readings until it rests on MIN_CHUNKS.
        while first > 0 and end[0] - self._readings[first][0] < MIN_CHUNKS:
            first -= 1
        start = self._readings[first]
        rate = (end[0] - start[0]) / (end[1] - start[1])
        return value, cpu * rate / NOMINAL_RATE, wall
