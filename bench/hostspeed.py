"""How fast the host runs Python right now, measured between cells.

The benchmark runs on shared hosts whose speed swings by up to 2x over
seconds to minutes, while nothing else runs in the benchmark's own
machine: the slowdown comes from hardware the host shares. It hits
every process alike, so no choice of cells or repetitions averages it
out. :class:`HostSpeed` times a fixed reference kernel, about a
millisecond of the interpreter work a simulation does (a heap of
events, generator resumptions, small objects, dict updates), before the
first cell and after each one. A cell's wall time is then scaled to the
host speed at which the kernel takes :data:`REFERENCE_KERNEL_S`::

    scaled wall = wall x REFERENCE_KERNEL_S / (kernel time around the cell)

A change to the program moves the cell's wall and not the kernel, so it
shows in full; a slow period of the host moves both, and cancels. The
kernel slows somewhat more than the program does, so on a host twice as
slow as the reference the scaled times read up to about 8% low.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: the reference kernel's time on a quiet 2-CPU Xeon host, in seconds.
#: It only sets the unit: scaled times are host seconds at that speed.
REFERENCE_KERNEL_S = 0.0013
#: kernel runs per measurement; the measurement is their median.
RUNS = 5


class _Event:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _process(steps: int, sink: List[int]):
    total = 0
    for _ in range(steps):
        total += yield
    sink.append(total)


def kernel() -> int:
    """A fixed, deterministic slice of simulation-like interpreter work."""
    queue: list = []
    sink: List[int] = []
    procs = [_process(50, sink) for _ in range(40)]
    for p in procs:
        next(p)
    tally: dict = {}
    for seq in range(1500):
        heapq.heappush(queue, (seq * 7 % 101, seq, _Event(seq % 37, seq)))
        if len(queue) > 64:
            _, s, ev = heapq.heappop(queue)
            tally[ev.key] = tally.get(ev.key, 0) + ev.value
            try:
                procs[s % 40].send(1)
            except StopIteration:
                procs[s % 40] = p = _process(50, sink)
                next(p)
    return len(tally) + len(sink)


class HostSpeed:
    """The reference kernel's time at each measurement of one process."""

    def __init__(self) -> None:
        #: kernel seconds, one entry per :meth:`measure`.
        self.samples: List[float] = []
        #: wall seconds spent measuring, to take out of timed intervals.
        self.spent = 0.0

    def measure(self) -> float:
        """Time the kernel now; returns and records its median time."""
        t0 = time.perf_counter()
        runs = []
        for _ in range(RUNS):
            k0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - k0)
        self.samples.append(statistics.median(runs))
        self.spent += time.perf_counter() - t0
        return self.samples[-1]


def scale(kernel_s: float) -> float:
    """The factor that takes a host time measured while the kernel took
    ``kernel_s`` to the reference speed."""
    return REFERENCE_KERNEL_S / kernel_s
