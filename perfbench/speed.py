"""Wall time rescaled to a reference speed.

The benchmark runs on shared hosts whose speed drifts: on a 2-CPU box one
cluster start-up, the same work every time, took 0.76-1.41 s (quartile
distance 0.3-0.4 of the median) within a few minutes, because the host's
other tenants slow every CPU for stretches of a few milliseconds to
minutes. Raw wall times then measure the host, not the program.

So while a measured phase runs, :class:`Meter` interrupts the program every
:data:`TICK_S` (a ``SIGALRM`` interval timer) and runs a *probe*: a fixed
piece of pure Python work that shares no code with the program. The
program time between two probes is a *segment*; its speed is taken from
the probes around it, and its time is rescaled to what it would have been
at the speed where one probe takes :data:`NOMINAL_S`::

    rescaled = program_time * NOMINAL_S / local_probe

A faster program shortens ``program_time`` and leaves the probes alone, so
gains still show; a slower host lengthens both, and the ratio cancels it.
The meter's clock stops while a probe runs, so probes are never counted as
program time. On that box, rescaling brought the start-up's spread from
0.31-0.42 down to 0.03, at a cost of ~5% more wall time per run.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from typing import Callable, List, Sequence

#: Seconds one probe takes at the reference speed: about the probe's time
#: in the fast phases of a 2-CPU x86-64 (Xeon, 2.0 GHz) box under CPython
#: 3. Rescaled times read as seconds on that box at its fastest.
NOMINAL_S = 60e-6

#: Work items per probe (sets its length, about NOMINAL_S).
PROBE_ROUNDS = 50

#: Seconds of wall time between probes.
TICK_S = 0.002


class _Item:
    __slots__ = ("src", "dst", "tag", "n")

    def __init__(self, src: int, dst: int, tag: str, n: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.n = n


def probe_work(rounds: int = PROBE_ROUNDS) -> int:
    """A fixed mix of what an event loop does: allocate small objects,
    push and pop a heap, update dicts, format short strings."""
    heap: list = []
    table: dict = {}
    for i in range(rounds):
        item = _Item(i & 63, (i * 7) & 63, "t%d" % (i & 7), i)
        heapq.heappush(heap, ((i * 2654435761) % 1000003, i, item))
        table[item.dst] = table.get(item.dst, 0) + item.n
        if len(heap) > 32:
            _, _, old = heapq.heappop(heap)
            table.setdefault(old.tag, []).append(old.src)
    return len(table)


def probe() -> float:
    """Seconds one probe takes now."""
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


def segment_scales(probes: Sequence[float]) -> List[float]:
    """Rescaled seconds per program second of each segment between two
    consecutive probes, from the median of the two probes before it and
    the two after it (so one disturbed probe cannot set it)."""
    return [NOMINAL_S / statistics.median(probes[max(0, j - 1):j + 3])
            for j in range(len(probes) - 1)]


class Meter:
    """Probes host speed while a phase runs, and rescales its times.

    Use as a context manager around the phase; read times inside it from
    :meth:`now` (wall) and :meth:`cpu` (process CPU), which both stop while
    a probe runs. After the block, :meth:`rescale` turns any interval read
    from :meth:`now` into seconds at reference speed.
    """

    def __init__(self, probe: Callable[[], float] = probe, tick: float = TICK_S):
        self.probe = probe
        self.tick = tick
        #: program time at which each probe ran, and its duration
        self.marks: List[float] = []
        self.probes: List[float] = []
        self.scales: List[float] = []
        self._stolen = 0.0
        self._stolen_cpu = 0.0
        self._busy = False
        self._previous = None

    def now(self) -> float:
        """Program wall time: perf_counter minus the time spent probing."""
        return time.perf_counter() - self._stolen

    def cpu(self) -> float:
        """Program CPU time: process time minus the probes' CPU time."""
        return time.process_time() - self._stolen_cpu

    def _sample(self, *_) -> None:
        if self._busy:  # an alarm that lands inside a probe
            return
        self._busy = True
        start, cpu0 = time.perf_counter(), time.process_time()
        self.marks.append(start - self._stolen)
        self.probes.append(self.probe())
        self._stolen += time.perf_counter() - start
        self._stolen_cpu += time.process_time() - cpu0
        self._busy = False

    def __enter__(self) -> "Meter":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.scales = segment_scales(self.probes)

    def rescale(self, start: float, end: float) -> float:
        """Seconds at reference speed of the program-time interval
        ``[start, end]``, which must lie inside the metered block."""
        marks, scales = self.marks, self.scales
        total = 0.0
        j = max(0, bisect.bisect_right(marks, start) - 1)
        while j < len(scales) and marks[j] < end:
            overlap = min(end, marks[j + 1]) - max(start, marks[j])
            if overlap > 0:
                total += overlap * scales[j]
            j += 1
        return total
