"""Machine-speed probe, so that load from other tenants of a shared host
does not read as a change of the program.

Every 10 ms a SIGALRM handler runs a small fixed kernel (a pruned
depth-first walk over list-indexed tables, tuple building, dict updates,
integer and Fraction arithmetic: the mix the program's own loops use) and records how long it took; between operations the caller
may take a sample at once with ``sample``, so that short operations have
one close by.  An interval of program time is then
reported at reference speed: its length minus the probe's own time, times
REFERENCE_KERNEL_S over the mean kernel time seen in that interval (or,
for an interval too short to hold a sample, in the samples on either
side).  On an unloaded host the kernel takes about REFERENCE_KERNEL_S, so
normalised figures read close to wall-clock ones.
"""

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
REFERENCE_KERNEL_S = 0.0004


_GRAPH = [[(j * 7 + t * 5) % 32 for t in range(6)] for j in range(32)]


def _walk(depth: int, node: int) -> int:
    if depth == 0:
        return 1
    total = 0
    row = _GRAPH[node]
    for t in range(6):
        nxt = row[t]
        if nxt % 3:
            total += _walk(depth - 1, nxt)
    return total


def kernel() -> Fraction:
    table: dict = {}
    acc = _walk(4, 1)
    for i in range(800):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    x = Fraction(acc)
    for i in range(1, 60):
        x += Fraction(i, i + 1) * 3
    return x


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def sample(self, max_age: float = 0.0) -> None:
        """Take a sample now unless the last one is younger than max_age."""
        if self.starts and perf_counter() - self.starts[-1] < max_age:
            return
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick(None, None)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(probe time inside [t0, t1], mean kernel time around it)."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        near = inside or self.durations[max(0, lo - 1):lo + 1]
        return sum(inside), (sum(near) / len(near) if near else REFERENCE_KERNEL_S)

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds of program time in [t0, t1], at reference speed."""
        probe_time, kernel_s = self.window(t0, t1)
        return (t1 - t0 - probe_time) * REFERENCE_KERNEL_S / kernel_s
