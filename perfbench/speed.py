"""Machine-speed reference for timing on a shared, noisy host.

On a host whose cores are shared with other tenants, the same pure-Python
work can take twice as long for stretches of several seconds. A run's
median then depends on how much of its window fell in a slow stretch, not
on rvsim. So the benchmark times a fixed pure-Python kernel (BFS over a
fixed list-of-lists graph, generator round trips, tuple-keyed dict updates:
the operations rvsim spends its time on) between timed calls, and scales
each call's time by ``NOMINAL_KERNEL_S / kernel time`` measured around it.
The kernel never calls rvsim, so a change to rvsim moves the scaled time
exactly as it moves the raw time. The raw times are kept in the metadata.
"""

from __future__ import annotations

from collections import deque
from statistics import median
from time import perf_counter

# the kernel's median-of-5 time on an Intel Xeon host with 2 shared vCPUs,
# CPython 3.11, in a stretch when nothing else slowed it; scaled times are
# seconds at that speed
NOMINAL_KERNEL_S = 0.00065
REPEATS = 5
INTERVAL_S = 0.2  # sample at most this often between calls

_N = 600
_ADJ = [[(v + d) % _N for d in (1, 5, 29, _N - 1, _N - 5, _N - 29)] for v in range(_N)]


def _echo():
    x = yield
    while True:
        x = yield (x, x + 1)


def kernel() -> int:
    dist = [-1] * _N
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for w in _ADJ[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
    memo: dict[tuple[int, int], int] = {}
    gen = _echo()
    next(gen)
    for i in range(1500):
        a, b = gen.send(i)
        memo[(a % 97, b % 89)] = memo.get((a % 89, b % 97), 0) + dist[i % _N]
    return len(memo)


class Speedometer:
    """Kernel samples taken between timed calls, and the scale factor for a
    call from the samples on either side of it."""

    def __init__(self):
        self.samples: list[float] = []  # median kernel seconds, in time order
        self._last = float("-inf")

    def sample(self) -> int:
        """Take a sample now; returns its index."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        self.samples.append(median(times))
        self._last = perf_counter()
        return len(self.samples) - 1

    def maybe_sample(self) -> int:
        """Sample if the last one is older than INTERVAL_S; returns the index
        of the latest sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Scale factor for a call made between sample ``before`` and the
        next sample: from the median of those two and one more on each side,
        so one sample taken in a short stall cannot skew it."""
        return NOMINAL_KERNEL_S / median(self.samples[max(0, before - 1):before + 3])
