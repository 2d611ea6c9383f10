"""How fast this machine runs pure-Python code while a region is timed.

On a shared machine the speed of the same process moves by up to a third
within seconds, with no CPU time stolen, so a pass's wall time alone says
more about the neighbours than about kernelkit.  Timing a fixed workload
before and after a pass does not help: the speed moves within the pass.  So
`SpeedProbe` samples it throughout: every `interval` seconds SIGALRM
interrupts the timed region and times a probe, a fixed workload shaped like
kernelkit's (two digraphs on 12 vertices: adjacency lists, breadth-first
distances, a backtracking independent-set search).  `rescaled` is the
region's time, less the probes', at the reference speed of
`REFERENCE_PROBE_S` per probe.  The probe never changes, so a rescaled time
moves only when the measured code does.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds one probe took on a 2-vCPU Linux VM with Python 3.11.7 in a calm
# period.  Rescaled times read as seconds on that machine.
REFERENCE_PROBE_S = 0.0004

PROBE_DIGRAPHS = 2
_MASK = (1 << 64) - 1


def _digraph(state: int) -> int:
    """One digraph on 12 vertices: build it, take its distance matrix, and
    search for a set of vertices pairwise at distance >= 3 that reaches
    every other vertex within 2 steps.  Returns the generator's new state."""
    n = 12
    adjacency = [[] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
            if u != v and (state >> 33) % 100 < 22:
                adjacency[u].append(v)
    distance = []
    for source in range(n):
        row = [None] * n
        row[source] = 0
        queue = [source]
        for u in queue:
            for w in adjacency[u]:
                if row[w] is None:
                    row[w] = row[u] + 1
                    queue.append(w)
        distance.append(tuple(row))
    members: list[int] = []

    def absorbed(u: int) -> bool:
        return u in members or any(distance[u][v] is not None and distance[u][v] <= 2 for v in members)

    def independent(v: int) -> bool:
        return all(
            (distance[u][v] is None or distance[u][v] >= 3) and (distance[v][u] is None or distance[v][u] >= 3)
            for u in members
        )

    def search(start: int) -> bool:
        if all(absorbed(u) for u in range(n)):
            return True
        for v in range(start, n):
            if independent(v):
                members.append(v)
                if search(v + 1):
                    return True
                members.pop()
        return False

    search(0)
    return state


class SpeedProbe:
    """Context manager around a timed region of the main thread."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.elapsed = 0.0

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        state = 12345
        for _ in range(PROBE_DIGRAPHS):
            state = _digraph(state)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._probe()  # the first probe of a process runs cold
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = wall - sum(self.samples)
        if not self.samples:
            self._probe()

    @property
    def probe_s(self) -> float:
        """Mean seconds per probe over the region."""
        return statistics.fmean(self.samples)


def rescaled(seconds: float, probe_s: float) -> float:
    """A time measured while probes took `probe_s` seconds each, at the
    reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s
