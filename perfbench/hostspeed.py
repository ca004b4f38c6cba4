"""Host-speed probe: how fast the host ran while an iteration ran.

The benchmark's host shares its cores with other tenants, and its speed
swings by up to 1.8x within a second and drifts for minutes (the guest
sees no steal time: it is contention inside the core, not descheduling).
A median over a run cannot remove a drift that lasts longer than the run.

:class:`HostSpeedProbe` samples the speed *during* an iteration: an
interval timer (``SIGALRM``) interrupts the program every
:data:`INTERVAL_S` and the handler times one fixed pure-Python spin,
about 0.1 ms, built from the operations the simulator itself spends its
time on (heap push/pop, generator resume, ``__slots__`` attribute and
dict updates).  It allocates no garbage-collected objects, so it never
triggers a collection whose cost would depend on the program's heap, and
it touches no simulated state.  :meth:`slowdown` is the mean spin time
over :data:`REFERENCE_NS`, and host times divided by it are in
reference-speed seconds.  The spin is part of the benchmark, so a change
to the program cannot change what it measures.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

__all__ = ["HostSpeedProbe", "INTERVAL_S", "REFERENCE_NS"]

#: Sampling period of the probe.
INTERVAL_S = 0.02
#: One spin's duration at the reference speed: roughly an uncontended
#: core of the 2.1 GHz Xeon the benchmark was written on.
REFERENCE_NS = 100_000
#: Loop trips in one spin.
_TRIPS = 150

_now = time.perf_counter_ns


class _Cell:
    __slots__ = ("owner", "version")

    def __init__(self) -> None:
        self.owner = -1
        self.version = 0


_CELLS = [_Cell() for _ in range(64)]
_HEAP: List[int] = []
_COUNTS = dict.fromkeys(range(32), 0)


def _resumer():
    x = 0
    while True:
        x = yield x + 1


_RESUMER = _resumer()
next(_RESUMER)


def spin() -> int:
    """One fixed unit of interpreter work; returns its duration in ns."""
    start = _now()
    heap, counts, resumer = _HEAP, _COUNTS, _RESUMER
    for i in range(_TRIPS):
        cell = _CELLS[(i * 7) & 63]
        if cell.owner != i & 3:
            cell.owner = i & 3
            cell.version += 1
        counts[i & 31] = (counts[i & 31] + cell.version) & 0xFFFF
        heapq.heappush(heap, i * 2654435761 & 1023)
        if len(heap) > 16:
            heapq.heappop(heap)
        resumer.send(i)
    return _now() - start


class HostSpeedProbe:
    """Samples :func:`spin` :data:`INTERVAL_S` after the previous sample
    between :meth:`start` and :meth:`stop`, plus once at each end so that
    even a sub-interval iteration has samples."""

    def __init__(self) -> None:
        #: ``(start_ns, duration_ns)`` of each timer-driven spin.
        self.samples: List[tuple] = []
        self._edges: List[int] = []
        self._previous = None
        self._running = False

    def _on_alarm(self, signum, frame) -> None:
        # The timer is one-shot and re-armed only after the spin, so a
        # handler that runs late can never be re-entered by the next tick
        # (the shared generator in spin() would raise into the program).
        start = _now()
        self.samples.append((start, spin()))
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._edges.append(spin())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        # Cleared first: a handler still pending must not re-arm a timer
        # whose signal would then meet the restored default (terminate).
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edges.append(spin())

    def slowdown(self) -> float:
        """Mean spin time over the reference: 1.0 at the reference
        speed, 1.5 when the host ran 1.5x slower."""
        durations = self._edges + [d for _, d in self.samples]
        return sum(durations) / len(durations) / REFERENCE_NS

    def spent_s(self, begin_ns: int, end_ns: int) -> float:
        """Host seconds the timer-driven spins took in ``[begin, end)``."""
        return sum(d for t, d in self.samples if begin_ns <= t < end_ns) / 1e9
