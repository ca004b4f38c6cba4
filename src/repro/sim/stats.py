"""Lightweight statistics primitives used across the simulator.

The simulator is single-threaded, so these containers do no locking.  They
are intentionally tiny: counters, grouped under dotted names by a
:class:`StatsRegistry` so subsystems (cache model, scheduler) can publish
metrics without knowing who consumes them, and :func:`quantile`, the one
exact quantile over a list of samples.  Latency distributions the
profiler collects live in its log2 histograms
(:meth:`~repro.concord.profiler.LockProfile.quantile`).
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["Counter", "StatsRegistry", "quantile"]


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.value})"


def quantile(samples: Sequence[int], q: float) -> int:
    """Exact ``q``-quantile: the sorted sample at index ``int(q * n)``
    (clamped to the last one), or 0 when there are no samples."""
    if not samples:
        return 0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class StatsRegistry:
    """Registry of named statistics shared by all simulator subsystems.

    Names are dotted paths such as ``"cache.remote_transfers"`` or
    ``"sched.context_switches"``.  Accessors create the metric on first
    use, so instrumented code never needs set-up calls.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def snapshot(self) -> Dict[str, int]:
        """Flat dict of every counter's value (for reports/tests)."""
        return {name: counter.value for name, counter in self._counters.items()}

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
