"""``malthus`` — scalability collapse past a concurrency knee.

The Malthusian Locks observation (PAPERS.md): admitting every waiter to
the contention pool is not neutral — past saturation each extra thread
*reduces* throughput, because the critical section itself slows down as
the waiting crowd grows (cache pressure from queue nodes and the lock
word bouncing through more caches).

This workload makes the knee measurable and deterministic: an MCS lock
(so queueing itself is fair and flat) plus a critical-section cost that
grows linearly with the number of in-flight contenders::

    cs(n_inflight) = cs_ns + waiter_penalty_ns * (n_inflight - 1)

Below the knee (``threads < 1 + think/cs``) the lock is not saturated
and throughput climbs with threads; past it, every added thread only
deepens the queue and inflates ``cs``, so throughput *falls* — the
collapse a culling policy should detect in the p99 histogram and
reverse by parking excess waiters.

Only the *active* crowd pays the penalty: a lock impl that parks excess
waiters (``CullingLock``) exports ``parked_count``, and parked waiters
are subtracted from the in-flight count before the penalty is charged —
they sit on a passive stack, not in anyone's cache.  That is the whole
Malthusian mechanism: culling shrinks the crowd, the critical section
shrinks back to ``cs_ns``, throughput recovers.  For stock impls
(no ``parked_count``) the cost model is unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..kernel.core import Kernel
from ..locks.mcs import MCSLock
from ..sim.ops import Delay
from ..sim.stats import quantile
from .runner import SweepResult, Workload

__all__ = ["MalthusianBench", "knee_threads"]

#: Base critical-section cost at one contender.
CS_NS = 700
#: Mean think time between operations.
THINK_NS = 2100
#: Extra critical-section cost per additional in-flight contender.
WAITER_PENALTY_NS = 350


class MalthusianBench(Workload):
    def __init__(
        self,
        cs_ns: int = CS_NS,
        think_ns: int = THINK_NS,
        waiter_penalty_ns: int = WAITER_PENALTY_NS,
    ) -> None:
        self.cs_ns = cs_ns
        self.think_ns = think_ns
        self.waiter_penalty_ns = waiter_penalty_ns
        self.name = "malthus"
        self.site = None
        self._inflight = 0
        self.peak_inflight = 0
        self._waits: List[int] = []

    def expected_knee(self) -> int:
        """The saturation point of the closed M/D/1-ish loop."""
        return max(1, round((self.cs_ns + self.think_ns) / self.cs_ns))

    def setup(self, kernel: Kernel) -> None:
        self.site = kernel.add_lock(
            "bench.malthus", MCSLock(kernel.engine, name="bench.malthus")
        )

    def _parked(self) -> int:
        """Waiters culled onto a passive stack (they cost no coherence)."""
        core = getattr(self.site, "core", None)
        impl = core.impl if core is not None else self.site
        return getattr(impl, "parked_count", 0)

    def worker(self, task, worker_index: int):
        site = self.site
        rng = task.engine.rng
        while True:
            self._inflight += 1
            if self._inflight > self.peak_inflight:
                self.peak_inflight = self._inflight
            entered = task.engine.now
            yield from site.acquire(task)
            self._waits.append(task.engine.now - entered)
            crowd = max(0, self._inflight - 1 - self._parked())
            yield Delay(self.cs_ns + self.waiter_penalty_ns * crowd)
            yield from site.release(task)
            self._inflight -= 1
            task.stats["ops"] = task.stats.get("ops", 0) + 1
            yield Delay(rng.randint(self.think_ns // 2, (3 * self.think_ns) // 2))

    def extras(self, kernel: Kernel) -> Dict[str, Any]:
        return {
            "acquisitions": self.site.core.impl.acquisitions,
            "expected_knee": self.expected_knee(),
            "peak_inflight": self.peak_inflight,
            "wait_p50_ns": quantile(self._waits, 0.50),
            "wait_p99_ns": quantile(self._waits, 0.99),
        }


def knee_threads(result: SweepResult) -> Optional[int]:
    """The thread count where throughput peaked (the measured knee).

    Returns ``None`` on a monotone sweep that never collapses: if the
    peak sits on the *last* measured point, throughput was still
    climbing when the sweep ended, and there is no knee to report.
    Callers (the collapse detector above all) must treat ``None`` as
    "healthy so far, keep watching" rather than inventing a knee at the
    sweep boundary — the old behaviour of returning the boundary point
    made a scalable lock look collapsed.
    """
    points = sorted(result.points, key=lambda p: p.threads)
    best = None
    for point in points:
        if best is None or point.ops_per_msec > best.ops_per_msec:
            best = point
    if best is None or best is points[-1]:
        return None
    return best.threads
