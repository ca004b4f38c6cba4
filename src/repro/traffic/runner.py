"""Trace replay: feed a generated trace into live kernels.

:class:`TraceRunner` turns :class:`~repro.traffic.trace.TraceEvent`\\ s
into short-lived simulated tasks on a target kernel.  Each event spawns
one request task at its arrival instant (round-robin over CPUs by event
sequence, so replay is deterministic): the task acquires the lock its
op is bound to, holds it for the binding's critical-section time, and
releases.  Because requests are spawned *open-loop at trace time*, a
burst phase keeps arriving while the lock queue backs up — the
queueing behaviour a rollout guard should be judged against.

Per-(kernel, phase) latency stats are recorded at the Python level
(zero simulated cost): arrivals, completions, and acquire-wait samples,
with p50/p99 summaries.  :meth:`TraceRunner.drive_fleet` installs one
trace into every active member of a :class:`~repro.fleet.manager.
FleetManager`, so a subsequent `FleetCoordinator.execute` bakes each
wave against load that shifts mid-rollout.

Fault site ``traffic.phase.shift``: consulted once per phase at install
time.  An injected stall of N ns moves that phase's arrivals N ns
*earlier* — the chaos story where the burst lands mid-bake instead of
where the plan expected it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..faults.registry import SITE_TRAFFIC_PHASE_SHIFT, fault_point
from ..kernel.core import Kernel
from ..sim.ops import Delay
from ..sim.stats import quantile
from .trace import Trace

__all__ = ["LockBinding", "PhaseStats", "TraceRunner"]


@dataclass(frozen=True)
class LockBinding:
    """How one op key maps onto a kernel lock."""

    lock: str            #: registry name of the call site on the target kernel
    cs_ns: int = 400     #: critical-section hold time per request
    read: bool = False   #: use the read side (RW call sites only)
    #: Per-active-waiter critical-section inflation (the Malthusian
    #: collapse physics: every *spinning* contender makes the hold
    #: itself slower through cache-line bouncing).  0 — the default,
    #: which keeps existing trace replays byte-identical — models a
    #: coherence-insensitive section.  Waiters a culling impl has
    #: parked (``parked_count``) are descheduled and charge nothing,
    #: which is what lets a cull restore throughput under burst load.
    waiter_penalty_ns: int = 0


@dataclass
class PhaseStats:
    """Replay outcomes for one (kernel, phase) pair."""

    arrivals: int = 0
    completions: int = 0
    waits: List[int] = field(default_factory=list)

    def wait_p50(self) -> int:
        return quantile(self.waits, 0.50)

    def wait_p99(self) -> int:
        return quantile(self.waits, 0.99)


class TraceRunner:
    """Replays one trace into one or more kernels."""

    def __init__(self, trace: Trace, bindings: Dict[str, LockBinding]) -> None:
        missing = [ev.op for ev in trace if ev.op not in bindings]
        if missing:
            raise KeyError(f"trace ops with no binding: {sorted(set(missing))}")
        self.trace = trace
        self.bindings = bindings
        #: (kernel_tag, phase_name) -> PhaseStats
        self.stats: Dict[Tuple[str, str], PhaseStats] = {}
        self._installed: List[str] = []
        #: per-site in-flight request counts (id(site) -> count), the
        #: crowd the waiter-penalty cost model charges against.
        self._crowd: Dict[int, int] = {}

    # -- installation --------------------------------------------------
    def _phase_shifts(self, tag: str) -> Dict[str, int]:
        """Consult the phase-shift fault site once per phase."""
        shifts: Dict[str, int] = {}
        for phase in self.trace.phase_names():
            shifts[phase] = fault_point(
                SITE_TRAFFIC_PHASE_SHIFT, phase=phase, kernel=tag
            )
        return shifts

    def install(self, kernel: Kernel, tag: str = "kernel") -> int:
        """Spawn one request task per trace event on ``kernel``.

        Arrivals are offset from the kernel's current time, so a trace
        can be installed mid-run.  Returns the number of events
        installed.
        """
        base = kernel.now
        nr_cpus = kernel.topology.nr_cpus
        shifts = self._phase_shifts(tag)
        self._installed.append(tag)
        spawn = kernel.spawn
        # One request body per (op, phase), shared by all its events.
        bodies: Dict[Tuple[str, str], Tuple[Callable, PhaseStats]] = {}
        for event in self.trace:
            key = (event.op, event.phase)
            slot = bodies.get(key)
            if slot is None:
                slot = bodies[key] = self._body(kernel, tag, *key)
            body, stats = slot
            stats.arrivals += 1
            at = base + max(0, event.time_ns - shifts[event.phase])
            spawn(body, event.seq % nr_cpus, f"{tag}-req{event.seq}", at=at)
        return len(self.trace)

    def _body(
        self, kernel: Kernel, tag: str, op: str, phase: str
    ) -> Tuple[Callable, PhaseStats]:
        """The request body for ``op`` in ``phase``, and the phase's stats."""
        binding = self.bindings[op]
        site = kernel.locks.get(binding.lock)
        stats = self.stats.get((tag, phase))
        if stats is None:
            stats = self.stats[tag, phase] = PhaseStats()
        request = self._request
        return (lambda task: request(task, site, binding, stats)), stats

    def _request(self, task, site, binding: LockBinding, stats: PhaseStats):
        arrived = task.engine.now
        crowd_key = id(site)
        self._crowd[crowd_key] = self._crowd.get(crowd_key, 0) + 1
        if binding.read:
            yield from site.read_acquire(task)
        else:
            yield from site.acquire(task)
        stats.waits.append(task.engine.now - arrived)
        cs_ns = binding.cs_ns
        if binding.waiter_penalty_ns:
            # Active crowd = everyone in this site's request path minus
            # the holder minus whoever the impl has parked (descheduled
            # waiters bounce no cache lines).
            core = getattr(site, "core", None)
            impl = core.impl if core is not None else site
            parked = getattr(impl, "parked_count", 0)
            crowd = max(0, self._crowd[crowd_key] - 1 - parked)
            cs_ns += binding.waiter_penalty_ns * crowd
        yield Delay(cs_ns)
        if binding.read:
            yield from site.read_release(task)
        else:
            yield from site.release(task)
        self._crowd[crowd_key] -= 1
        stats.completions += 1

    def drive_fleet(self, fleet) -> int:
        """Install the trace into every active fleet member."""
        total = 0
        for member in fleet.active_members():
            total += self.install(member.kernel, tag=member.name)
        return total

    # -- reporting -----------------------------------------------------
    def phase_stats(self, phase: str, tag: Optional[str] = None) -> PhaseStats:
        """Aggregate stats for one phase (one kernel, or all)."""
        merged = PhaseStats()
        for (t, p), stats in self.stats.items():
            if p != phase or (tag is not None and t != tag):
                continue
            merged.arrivals += stats.arrivals
            merged.completions += stats.completions
            merged.waits.extend(stats.waits)
        return merged

    def report(self) -> str:
        """Human-readable per-phase replay table (aggregated over kernels)."""
        lines = [
            f"{'phase':<12} {'arrivals':>9} {'completed':>10} "
            f"{'wait p50':>10} {'wait p99':>10}"
        ]
        for phase in self.trace.phase_names():
            stats = self.phase_stats(phase)
            lines.append(
                f"{phase:<12} {stats.arrivals:>9} {stats.completions:>10} "
                f"{stats.wait_p50():>8}ns {stats.wait_p99():>8}ns"
            )
        return "\n".join(lines)
