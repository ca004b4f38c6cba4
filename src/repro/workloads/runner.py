"""Workload harness: fixed-duration throughput runs and thread sweeps.

will-it-scale methodology: pin one worker per CPU (filling sockets in
order, as the paper's 8-socket runs do), start workers with random skew
(real threads never start in lockstep), warm up, then measure operations
completed in a fixed window of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..kernel.core import Kernel
from ..sim.topology import Topology

__all__ = ["Workload", "RunResult", "SweepResult", "run_throughput", "sweep"]

#: Default measurement window (simulated ns).
DEFAULT_DURATION_NS = 3_000_000
#: Default warmup before the window opens.
DEFAULT_WARMUP_NS = 400_000
#: Worker start times are spread over this interval.
START_SKEW_NS = 50_000


class Workload:
    """Base class for benchmark workloads.

    Subclasses implement :meth:`setup` (build kernel objects, install
    policies — returns nothing) and :meth:`worker` (an infinite
    generator loop that increments ``task.stats["ops"]``).
    """

    name = "workload"

    def setup(self, kernel: Kernel) -> None:
        raise NotImplementedError

    def worker(self, task, worker_index: int):
        raise NotImplementedError

    def teardown(self, kernel: Kernel) -> None:
        """Optional post-run hook (collect workload-specific stats)."""

    def extras(self, kernel: Kernel) -> Dict[str, Any]:
        """Extra result fields recorded per run."""
        return {}


@dataclass
class RunResult:
    """One fixed-duration measurement."""

    workload: str
    threads: int
    duration_ns: int
    ops: int
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_msec(self) -> float:
        return self.ops / (self.duration_ns / 1e6) if self.duration_ns else 0.0

    def __repr__(self) -> str:
        return (
            f"RunResult({self.workload}, n={self.threads}, "
            f"{self.ops_per_msec:.1f} ops/msec)"
        )


@dataclass
class SweepResult:
    """A thread-count sweep of one configuration."""

    workload: str
    points: List[RunResult]

    def series(self) -> List[tuple]:
        return [(p.threads, p.ops_per_msec) for p in self.points]

    def at(self, threads: int) -> Optional[RunResult]:
        for p in self.points:
            if p.threads == threads:
                return p
        return None


def run_throughput(
    workload: Workload,
    topology: Topology,
    threads: int,
    duration_ns: int = DEFAULT_DURATION_NS,
    warmup_ns: int = DEFAULT_WARMUP_NS,
    seed: int = 42,
) -> RunResult:
    """Run one fixed-duration throughput measurement."""
    if threads > topology.nr_cpus:
        raise ValueError(f"{threads} threads > {topology.nr_cpus} cpus")
    kernel = Kernel(topology, seed=seed)
    workload.threads = threads  # visible to setup (e.g. to pre-map regions)
    workload.setup(kernel)
    base_ns = kernel.now  # setup may consume simulated time
    rng = kernel.engine.rng
    order = topology.fill_order()
    tasks = []
    for index in range(threads):
        task = kernel.spawn(
            lambda t, i=index: workload.worker(t, i),
            cpu=order[index],
            name=f"{workload.name}-{index}",
            at=base_ns + rng.randint(0, START_SKEW_NS),
        )
        tasks.append(task)

    baseline: Dict[int, int] = {}

    def snapshot():
        for task in tasks:
            baseline[task.tid] = task.stats.get("ops", 0)

    warm_end = base_ns + START_SKEW_NS + warmup_ns
    kernel.engine.call_at(warm_end, snapshot)
    kernel.run(until=warm_end + duration_ns)
    workload.teardown(kernel)
    ops = sum(task.stats.get("ops", 0) - baseline.get(task.tid, 0) for task in tasks)
    return RunResult(
        workload=workload.name,
        threads=threads,
        duration_ns=duration_ns,
        ops=ops,
        extras=workload.extras(kernel),
    )


def sweep(
    workload_factory: Callable[[], Workload],
    topology: Topology,
    thread_counts: Sequence[int],
    **kwargs,
) -> SweepResult:
    """Sweep thread counts; a fresh workload instance per point."""
    points = []
    name = None
    for threads in thread_counts:
        workload = workload_factory()
        name = workload.name
        points.append(run_throughput(workload, topology, threads, **kwargs))
    return SweepResult(workload=name or "workload", points=points)
