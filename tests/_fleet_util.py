"""Shared builders for the fleet test files.

Every fleet test wants the same scaffolding: a few independent kernels
with ``svc.shard*.lock`` instances, a shard workload pounding them, and
a learned placement map.  Centralised here so the coordinator, planner,
and recovery tests agree on what "a fleet" is.
"""

from repro.bpf.maps import HashMap
from repro.concord.policies.numa import make_numa_policy
from repro.concord.policy import PolicySpec
from repro.controlplane import PolicySubmission, SLOGuard
from repro.fleet import FleetManager, PlacementMap
from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.locks.base import HOOK_LOCK_ACQUIRED
from repro.scenarios import bad_numa_submission
from repro.sim import Topology, ops

WORKLOAD_NS = 6_000_000
WINDOW_NS = 200_000

METER_SOURCE = """
def meter(ctx):
    hits.add(ctx.tid, 1)
    return 0
"""


def spawn_shard_workload(kernel, stop_at, tasks_per_lock, cs_ns=900):
    tasks = []
    cpu = 0
    for name in kernel.locks.select_names("svc.*.lock"):
        site = kernel.locks.get(name)
        for _ in range(tasks_per_lock):

            def worker(task, site=site):
                task.stats["ops"] = 0
                while task.engine.now < stop_at:
                    yield from site.acquire(task)
                    yield ops.Delay(cs_ns)
                    yield from site.release(task)
                    task.stats["ops"] += 1
                    yield ops.Delay(120)

            tasks.append(kernel.spawn(worker, cpu=cpu % kernel.topology.nr_cpus))
            cpu += 1
    return tasks


def add_member(
    fleet,
    name,
    locks=2,
    seed=11,
    tasks_per_lock=2,
    max_regression=0.50,
    workload_ns=WORKLOAD_NS,
    **daemon_kwargs,
):
    kernel = Kernel(Topology(sockets=2, cores_per_socket=4), seed=seed)
    for index in range(locks):
        kernel.add_lock(
            f"svc.shard{index}.lock", ShflLock(kernel.engine, name=f"shard{index}")
        )
    daemon_kwargs.setdefault("guard", SLOGuard(max_avg_wait_regression=max_regression))
    daemon_kwargs.setdefault("canary_fraction", 0.5)
    member = fleet.register(name, kernel, **daemon_kwargs)
    if workload_ns:
        spawn_shard_workload(kernel, kernel.now + workload_ns, tasks_per_lock)
    return member


def three_kernel_fleet(**daemon_kwargs):
    """k0 quiet, k1/k2 busy — blast radius orders k0 first."""
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=1, **daemon_kwargs)
    add_member(fleet, "k1", locks=3, seed=12, tasks_per_lock=3, **daemon_kwargs)
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4, **daemon_kwargs)
    return fleet


def learn(fleet, window_ns=150_000):
    return PlacementMap.learn(fleet, "svc.*.lock", window_ns=window_ns)


def good_factory(member):
    return PolicySubmission(
        spec=make_numa_policy(lock_selector="svc.*.lock", name="numa-good")
    )


def bad_factory(member):
    return bad_numa_submission("svc.*.lock")


def meter_factory(member):
    return PolicySubmission(
        spec=PolicySpec(
            name="meter",
            hook=HOOK_LOCK_ACQUIRED,
            source=METER_SOURCE,
            maps={"hits": HashMap("meter.hits", max_entries=4096)},
            lock_selector="svc.*.lock",
        )
    )


ROLLOUT_KWARGS = dict(
    baseline_ns=WINDOW_NS,
    canary_ns=2 * WINDOW_NS,
    check_every_ns=WINDOW_NS // 4,
)
