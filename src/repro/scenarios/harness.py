"""What two or more ``concordd`` scenarios share.

Each scenario is a scripted acceptance run of the control plane: it
builds kernels (or a fleet of them), drives policies through the real
daemon and coordinator paths, prints what happened and checks it.  This
module holds the pieces they have in common — the policy submissions,
the shard kernel and its workload, the fleet builder, the fleet
predicates, placement and planner setup, the ``[ok]``/``[FAIL]`` checks
with their footer, and audit printing — so a scenario module is only its
phases.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bpf.maps import HashMap
from ..concord.policies import make_numa_policy
from ..concord.policy import PolicySpec
from ..controlplane import PolicyJournal, PolicyState, PolicySubmission, SLOGuard
from ..fleet import FleetManager, PlacementMap, RolloutPlanner
from ..fleet.planner import FleetPlan, WaveSpec
from ..kernel import Kernel
from ..locks import ShflLock, SpinParkMutex
from ..locks.base import HOOK_CMP_NODE, HOOK_LOCK_ACQUIRED
from ..replication import ReplicaGroup
from ..sim import Topology, ops
from ..traffic import PhaseSchedule

# The machine, workload and budgets the shard scenarios run at.
SOCKETS = 2
CORES = 8  #: cores per socket
LOCKS = 4  #: shard locks per (busy) kernel
TASKS_PER_LOCK = 4
CS_NS = 300  #: critical-section length
MAX_REGRESSION = 0.20  #: SLO guard avg-wait budget (the paper's 20 %)
MAX_CONCURRENT_KERNELS = 2  #: wave width after the canary wave
QUORUM = 0.5  #: share of kernels a quorum-verdict rollout needs
SITES = 3  #: replication factor of a replicated journal
BURST_SCALE = 8.0  #: arrival-rate multiplier of a burst phase
SELECTOR = "svc.*.lock"
#: the canary locks of the hand-planned pooled-verdict waves
CANARY_LOCKS = ["svc.shard0.lock", "svc.shard1.lock"]

# ----------------------------------------------------------------------
# Policy submissions
# ----------------------------------------------------------------------
#: Anti-NUMA grouping: prefer waiters from the *other* socket — exactly
#: backwards from ShflLock's point, so handoffs bounce the cache line
#: across the interconnect.
ANTI_NUMA_SOURCE = """
def anti_numa(ctx):
    return ctx.curr_socket != ctx.shuffler_socket
"""

#: A per-acquisition "NUMA accounting" program fat enough to matter:
#: runs with the lock held (Table 1: increase critical section).
NUMA_AUDIT_SOURCE = """
def numa_audit(ctx):
    acc = 0
    for i in range(60):
        acc = acc + ctx.socket
        acc = acc ^ i
    return 0
"""


def bad_numa_submission(lock_selector: str, name: str = "bad-numa") -> PolicySubmission:
    """The misbehaving policy bundle: anti-NUMA grouping plus an
    expensive per-acquisition accounting program."""
    return PolicySubmission(
        specs=(
            PolicySpec(
                name=name,
                hook=HOOK_CMP_NODE,
                source=ANTI_NUMA_SOURCE,
                lock_selector=lock_selector,
            ),
            PolicySpec(
                name=f"{name}.audit",
                hook=HOOK_LOCK_ACQUIRED,
                source=NUMA_AUDIT_SOURCE,
                lock_selector=lock_selector,
            ),
        ),
    )


def good_numa_submission(member=None) -> PolicySubmission:
    """The paper's NUMA policy as ``numa-good``; ``member`` is ignored,
    so this doubles as a fleet submission factory."""
    return PolicySubmission(spec=make_numa_policy(lock_selector=SELECTOR, name="numa-good"))


#: A tail-spike policy: cheap bookkeeping on every acquisition, plus an
#: expensive "audit" burn on every 64th — rare enough to leave the mean
#: wait nearly untouched, heavy enough to multiply the p99.  This is the
#: regression class an average-based SLO guard is structurally blind to.
TAIL_SPIKE_SOURCE = """
def tail_spike(ctx):
    if ctx.lock_id == target.lookup(0):
        n = seen.lookup(ctx.lock_id) + 1
        seen.update(ctx.lock_id, n)
        if n % 32 == 0:
            acc = 0
            for i in range(60):
                acc = acc + i
                acc = acc ^ n
    return 0
"""

#: Second half of the spike: a separate program (own verifier insn
#: budget) reading the same counter, so the combined burn is twice what
#: any single program may cost.
TAIL_SPIKE_ECHO_SOURCE = """
def tail_spike_echo(ctx):
    if ctx.lock_id == target.lookup(0):
        n = seen.lookup(ctx.lock_id)
        if n % 32 == 0:
            acc = 0
            for i in range(60):
                acc = acc + i
                acc = acc ^ n
    return 0
"""


def tail_spike_submission(
    target_lock_id: int,
    lock_selector: str = SELECTOR,
    name: str = "tail-spike",
) -> PolicySubmission:
    """A policy whose damage is confined to one lock's tail latency.

    The selector covers the whole shard set (so the canary set can
    include healthy locks that keep the *average* in budget) but the
    burn fires only on ``target_lock_id``, pre-seeded into the policy's
    config map, and only on every 32nd acquisition — the mean barely
    moves, the p99 multiplies.
    """
    target = HashMap(f"{name}.target", max_entries=4)
    target.update(0, target_lock_id)
    seen = HashMap(f"{name}.seen", max_entries=65536)
    maps = {"seen": seen, "target": target}
    return PolicySubmission(
        specs=(
            PolicySpec(
                name=name,
                hook=HOOK_LOCK_ACQUIRED,
                source=TAIL_SPIKE_SOURCE,
                maps=dict(maps),
                lock_selector=lock_selector,
            ),
            PolicySpec(
                name=f"{name}.echo",
                hook=HOOK_LOCK_ACQUIRED,
                source=TAIL_SPIKE_ECHO_SOURCE,
                maps=dict(maps),
                lock_selector=lock_selector,
            ),
        ),
    )


#: The healthy workhorse policy: per-acquisition metering.
STEADY_SOURCE = """
def steady(ctx):
    hits.add(ctx.tid, 1)
    return 0
"""


def steady_submission(name: str = "steady") -> PolicySubmission:
    """Benign per-acquisition metering under ``name``."""
    return PolicySubmission(
        spec=PolicySpec(
            name=name,
            hook=HOOK_LOCK_ACQUIRED,
            source=STEADY_SOURCE.replace("steady", name.replace("-", "_")),
            maps={"hits": HashMap(f"{name}.hits", max_entries=65536)},
            lock_selector=SELECTOR,
        ),
    )


def spin_park(old):
    """An implementation switch to a spin-then-park mutex (registered
    as ``spin_park``)."""
    return SpinParkMutex(old.engine, name=f"sp.{old.name}")


def doomed_submission() -> PolicySubmission:
    """Metering plus an implementation switch: the policy a crash
    leaves half-installed."""
    return PolicySubmission(
        spec=PolicySpec(
            name="doomed",
            hook=HOOK_LOCK_ACQUIRED,
            source=STEADY_SOURCE.replace("steady", "doomed"),
            maps={"hits": HashMap("doomed.hits", max_entries=65536)},
            lock_selector=SELECTOR,
        ),
        impl_factory=spin_park,
        impl_name="spin_park",
    )


# ----------------------------------------------------------------------
# Kernels and fleets
# ----------------------------------------------------------------------
def shard_kernel(seed: int, nr_locks: int = LOCKS) -> Kernel:
    """A kernel with ``nr_locks`` ShflLock shards ``svc.shard<i>.lock``."""
    kernel = Kernel(Topology(sockets=SOCKETS, cores_per_socket=CORES), seed=seed)
    for index in range(nr_locks):
        kernel.add_lock(f"svc.shard{index}.lock", ShflLock(kernel.engine, name=f"shard{index}"))
    return kernel


def spawn_shard_workload(
    kernel: Kernel,
    duration_ns: int,
    tasks_per_lock: int = TASKS_PER_LOCK,
    cs_ns: int = CS_NS,
) -> List:
    """``tasks_per_lock`` closed-loop workers per shard lock, running
    for ``duration_ns`` from now; each counts its ops in ``stats``."""
    stop_at = kernel.now + duration_ns
    tasks = []
    cpu = 0
    for name in kernel.locks.select_names(SELECTOR):
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


def slo_guard() -> SLOGuard:
    return SLOGuard(max_avg_wait_regression=MAX_REGRESSION)


def deferred_guard() -> SLOGuard:
    """A per-member guard that never reaches readiness: each member's
    canary window holds fewer acquisitions than its threshold, so the
    daemon promotes on verifier trust and a fleet-level guard (pooled,
    or the adaptation loop's) decides alone."""
    return SLOGuard(min_acquisitions=10**9)


def build_fleet(
    nr_kernels: int,
    make_kernel: Callable[[int], Kernel],
    *,
    guard: Callable[[], SLOGuard] = deferred_guard,
    journal_dir: Optional[str] = None,
    shard: str = "journal.k{}.jsonl",
    replicated: bool = False,
    fabric=None,
    spawn: Optional[Callable[[str, Kernel], object]] = None,
) -> Tuple[FleetManager, Dict[str, ReplicaGroup]]:
    """Members ``k0..k<n-1>``, kernel ``i`` from ``make_kernel(i)``.

    Each member's journal is a file shard (``shard`` formatted with the
    index, under ``journal_dir``), a :data:`SITES`-way replica group
    (``replicated``; its traffic crosses ``fabric`` when one is given),
    or neither.  ``spawn(name, kernel)`` arms a member's workload right
    after it registers.  Returns the fleet and the replica groups by
    member name.
    """
    fleet = FleetManager()
    groups: Dict[str, ReplicaGroup] = {}
    for index in range(nr_kernels):
        name = f"k{index}"
        kernel = make_kernel(index)
        store = {}
        if replicated:
            store["replica_group"] = groups[name] = ReplicaGroup(
                name, nr_sites=SITES, fabric=fabric
            )
        elif journal_dir is not None:
            store["journal"] = PolicyJournal(os.path.join(journal_dir, shard.format(index)))
        fleet.register(name, kernel, guard=guard(), canary_fraction=0.5, **store)
        if spawn is not None:
            spawn(name, kernel)
    return fleet, groups


def arm_shard_workload(name: str, kernel: Kernel, duration_ns: int) -> None:
    """Shard workload for a :func:`shard_fleet` member: k0 stays quiet
    (one task per lock, so blast radius picks it as the canary)."""
    spawn_shard_workload(kernel, duration_ns, 1 if name == "k0" else TASKS_PER_LOCK)


def shard_fleet(
    args, journal_dir: Optional[str] = None, replicated: bool = False, fabric=None
) -> Tuple[FleetManager, Dict[str, ReplicaGroup]]:
    """``args.kernels`` shard kernels seeded ``args.seed + i`` under the
    SLO guard: k0 quiet with two locks, the rest busy with
    :data:`LOCKS`."""
    return build_fleet(
        args.kernels,
        lambda index: shard_kernel(args.seed + index, 2 if index == 0 else LOCKS),
        guard=slo_guard,
        journal_dir=journal_dir,
        replicated=replicated,
        fabric=fabric,
        spawn=lambda name, kernel: arm_shard_workload(name, kernel, args.duration_ns),
    )


class Waves:
    """Placement learned over a fleet, plus the wave timing the fleet
    scenarios share: a ``duration_ns // 10`` window, a two-window
    canary, a half-window bake."""

    def __init__(self, fleet: FleetManager, duration_ns: int) -> None:
        self.placement = PlacementMap.learn(fleet, SELECTOR, window_ns=duration_ns // 20)
        window = duration_ns // 10
        #: forwarded to every member daemon's rollout
        self.rollout = dict(baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 4)
        self.bake_ns = window // 2

    def plan(self, policy: str, **planner_kwargs) -> FleetPlan:
        """Plan ``policy`` (canary kernel first, then cohorts of
        :data:`MAX_CONCURRENT_KERNELS`) over the learned placement."""
        planner = RolloutPlanner(
            max_concurrent_kernels=MAX_CONCURRENT_KERNELS,
            canary_kernels=1,
            bake_ns=self.bake_ns,
            **planner_kwargs,
        )
        return planner.plan(policy, self.placement)


def canary_wave(policy: str, bake_ns: int) -> FleetPlan:
    """A one-wave plan: k0, k1 and k2 all canary :data:`CANARY_LOCKS`
    at once, so a pooled guard judges the whole wave together."""
    return FleetPlan(
        policy,
        [WaveSpec(index=0, kernels=["k0", "k1", "k2"], canary=True, bake_ns=bake_ns)],
        canary_locks={f"k{i}": list(CANARY_LOCKS) for i in range(3)},
    )


def burst_schedule(duration_ns: int) -> PhaseSchedule:
    """A :data:`BURST_SCALE` x burst over the middle half of
    ``duration_ns`` — exactly the canary window of a rollout whose
    baseline is its first quarter."""
    window = duration_ns // 4
    return PhaseSchedule.burst(
        window, 2 * window, duration_ns - 3 * window, burst_scale=BURST_SCALE
    )


# ----------------------------------------------------------------------
# Fleet predicates and journal queries
# ----------------------------------------------------------------------
def member_stock(fleet: FleetManager, name: str, policy: str) -> bool:
    """``policy`` is neither live in ``name``'s daemon nor loaded."""
    member = fleet.member(name)
    record = member.daemon.records.get(policy)
    return (record is None or not record.live) and policy not in member.concord.policies


def fleet_stock(fleet: FleetManager, policy: str, kernels: Optional[Sequence[str]] = None) -> bool:
    """:func:`member_stock` on ``kernels`` (default: every member)."""
    names = fleet.names() if kernels is None else kernels
    return all(member_stock(fleet, name, policy) for name in names)


def fleet_active(fleet: FleetManager, policy: str, kernels: Optional[Sequence[str]] = None) -> bool:
    """``policy`` is ACTIVE on ``kernels`` (default: every member)."""
    names = fleet.names() if kernels is None else kernels
    return all(
        (record := fleet.member(name).daemon.records.get(policy)) is not None
        and record.state is PolicyState.ACTIVE
        for name in names
    )


def journal_entries(journal, event: Optional[str] = None, kinds=("fleet",)) -> List[dict]:
    """``journal``'s entries of ``kinds``, only ``event`` ones if given."""
    return [
        entry
        for entry in journal.entries()
        if entry.get("kind") in kinds and (event is None or entry.get("event") == event)
    ]


def journal_events(journal, kinds=("fleet",)) -> List[str]:
    """The ``event`` names of ``journal``'s entries of ``kinds``."""
    return [entry.get("event") for entry in journal_entries(journal, kinds=kinds)]


# ----------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------
def journal_dir(args, scenario: str) -> str:
    """``--journal-dir``, or a fresh temp directory."""
    return args.journal_dir or tempfile.mkdtemp(prefix=f"concordd-{scenario}-")


def per_kernel(args, once: Callable[[int, int], int]) -> int:
    """Run ``once(seed, index)`` on ``args.kernels`` independent kernels
    (seed offset per kernel); every one must pass.  A single kernel
    prints no header."""
    status = 0
    for index in range(args.kernels):
        if args.kernels > 1:
            if index:
                print()
            print(f"=== kernel k{index} (seed {args.seed + index}) ===")
        if once(args.seed + index, index) != 0:
            status = 1
    return status


class Checks:
    """One ``[ok]``/``[FAIL]`` line per check, then the scenario's footer."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.failures: List[str] = []

    def __call__(self, ok, what: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            self.failures.append(what)

    def report(self, passed: str) -> int:
        """Exit status: 0 after printing ``passed``; 1 after listing the
        failed checks on stderr."""
        if self.failures:
            print(f"\n{self.label} FAILED ({len(self.failures)} check(s)):", file=sys.stderr)
            for failure in self.failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"\n{passed}")
        return 0


def print_audit(daemon, name: Optional[str] = None) -> None:
    print(f"\naudit log ({name}):" if name else "\naudit log:")
    print(daemon.audit.format())


def print_audits(fleet: FleetManager) -> None:
    for member in fleet.members():
        print_audit(member.daemon, member.name)
