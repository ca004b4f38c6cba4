"""The three benchmark workloads, driven through public entry points only.

Each workload's :meth:`run` builds its world from a seed (set-up), runs
the measured phase, and returns an :class:`Iteration`: the host timings
of both phases, the simulated results, the deterministic outputs that
are digested and compared against the committed golden digests, and the
correctness checks that failed.  Nothing here changes what the program
simulates: the benchmark only observes (zero simulated cost).

* ``lock2_numa``    — Fig. 2(b) lock2, ``concord-shfllock`` mode, 80
  closed-loop threads on the 8-socket paper machine;
* ``trace_replay``  — an open-loop Poisson trace (diurnal day + 6x
  burst, two tenants) replayed into 4 stock ShflLock shards;
* ``fleet_rollout`` — a 3-kernel fleet over RF=3 replica groups on a
  jittery fabric: placement learning, a bad rollout that must HALT, a
  good one that must COMPLETE, then compaction and scrub.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.concord.policies import make_numa_policy
from repro.concord.policy import PolicySpec
from repro.controlplane import PolicyState, PolicySubmission, SLOGuard
from repro.fleet import (
    FleetCoordinator,
    FleetManager,
    FleetRolloutState,
    HealthMonitor,
    PlacementMap,
    RolloutPlanner,
)
from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.locks.base import HOOK_CMP_NODE, HOOK_LOCK_ACQUIRED
from repro.netsim import Fabric, LinkModel
from repro.replication import ReplicaGroup
from repro.sim import Topology, ops, paper_machine
from repro.storage import Scrubber, entries_digest, flip_byte
from repro.traffic import (
    LockBinding,
    Phase,
    PhaseSchedule,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
    TraceRunner,
)
from repro.workloads import Lock2, run_throughput

__all__ = ["Iteration", "WORKLOADS"]

#: Called by a workload when its set-up ends and its measured phase starts.
Mark = Callable[[], None]


@dataclass
class Iteration:
    """One set-up + measured phase of a workload."""

    setup_s: float
    wall_s: float
    #: simulated lock operations (acquire->release pairs) completed in
    #: the measured phase.
    ops: int
    #: the simulated results: ``sim_ops_per_ms``, ``sim_wait_p99_ns``
    #: and ``rollout_sim_ms`` (see the workload classes for each meaning).
    sim: Dict[str, float]
    #: deterministic simulated outputs; digested and checked.
    outputs: Dict[str, object]
    #: failed correctness checks (empty when the iteration is correct).
    errors: List[str]
    #: per-layer counts the program keeps itself (whole iteration).
    counters: Dict[str, int]
    #: how much slower than the reference speed the host ran during the
    #: iteration; the runner divides ``setup_s`` and ``wall_s`` by it.
    slowdown: float = 1.0


def _p99(samples: List[int]) -> int:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _engine_counters(kernels) -> Dict[str, int]:
    """Sum the simulator's own counters over every kernel."""
    out = dict.fromkeys(
        (
            "sim.engine.events",
            "sim.sched.context_switches",
            "sim.sched.parks",
            "sim.sched.wakeups",
            "sim.tasks_spawned",
            "sim.cache.accesses",
            "sim.cache.remote_transfers",
            "sim.cache.atomics",
            "sim.cache.local_spins",
            "locks.shfllock.shuffle_passes",
        ),
        0,
    )
    for kernel in kernels:
        engine = kernel.engine
        stats = engine.stats.snapshot()
        out["sim.engine.events"] += engine.events_processed
        out["sim.sched.context_switches"] += int(stats.get("sched.context_switches", 0))
        out["sim.sched.parks"] += int(stats.get("sched.parks", 0))
        out["sim.sched.wakeups"] += int(stats.get("sched.wakeups", 0))
        out["sim.tasks_spawned"] += len(engine.tasks)
        out["sim.cache.accesses"] += int(
            stats.get("cache.local_hits", 0) + stats.get("cache.transfers", 0)
        )
        out["sim.cache.remote_transfers"] += int(stats.get("cache.remote_transfers", 0))
        out["sim.cache.atomics"] += int(stats.get("cache.atomics", 0))
        out["sim.cache.local_spins"] += int(stats.get("cache.local_spins", 0))
        for name in kernel.locks.names():
            impl = kernel.locks.get(name).core.impl
            if isinstance(impl, ShflLock):
                out["locks.shfllock.shuffle_passes"] += impl.shuffle_passes
    return out


# ----------------------------------------------------------------------
# lock2_numa
# ----------------------------------------------------------------------
class _TimedSite:
    """Records each grant's simulated time and arrival->grant wait
    around a lock call site; adds no simulated work."""

    def __init__(self, site, waits: List[int], grants: List[int]) -> None:
        self._site = site
        self.core = site.core
        self._waits = waits
        self._grants = grants

    def acquire(self, task):
        arrived = task.engine.now
        yield from self._site.acquire(task)
        now = task.engine.now
        self._waits.append(now - arrived)
        self._grants.append(now)

    def release(self, task):
        return self._site.release(task)


class _ObservedLock2(Lock2):
    """``Lock2`` whose set-up end is timestamped and whose call site is
    observed by :class:`_TimedSite`."""

    def __init__(self, mark: Mark) -> None:
        super().__init__("concord-shfllock")
        self._mark = mark
        self.kernel = None
        self.setup_end = 0.0
        self.waits: List[int] = []
        self.grants: List[int] = []

    def setup(self, kernel: Kernel) -> None:
        super().setup(kernel)
        self.kernel = kernel
        self.site = _TimedSite(self.site, self.waits, self.grants)
        self.setup_end = time.perf_counter()
        self._mark()


class Lock2Numa:
    """Fig. 2(b) lock2 under Concord's NUMA cmp_node policy.

    Set-up is the kernel plus the policy load (compile, verify, attach);
    the measured phase is ``run_throughput``'s closed loop.  Simulated
    results: ``sim_ops_per_ms`` is the figure's ops/msec over the
    measurement window, ``sim_wait_p99_ns`` the p99 arrival->grant wait
    of every acquisition, ``rollout_sim_ms`` the simulated ms from the
    first grant to the :attr:`job_ops`-th.
    """

    name = "lock2_numa"
    threads = 80
    warmup_ns = 400_000
    duration_ns = 2_600_000
    #: the fixed job ``rollout_sim_ms`` times: this many grants.
    job_ops = 3_000

    def run(self, seed: int, mark: Mark) -> Iteration:
        start = time.perf_counter()
        workload = _ObservedLock2(mark)
        result = run_throughput(
            workload,
            paper_machine(),
            self.threads,
            duration_ns=self.duration_ns,
            warmup_ns=self.warmup_ns,
            seed=seed,
        )
        end = time.perf_counter()
        kernel = workload.kernel
        grants = workload.grants
        per_thread_ops = [t.stats.get("ops", 0) for t in kernel.engine.tasks]
        impl = workload.site.core.impl
        errors = []
        if len(grants) < self.job_ops:
            errors.append(f"only {len(grants)} grants, the job needs {self.job_ops}")
        if not 0 <= impl.acquisitions - sum(per_thread_ops) <= self.threads:
            errors.append("lock acquisitions disagree with completed operations")
        if not result.extras.get("shuffle_moves"):
            errors.append("the NUMA policy never reordered the queue")
        grants = sorted(grants)
        job_end_ns = grants[min(self.job_ops, len(grants)) - 1]
        counters = _engine_counters([kernel])
        outputs = {
            "window_ops": result.ops,
            "total_grants": len(grants),
            "per_thread_ops": per_thread_ops,
            "acquisitions": impl.acquisitions,
            "contended": impl.contended_acquisitions,
            "shuffle_passes": result.extras.get("shuffle_passes"),
            "shuffle_moves": result.extras.get("shuffle_moves"),
            "events": kernel.engine.events_processed,
            "job_end_ns": job_end_ns,
            "wait_p99_ns": _p99(workload.waits),
        }
        return Iteration(
            setup_s=workload.setup_end - start,
            wall_s=end - workload.setup_end,
            ops=sum(per_thread_ops),
            sim={
                "sim_ops_per_ms": result.ops_per_msec,
                "sim_wait_p99_ns": outputs["wait_p99_ns"],
                "rollout_sim_ms": (job_end_ns - grants[0]) / 1e6,
            },
            outputs=outputs,
            errors=errors,
            counters=counters,
        )


# ----------------------------------------------------------------------
# trace_replay
# ----------------------------------------------------------------------
class TraceReplay:
    """Open-loop trace replay into 4 stock ShflLock shards on a 2x8 box.

    Set-up generates the trace and builds the kernel; the measured phase
    spawns one task per request and drains the kernel.  The rate keeps
    the burst queueing without collapsing, so CPUs run several requests
    each (run queues, dispatch); stock ShflLock waiters spin, never
    park.  Simulated
    results: ``sim_ops_per_ms`` is completed requests per simulated ms,
    ``sim_wait_p99_ns`` the burst phase's p99 arrival->acquire wait,
    ``rollout_sim_ms`` the simulated ms until the last request completed.
    """

    name = "trace_replay"
    day_ns = 7_000_000
    rate_per_ms = 1200.0
    shards = 4

    def _schedule(self) -> PhaseSchedule:
        arc = PhaseSchedule.diurnal(self.day_ns, steps=6, trough_scale=0.3)
        phases = list(arc.phases)
        phases.insert(3, Phase("burst", self.day_ns // 10, 6.0))
        return PhaseSchedule(phases)

    def run(self, seed: int, mark: Mark) -> Iteration:
        start = time.perf_counter()
        tenants = TenantSet(
            [
                Tenant("web", 6.0, [(f"shard{i}", 1.0) for i in range(self.shards)]),
                Tenant("batch", 1.0, [("shard0", 1.0), ("shard1", 1.0)]),
            ]
        )
        trace = TraceGenerator(
            self._schedule(), PoissonProcess(self.rate_per_ms), tenants, seed=seed
        ).generate()
        bindings = {
            f"shard{i}": LockBinding(f"svc.shard{i}.lock", cs_ns=400)
            for i in range(self.shards)
        }
        kernel = Kernel(Topology(sockets=2, cores_per_socket=8), seed=seed)
        for i in range(self.shards):
            kernel.add_lock(f"svc.shard{i}.lock", ShflLock(kernel.engine, name=f"s{i}"))
        runner = TraceRunner(trace, bindings)
        setup_end = time.perf_counter()
        mark()
        base_ns = kernel.now
        runner.install(kernel, tag="bench")
        kernel.run()
        end = time.perf_counter()

        errors = []
        phases = {}
        for phase in trace.phase_names():
            stats = runner.phase_stats(phase)
            phases[phase] = [
                stats.arrivals,
                stats.completions,
                stats.wait_p50(),
                stats.wait_p99(),
            ]
            if stats.completions != stats.arrivals:
                errors.append(
                    f"phase {phase}: {stats.completions}/{stats.arrivals} requests completed"
                )
        completed = sum(p[1] for p in phases.values())
        last_ns = max(t.finish_time for t in kernel.engine.tasks)
        burst_p99 = phases["burst"][3]
        counters = _engine_counters([kernel])
        counters["traffic.requests_completed"] = completed
        outputs = {
            "trace_events": len(trace),
            "phases": phases,
            "events": kernel.engine.events_processed,
            "last_completion_ns": last_ns,
        }
        return Iteration(
            setup_s=setup_end - start,
            wall_s=end - setup_end,
            ops=completed,
            sim={
                "sim_ops_per_ms": completed / ((last_ns - base_ns) / 1e6),
                "sim_wait_p99_ns": burst_p99,
                "rollout_sim_ms": (last_ns - base_ns) / 1e6,
            },
            outputs=outputs,
            errors=errors,
            counters=counters,
        )


# ----------------------------------------------------------------------
# fleet_rollout
# ----------------------------------------------------------------------
#: Anti-NUMA grouping: prefer waiters from the *other* socket, so
#: handoffs bounce the line across the interconnect.
_ANTI_NUMA_SOURCE = """
def anti_numa(ctx):
    return ctx.curr_socket != ctx.shuffler_socket
"""

#: Per-acquisition accounting fat enough to lengthen the critical section.
_NUMA_AUDIT_SOURCE = """
def numa_audit(ctx):
    acc = 0
    for i in range(60):
        acc = acc + ctx.socket
        acc = acc ^ i
    return 0
"""

_SELECTOR = "svc.*.lock"


def _bad_numa(member) -> PolicySubmission:
    return PolicySubmission(
        specs=(
            PolicySpec(
                name="bad-numa",
                hook=HOOK_CMP_NODE,
                source=_ANTI_NUMA_SOURCE,
                lock_selector=_SELECTOR,
            ),
            PolicySpec(
                name="bad-numa.audit",
                hook=HOOK_LOCK_ACQUIRED,
                source=_NUMA_AUDIT_SOURCE,
                lock_selector=_SELECTOR,
            ),
        ),
    )


def _good_numa(member) -> PolicySubmission:
    return PolicySubmission(spec=make_numa_policy(lock_selector=_SELECTOR, name="numa-good"))


class _Book:
    """What the shard workers observed: grant waits and completed ops."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.waits: List[int] = []
        self.ops = 0


class FleetRollout:
    """Placement learning, a halted and a completed rollout, compaction
    and scrub on a 3-kernel fleet whose journals are RF=3 replica groups
    over a jittery fabric.

    Set-up builds the fleet, its groups and closed-loop shard workers and
    learns placement; the measured phase is the two rollouts, compaction,
    one injected bit flip and two scrub passes.  Simulated results
    (fleet time is the most advanced member clock): ``rollout_sim_ms``
    runs from the first ``execute`` to the COMPLETE verdict,
    ``sim_ops_per_ms`` is the shard workers' completed ops over it, and
    ``sim_wait_p99_ns`` their p99 arrival->grant wait.
    """

    name = "fleet_rollout"
    kernels = 3
    sites = 3
    busy_locks = 4
    tasks_per_lock = 2
    cs_ns = 300
    think_max_ns = 240
    duration_ns = 2_000_000

    def _spawn_shard_workers(self, kernel, stop_at: int, per_lock: int, book: _Book) -> None:
        cpu = 0
        for name in kernel.locks.select_names(_SELECTOR):
            site = kernel.locks.get(name)
            for _ in range(per_lock):

                def worker(task, site=site):
                    engine = task.engine
                    rng = engine.rng
                    while engine.now < stop_at:
                        arrived = engine.now
                        yield from site.acquire(task)
                        book.waits.append(engine.now - arrived)
                        yield ops.Delay(self.cs_ns)
                        yield from site.release(task)
                        book.ops += 1
                        yield ops.Delay(rng.randint(0, self.think_max_ns))

                kernel.spawn(worker, cpu=cpu % kernel.topology.nr_cpus)
                cpu += 1

    def run(self, seed: int, mark: Mark) -> Iteration:
        start = time.perf_counter()
        fabric = Fabric(seed=seed)
        fabric.set_model(LinkModel(latency_ns=400, jitter_ns=100))
        fleet = FleetManager()
        groups: Dict[str, ReplicaGroup] = {}
        book = _Book()
        for index in range(self.kernels):
            name = f"k{index}"
            kernel = Kernel(Topology(sockets=2, cores_per_socket=8), seed=seed + index)
            for i in range(2 if index == 0 else self.busy_locks):
                kernel.add_lock(
                    f"svc.shard{i}.lock", ShflLock(kernel.engine, name=f"shard{i}")
                )
            groups[name] = ReplicaGroup(name, nr_sites=self.sites, fabric=fabric)
            fleet.register(
                name,
                kernel,
                replica_group=groups[name],
                guard=SLOGuard(max_avg_wait_regression=0.20),
                canary_fraction=0.5,
            )
            self._spawn_shard_workers(
                kernel,
                kernel.now + self.duration_ns,
                1 if index == 0 else self.tasks_per_lock,
                book,
            )
        fleet_group = ReplicaGroup("fleet", nr_sites=self.sites, fabric=fabric)
        placement = PlacementMap.learn(fleet, _SELECTOR, window_ns=self.duration_ns // 20)
        window = self.duration_ns // 10
        rollout_kwargs = dict(
            baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 4
        )
        planner = RolloutPlanner(
            max_concurrent_kernels=2, canary_kernels=1, bake_ns=window // 2
        )
        coordinator = FleetCoordinator(
            fleet,
            journal=fleet_group.journal(),
            health=HealthMonitor(fleet, fabric=fabric),
            fabric=fabric,
            rpc_jitter_seed=seed,
        )
        members = fleet.members()
        setup_end = time.perf_counter()
        mark()

        book.reset()
        first_ns = max(m.kernel.now for m in members)
        bad = coordinator.execute(planner.plan("bad-numa", placement), _bad_numa, **rollout_kwargs)
        good = coordinator.execute(
            planner.plan("numa-good", placement), _good_numa, **rollout_kwargs
        )
        complete_ns = max(m.kernel.now for m in members)
        rollout_ops = book.ops
        wait_p99_ns = _p99(book.waits)
        compaction = {name: groups[name].compact() for name in sorted(groups)}
        compaction["fleet"] = fleet_group.compact()
        # Silent rot on one follower's freshest record, then scrub: the
        # first pass must repair it from quorum peers, the second be clean.
        victim = fleet.member("k1")
        victim.journal.heartbeat(int(victim.kernel.now), member="k1")
        vgroup = groups["k1"]
        follower = next(s for s in vgroup.sites if s is not vgroup.leader)
        follower.log[vgroup.commit_index] = flip_byte(
            follower.log[vgroup.commit_index], salt=vgroup.commit_index
        )
        scrubber = Scrubber(journal=fleet_group.journal())
        all_groups = [groups[name] for name in sorted(groups)] + [fleet_group]
        first_pass = [scrubber.scrub_group(g) for g in all_groups]
        second_pass = [scrubber.scrub_group(g) for g in all_groups]
        end = time.perf_counter()

        errors = []
        if bad.state is not FleetRolloutState.HALTED:
            errors.append(f"bad rollout ended {bad.state}, expected HALTED")
        if any("bad-numa" in m.concord.policies for m in members):
            errors.append("bad-numa still loaded after the halt")
        if good.state is not FleetRolloutState.COMPLETE:
            errors.append(f"good rollout ended {good.state}, expected COMPLETE")
        if not all(
            (r := m.daemon.records.get("numa-good")) is not None
            and r.state is PolicyState.ACTIVE
            for m in members
        ):
            errors.append("numa-good is not ACTIVE on every kernel")
        if [r.repaired for r in first_pass if r.repaired] != [(follower.name,)]:
            errors.append("the first scrub did not repair exactly the rotten follower")
        if not all(r.ok for r in second_pass):
            errors.append("the post-repair scrub is not clean")
        if complete_ns <= first_ns or not rollout_ops:
            errors.append("the rollouts consumed no simulated time or work")

        kernels = [m.kernel for m in members]
        counters = _engine_counters(kernels)
        counters.update(
            {
                "netsim.dropped": fabric.dropped,
                "netsim.rejected": fabric.rejected,
                "storage.repairs": scrubber.repairs,
                "fleet.waves": sum(
                    len(r.completed_waves) + (r.state is FleetRolloutState.HALTED)
                    for r in (bad, good)
                ),
            }
        )
        outputs = {
            "bad": [str(bad.state), dict(sorted(bad.outcomes.items())), bad.completed_waves],
            "good": [str(good.state), dict(sorted(good.outcomes.items())), good.completed_waves],
            "journal_digests": {
                g.name: entries_digest(g.entries()) for g in all_groups
            },
            "compaction": compaction,
            "scrub": [[r.target, r.checked, len(r.findings), list(r.repaired)] for r in first_pass],
            "rollout_ops": rollout_ops,
            "rollout_ns": complete_ns - first_ns,
            "wait_p99_ns": wait_p99_ns,
            "events": [k.engine.events_processed for k in kernels],
            "fabric": [fabric.delivered, fabric.dropped, fabric.rejected],
        }
        return Iteration(
            setup_s=setup_end - start,
            wall_s=end - setup_end,
            ops=rollout_ops,
            sim={
                "sim_ops_per_ms": rollout_ops / ((complete_ns - first_ns) / 1e6),
                "sim_wait_p99_ns": wait_p99_ns,
                "rollout_sim_ms": (complete_ns - first_ns) / 1e6,
            },
            outputs=outputs,
            errors=errors,
            counters=counters,
        )


WORKLOADS = {w.name: w for w in (Lock2Numa(), TraceReplay(), FleetRollout())}
