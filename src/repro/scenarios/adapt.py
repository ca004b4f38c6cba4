"""``adapt``: the adaptive-overload-defense acceptance path, in three phases.

1. **Fleet burst trace.**  Three kernels replay a crowd-sensitive
   Poisson trace whose burst phase drives the hot lock past its
   coherence capacity (arrivals outrun the collapsed service rate, so
   throughput *falls* while p99 blows up).  The coordinator-mode
   :class:`AdaptationLoop` must detect the collapse on pooled evidence,
   self-propose a Malthusian cull, canary it fleet-wide under the
   tail+fairness guard, and keep it — with post-cull throughput at least
   ``0.8x`` the healthy reference rate.
2. **Mid-loop kill.**  On the closed-loop bench, the loop is killed
   (:class:`InjectedCrash`) at the ``adaptive.propose`` fault site —
   after ``cull-proposed`` hits the journal, before anything is
   installed.  A rebuilt daemon + loop over the same journal file must
   resolve the open proposal as rolled back (never leaving a
   proposed-but-unjudged cull), re-seed the detector's healthy reference
   from the journaled evidence, and — continuing the loop — re-propose
   and keep the cull under a fresh policy name.
3. **Over-aggressive cap.**  The same bench, but the loop is forced to
   ``cap_override=1`` under an operator-tightened fairness budget
   (:data:`MAX_SKEW_INCREASE`).  A too-deep cull leaves the LIFO
   passive stack stable, starving socket-clustered waiters; the canary's
   :class:`FairnessGuard` must catch the growing per-socket skew and
   roll the cull back, leaving the stock lock in place.  (The
   auto-derived cap clears the same tightened budget — the skew is the
   cap's fault, not the cull's.)
"""

from __future__ import annotations

import os

from ..concord import Concord
from ..controlplane import (
    AdaptationLoop,
    AllOf,
    Concordd,
    FairnessGuard,
    PolicyJournal,
    TailWaitGuard,
    culling_impl_factory,
)
from ..faults import SITE_ADAPTIVE_PROPOSE, FaultPlan, InjectedCrash, injected
from ..fleet import FleetCoordinator
from ..kernel import Kernel
from ..locks import MCSLock
from ..locks.culling import CullingLock
from ..sim import Topology
from ..traffic import (
    LockBinding,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
    TraceRunner,
)
from ..workloads import MalthusianBench
from .harness import (
    SOCKETS,
    Checks,
    build_fleet,
    burst_schedule,
    journal_dir,
    journal_entries,
)

CORES = 4  #: cores per socket
CS_NS = 500  #: per-request hold time
#: base Poisson arrival rate per kernel (events per simulated ms)
RATE_PER_MS = 100.0
#: per-active-waiter hold inflation: the coherence-collapse physics,
#: high enough that the collapsed service rate falls below the base
#: arrival rate
WAITER_PENALTY_NS = 2000
#: trace-generator seed (the burst shape; kernel seeds come from --seed)
TRACE_SEED = 42
#: phase 3's tightened per-socket fairness budget (the over-aggressive
#: cap must blow through it)
MAX_SKEW_INCREASE = 0.10


def _bench_world(seed: int, journal):
    """One Malthusian-bench kernel with a daemon over it."""
    kernel = Kernel(Topology(sockets=2, cores_per_socket=4), seed=seed)
    bench = MalthusianBench()
    bench.setup(kernel)
    concord = Concord(kernel)
    daemon = Concordd(concord, journal=journal)
    return kernel, bench, concord, daemon


def _bench_loop(daemon, **overrides) -> AdaptationLoop:
    """The loop timings phases 2 and 3 share (tuned for the closed-loop
    bench: ~400k ns windows hold a few hundred acquisitions past the
    knee)."""
    params = dict(
        selector="bench.*",
        window_ns=400_000,
        baseline_ns=80_000,
        canary_ns=120_000,
        check_every_ns=20_000,
    )
    params.update(overrides)
    return AdaptationLoop(daemon=daemon, **params)


def _past_the_knee(kernel, bench, loop):
    """Four workers (below the knee) run a window ``loop`` takes as the
    healthy reference, then four more push the bench past the knee.
    Returns the reference pass's decision."""
    order = kernel.topology.fill_order()

    def spawn(start: int) -> None:
        for index in range(start, start + 4):
            kernel.spawn(
                lambda task, i=index: bench.worker(task, i),
                cpu=order[index],
                name=f"malthus-{index}",
            )
        kernel.run(until=kernel.now + 100_000)

    spawn(0)
    first = loop.run_once()
    spawn(4)
    return first


def _adaptation(journal, event=None):
    return journal_entries(journal, event, kinds=("adaptation",))


def _hot_kernel(seed: int) -> Kernel:
    kernel = Kernel(Topology(sockets=SOCKETS, cores_per_socket=CORES), seed=seed)
    kernel.add_lock("svc.hot.lock", MCSLock(kernel.engine, name="hot"))
    return kernel


def run(args) -> int:
    check = Checks("adapt scenario")
    directory = journal_dir(args, "adapt")

    # -- phase 1: fleet-wide detect -> propose -> canary -> keep -------
    print("phase 1: burst trace collapses the fleet's hot lock; the loop culls it")
    tenants = TenantSet(
        [
            Tenant("web", 3.0, [("hot", 1.0)]),
            Tenant("batch", 1.0, [("hot", 1.0)]),
        ]
    )
    trace = TraceGenerator(
        burst_schedule(args.duration_ns),
        PoissonProcess(rate_per_ms=RATE_PER_MS),
        tenants,
        seed=TRACE_SEED,
    ).generate()
    print(f"trace: {trace.describe()}")
    runner = TraceRunner(
        trace,
        {"hot": LockBinding("svc.hot.lock", cs_ns=CS_NS, waiter_penalty_ns=WAITER_PENALTY_NS)},
    )
    # Per-member verdicts defer: the loop's own composite guard (pooled
    # tail + fairness) judges the canary alone.
    fleet, _ = build_fleet(
        3,
        lambda index: _hot_kernel(args.seed + 1 + index),
        journal_dir=directory,
        shard="adapt.k{}.jsonl",
    )
    runner.drive_fleet(fleet)
    coordinator = FleetCoordinator(
        fleet, journal=PolicyJournal(os.path.join(directory, "adapt.fleet.jsonl"))
    )
    loop = AdaptationLoop(
        coordinator=coordinator,
        selector="svc.hot.lock",
        window_ns=300_000,
        baseline_ns=100_000,
        canary_ns=300_000,
        check_every_ns=100_000,
    )
    decisions = loop.run(passes=10)
    for decision in decisions:
        print(f"  {decision.describe()}")
    check(
        decisions and decisions[-1].outcome == "kept",
        "fleet loop detects the collapse and keeps the cull",
    )
    impls = [
        member.kernel.locks.get("svc.hot.lock").core.impl
        for member in fleet.members()
    ]
    check(
        all(isinstance(impl, CullingLock) for impl in impls),
        "every member's hot lock runs the culling impl",
    )
    detected = _adaptation(coordinator.journal, "collapse-detected")
    proposed = _adaptation(coordinator.journal, "cull-proposed")
    kept = _adaptation(coordinator.journal, "cull-kept")
    check(
        bool(detected) and bool(proposed) and bool(kept),
        "fleet journal has collapse-detected, cull-proposed, cull-kept",
    )
    check(
        bool(proposed)
        and all(impl.cap == proposed[-1].get("cap") for impl in impls),
        "installed caps match the journaled proposal",
    )
    if detected and kept:
        ref_rate = detected[-1]["ref_rate_per_ms"]
        post_rate = kept[-1].get("rate_per_ms", 0.0)
        print(
            f"  post-cull rate {post_rate:.1f} ops/ms vs healthy reference "
            f"{ref_rate:.1f} ops/ms"
        )
        check(
            post_rate >= 0.8 * ref_rate,
            "post-cull throughput >= 0.8x the healthy reference rate",
        )

    # -- phase 2: kill -9 between propose and install ------------------
    print("\nphase 2: loop killed mid-propose; recovery resolves the open cull")
    journal_path = os.path.join(directory, "adapt.bench.jsonl")
    kernel, bench, concord, daemon = _bench_world(args.seed, PolicyJournal(journal_path))
    bench_loop = _bench_loop(daemon)
    first = _past_the_knee(kernel, bench, bench_loop)
    check(first.outcome == "idle", "pre-knee window is judged healthy")
    kill_plan = FaultPlan(seed=args.seed, name="adapt-kill")
    kill_plan.crash(SITE_ADAPTIVE_PROPOSE)
    crashed = False
    try:
        with injected(kill_plan):
            bench_loop.run_once()
    except InjectedCrash:
        crashed = True
    site = kernel.locks.get("bench.malthus")
    check(crashed, "InjectedCrash unwound the pass mid-propose")
    check(
        bool(_adaptation(PolicyJournal(journal_path), "cull-proposed"))
        and not _adaptation(PolicyJournal(journal_path), "cull-rolled-back"),
        "journal ends on an open cull-proposed entry",
    )
    check(isinstance(site.core.impl, MCSLock), "nothing was installed before the crash")
    journal_b = PolicyJournal(journal_path)
    registry = {f"culling-cap{cap}": culling_impl_factory(cap) for cap in range(1, 9)}
    daemon_b = Concordd(concord, journal=journal_b, impl_registry=registry)
    daemon_b.recover()
    loop_b = _bench_loop(daemon_b)
    summary = loop_b.recover()
    print(f"  loop recover: {summary}")
    check(summary["resolved"] == 1, "recover() resolved the open proposal")
    resolved = _adaptation(journal_b, "cull-rolled-back")
    check(
        bool(resolved) and "recovered" in resolved[-1].get("cause", ""),
        "open proposal journaled as rolled back by recovery",
    )
    check(
        isinstance(site.core.impl, MCSLock),
        "no proposed-but-unjudged cull left installed after recovery",
    )
    reference = loop_b.detector.reference("bench.malthus")
    check(
        reference is not None and reference.rate_per_ms > 0,
        "healthy reference re-seeded from the journal",
    )
    continued = loop_b.run(passes=4)
    for decision in continued:
        print(f"  {decision.describe()}")
    check(
        continued and continued[-1].outcome == "kept",
        "continued loop re-proposes and keeps the cull",
    )
    check(
        continued
        and continued[-1].policy == "cull.bench.malthus.2"
        and isinstance(site.core.impl, CullingLock),
        "re-proposal gets a fresh policy name and installs the cull",
    )

    # -- phase 3: over-aggressive cap is rolled back on fairness -------
    print("\nphase 3: forced cap=1 starves sockets; fairness guard rolls it back")
    kernel3, bench3, _concord3, daemon3 = _bench_world(args.seed, PolicyJournal())
    tight_guard = AllOf(
        TailWaitGuard(max_tail_regression=1.0),
        FairnessGuard(max_skew_increase=MAX_SKEW_INCREASE),
    )
    loop3 = _bench_loop(
        daemon3,
        cap_override=1,
        guard=tight_guard,
        canary_ns=300_000,
        check_every_ns=100_000,
    )
    _past_the_knee(kernel3, bench3, loop3)
    verdict = loop3.run_once()
    print(f"  {verdict.describe()}")
    site3 = kernel3.locks.get("bench.malthus")
    check(verdict.outcome == "rolled-back", "cap=1 cull is rolled back")
    check("skew" in verdict.cause, "rollback cause is the per-socket fairness skew")
    check(isinstance(site3.core.impl, MCSLock), "stock lock restored after the rollback")
    check(
        bool(_adaptation(daemon3.journal, "cull-rolled-back")),
        "rollback verdict journaled",
    )

    if args.audit:
        print("\nfleet adaptation journal:")
        for entry in _adaptation(coordinator.journal):
            print(f"  {entry}")
        print("\nbench audit log:")
        print(daemon_b.audit.format())
    return check.report(
        "adapt scenario PASSED: collapse detected on pooled evidence, "
        "self-proposed cull kept fleet-wide, crash recovery never left an "
        "unjudged cull, and the over-aggressive cap was rolled back"
    )
