"""``fleet``: one policy, many kernels, waves.

Three phases over ``--kernels`` independent kernels (k0 quiet, the rest
busy, so blast radius picks k0 as the canary wave):

1. the **bad** NUMA policy survives the quiet canary kernel, then
   breaches the busy cohort's SLO guards — the fleet verdict halts the
   rollout and reverts every already-patched kernel to stock;
2. the **good** NUMA policy walks the same waves to fleet-wide ACTIVE;
3. a **mid-wave crash** (``kill -9`` entering wave 1) leaves a partial
   fleet; a fresh coordinator over the on-disk journals resumes wave 1
   and converges — never a split fleet.
"""

from __future__ import annotations

import os

from ..controlplane import PolicyJournal
from ..faults import FaultPlan, InjectedCrash, injected
from ..fleet import FleetCoordinator, FleetRolloutState
from .harness import (
    SELECTOR,
    Checks,
    Waves,
    bad_numa_submission,
    fleet_active,
    fleet_stock,
    good_numa_submission,
    journal_dir,
    print_audits,
    shard_fleet,
    steady_submission,
)


def run(args) -> int:
    directory = journal_dir(args, "fleet")
    fleet_journal_path = os.path.join(directory, "fleet.jsonl")
    check = Checks("fleet scenario")
    fleet, _ = shard_fleet(args, journal_dir=directory)

    print(f"fleet of {len(fleet)} kernels (journals: {directory})")
    waves = Waves(fleet, args.duration_ns)
    print(waves.placement.describe())
    coordinator = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))

    # -- phase 1: bad policy halts the fleet ---------------------------
    print("\nphase 1: bad NUMA policy — cross-kernel breach must halt the fleet")
    plan = waves.plan("bad-numa")
    print(plan.describe())
    check(len(plan.waves) >= 2, f"plan rolls out in {len(plan.waves)} waves")
    check(
        plan.waves[0].canary and plan.waves[0].kernels == ["k0"],
        "canary wave is the lowest-blast-radius kernel (k0)",
    )
    bad = coordinator.execute(
        plan, lambda member: bad_numa_submission(SELECTOR), **waves.rollout
    )
    print(bad.describe())
    check(bad.state is FleetRolloutState.HALTED, "fleet verdict HALTED the rollout")
    check(
        any(state != "ACTIVE" for state in bad.outcomes.values()),
        "at least one cohort kernel breached its canary",
    )
    check(fleet_stock(fleet, "bad-numa"), "every patched kernel reverted to stock")

    # -- phase 2: good policy goes fleet-wide --------------------------
    print("\nphase 2: good NUMA policy — same waves, fleet-wide ACTIVE")
    good = coordinator.execute(
        waves.plan("numa-good"), good_numa_submission, **waves.rollout
    )
    print(good.describe())
    check(good.state is FleetRolloutState.COMPLETE, "rollout COMPLETE")
    check(fleet_active(fleet, "numa-good"), "numa-good ACTIVE on every kernel")

    # -- phase 3: mid-wave crash, recover from journals ----------------
    print("\nphase 3: daemon killed between waves; recovery resumes, never splits")
    plan = waves.plan("steady")
    kill_plan = FaultPlan(seed=args.seed, name="fleet-kill9")
    kill_plan.crash("fleet.wave.checkpoint", after=1, times=1)
    crashed = False
    try:
        with injected(kill_plan):
            coordinator.execute(
                plan, lambda member: steady_submission(), **waves.rollout
            )
    except InjectedCrash:
        crashed = True
    check(crashed, "InjectedCrash killed the coordinator entering wave 1")
    wave0 = plan.waves[0].kernels
    check(
        fleet_active(fleet, "steady", wave0)
        and all(
            "steady" not in fleet.member(k).daemon.records
            for k in plan.kernels()
            if k not in wave0
        ),
        "crash left a partial fleet (wave 0 patched, later waves not)",
    )
    fresh = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    resumed = fresh.recover(lambda member: steady_submission(), **waves.rollout)
    print(resumed.describe() if resumed is not None else "recovery: nothing in flight")
    check(
        resumed is not None and resumed.state is FleetRolloutState.COMPLETE,
        "recovery resumed the remaining waves to COMPLETE",
    )
    check(
        resumed is not None and resumed.resumed_from_wave == 1,
        "recovery resumed from wave 1 (completed wave trusted)",
    )
    check(fleet_active(fleet, "steady"), "steady ACTIVE on every kernel — no split fleet")

    if args.audit:
        print_audits(fleet)
    return check.report(
        "fleet scenario passed: halt-and-revert, fleet-wide rollout, "
        "and mid-wave crash recovery all behaved"
    )
