"""``fleet-degraded``: a member dies mid-wave.

Four phases over ``--kernels`` kernels (minimum 4, so a 0.5 quorum
survives one dead member; k0 quiet, the rest busy):

1. **health probes**: every member answers its liveness probe (daemon
   responds, kernel clock advances, journal shard appendable) and
   heartbeats its own journal shard;
2. **any-breach + death**: one cohort member is killed at its bake; the
   unreachable member breaches the fleet verdict, the rollout halts, the
   victim is quarantined with its installed policy journaled as revert
   debt, and every *reachable* kernel converges to stock;
3. **reinstate + recover**: a fresh coordinator over the same fleet
   journal unwinds the halted rollout, rebuilds the debt ledger from the
   journal, and drains it — the victim comes back at a higher epoch,
   stock like everyone else;
4. **quorum + death, then heal**: a 0.5-quorum rollout with the same
   member killed again completes *degraded* (survivors at plan, the
   victim quarantined as journaled debt); after a second reinstate +
   recover the debt is drained and a fresh fleet-wide rollout reaches
   ACTIVE on every kernel.
"""

from __future__ import annotations

import os

from ..controlplane import PolicyJournal
from ..faults import FaultPlan, injected
from ..fleet import FleetCoordinator, FleetRolloutState, HealthMonitor
from .harness import (
    QUORUM,
    Checks,
    Waves,
    fleet_active,
    fleet_stock,
    good_numa_submission,
    journal_dir,
    journal_events,
    print_audits,
    shard_fleet,
    steady_submission,
)


def kill_member_at_bake(victim: str, seed: int) -> FaultPlan:
    """A persistent outage: the victim answers once more (so it gets
    patched), then every later call to it fails — died mid-wave."""
    plan = FaultPlan(seed=seed, name=f"kill-{victim}")
    plan.fail(
        "fleet.member.call",
        times=None,
        after=1,
        match={"kernel": victim, "op": "bake"},
    )
    return plan


def run(args) -> int:
    directory = journal_dir(args, "degraded")
    fleet_journal_path = os.path.join(directory, "fleet.jsonl")
    check = Checks("fleet-degraded scenario")
    fleet, _ = shard_fleet(args, journal_dir=directory)
    print(f"fleet of {len(fleet)} kernels (journals: {directory})")
    waves = Waves(fleet, args.duration_ns)

    def fleet_events():
        return journal_events(PolicyJournal(fleet_journal_path))

    def steady(member):
        return steady_submission()

    # -- phase 1: everyone answers the health probe --------------------
    print("\nphase 1: liveness probes — daemon, clock, journal shard")
    monitor = HealthMonitor(fleet)
    probes = monitor.probe_all()
    check(
        len(probes) == len(fleet) and all(r.ok for r in probes.values()),
        f"all {len(probes)} members probe HEALTHY",
    )
    check(
        all(
            any(e.get("kind") == "heartbeat" for e in m.journal.entries())
            for m in fleet.members()
        ),
        "every member heartbeat reached its own journal shard",
    )

    # -- phase 2: any-breach rollout, one member dies at its bake ------
    print("\nphase 2: any-breach rollout — a cohort member dies mid-wave")
    coordinator = FleetCoordinator(
        fleet, journal=PolicyJournal(fleet_journal_path), health=monitor
    )
    plan = waves.plan("steady")
    victim = plan.waves[1].kernels[0]
    print(f"victim: {victim} (killed after it is patched, before its bake)")
    with injected(kill_member_at_bake(victim, args.seed)):
        halted = coordinator.execute(plan, steady, **waves.rollout)
    print(halted.describe())
    check(halted.state is FleetRolloutState.HALTED, "any-breach verdict HALTED the rollout")
    check(halted.unreachable_kernels() == [victim], f"{victim} recorded UNREACHABLE")
    check(fleet.is_quarantined(victim), f"{victim} quarantined")
    check(
        [(d["kernel"], d["policy"]) for d in coordinator.debt] == [(victim, "steady")],
        "the victim's installed policy is booked as revert debt",
    )
    events = fleet_events()
    check(
        all(e in events for e in ("member-dead", "quarantine", "revert-debt")),
        "member-dead, quarantine, and revert-debt all journaled",
    )
    check(
        fleet_stock(fleet, "steady", [k for k in plan.kernels() if k != victim]),
        "every reachable kernel converged to stock",
    )

    # -- phase 3: reinstate, recover, drain the debt -------------------
    print("\nphase 3: reinstate + recover — journaled debt is drained")
    epoch_before = fleet.member(victim).epoch
    fresh = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    fresh.reinstate(victim)
    recovered = fresh.recover(steady, **waves.rollout)
    print(recovered.describe() if recovered is not None else "recovery: nothing in flight")
    check(
        recovered is not None and recovered.state is FleetRolloutState.UNWOUND,
        "recovery unwound the halted rollout",
    )
    check(not fresh.debt, "revert debt drained after reinstatement")
    check("debt-drained" in fleet_events(), "the drain was journaled (debt-drained)")
    check(
        fleet.member(victim).epoch > epoch_before,
        f"{victim} reinstated at a higher epoch "
        f"({epoch_before} -> {fleet.member(victim).epoch})",
    )
    check(
        fleet_stock(fleet, "steady", plan.kernels()),
        "the whole fleet — victim included — is uniformly stock",
    )

    # -- phase 4: quorum completes degraded, then the fleet heals ------
    print("\nphase 4: quorum rollout — the fleet completes degraded, then heals")
    coordinator = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    plan = waves.plan("steady", verdict_mode="quorum", quorum=QUORUM)
    victim = plan.waves[1].kernels[0]
    with injected(kill_member_at_bake(victim, args.seed)):
        degraded = coordinator.execute(plan, steady, **waves.rollout)
    print(degraded.describe())
    check(
        degraded.state is FleetRolloutState.COMPLETE,
        f"quorum ({QUORUM}) completed the rollout degraded",
    )
    check(
        degraded.unreachable_kernels() == [victim] and fleet.is_quarantined(victim),
        f"{victim} unreachable and quarantined, debt booked",
    )
    check(
        fleet_active(fleet, "steady", [k for k in plan.kernels() if k != victim]),
        "every reachable kernel is at plan (steady ACTIVE)",
    )
    healer = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    healer.reinstate(victim)
    healer.recover(steady, **waves.rollout)
    check(not healer.debt, "second reinstate + recover drained the debt")
    final_plan = waves.plan("numa-good")
    final = healer.execute(final_plan, good_numa_submission, **waves.rollout)
    print(final.describe())
    check(
        final.state is FleetRolloutState.COMPLETE
        and fleet_active(fleet, "numa-good", final_plan.kernels()),
        "healed fleet: fresh rollout ACTIVE on every kernel",
    )

    if args.audit:
        print_audits(fleet)
    return check.report(
        "fleet-degraded scenario passed: probes, quarantine, epoch fencing, "
        "revert debt, and degraded quorum all behaved"
    )
