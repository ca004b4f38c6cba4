"""``replicated``: the replicated control plane's acceptance path, in four phases.

Every member's policy journal — and the coordinator's fleet journal —
is replicated across :data:`~repro.scenarios.harness.SITES` replica
sites with available-copies semantics (quorum commit, fenced leader
lease).

1. **replicated rollout**: a good policy reaches fleet-wide ACTIVE with
   every journal write quorum-committed; daemon pings report replication
   health and every replica site answers its probe;
2. **leader death mid-rollout**: one member's group leader is killed at
   its next append; the group fails over *within the wave* and the
   rollout completes — no committed ack is lost, the new leader serves
   the full committed log (read-your-writes);
3. **follower kill + recover**: a recovered site refuses reads
   (:class:`~repro.replication.site.SiteUnreadable`) until the first
   post-recovery committed write lands, whose catch-up provably levels
   its log with the group;
4. **concurrent overlapping rollouts**: two coordinators open ledger
   transactions over overlapping lock footprints; the first committer
   wins, the second aborts with a journaled serialization conflict and
   its patches are reverted — never both.
"""

from __future__ import annotations

from ..faults import SITE_REPLICATION_APPEND, FaultPlan, injected
from ..fleet import FleetCoordinator, FleetRolloutState, HealthMonitor
from ..replication import (
    ReplicaGroup,
    SerializationLedger,
    SiteState,
    SiteUnreadable,
    TxnStatus,
)
from .harness import (
    SITES,
    Checks,
    Waves,
    fleet_active,
    fleet_stock,
    good_numa_submission,
    journal_events,
    print_audits,
    shard_fleet,
    steady_submission,
)


def run(args) -> int:
    check = Checks("replicated scenario")
    fleet, groups = shard_fleet(args, replicated=True)
    fleet_group = ReplicaGroup("fleet", nr_sites=SITES)
    print(
        f"fleet of {len(fleet)} kernels; every journal replicated "
        f"{SITES} ways (quorum {fleet_group.quorum})"
    )
    waves = Waves(fleet, args.duration_ns)
    monitor = HealthMonitor(fleet)
    coordinator = FleetCoordinator(fleet, journal=fleet_group.journal(), health=monitor)

    # -- phase 1: rollout over replicated journals ---------------------
    print("\nphase 1: rollout over replicated journals — quorum commits, site probes")
    good = coordinator.execute(
        waves.plan("numa-good"), good_numa_submission, **waves.rollout
    )
    print(good.describe())
    check(good.state is FleetRolloutState.COMPLETE, "rollout COMPLETE over replicated journals")
    check(fleet_active(fleet, "numa-good", good.plan.kernels()), "numa-good ACTIVE on every kernel")
    pings = {m.name: m.daemon.ping() for m in fleet.members()}
    check(
        all(
            p.get("replication", {}).get("commit_index", 0) > 0
            for p in pings.values()
        ),
        "every daemon ping reports replication commit progress",
    )
    probes = monitor.probe_all(include_sites=True)
    site_probes = {k: r for k, r in probes.items() if "/site" in k}
    check(
        len(site_probes) == len(fleet) * SITES
        and all(r.ok for r in site_probes.values()),
        f"all {len(site_probes)} replica sites answer their probes",
    )

    # -- phase 2: leader killed mid-rollout, failover completes --------
    print("\nphase 2: leader site killed mid-rollout — failover completes the wave")
    victim_member = "k1"
    group = groups[victim_member]
    old_leader = group.leader.name
    print(f"victim: {old_leader} (leader of {victim_member}'s group, dies at its next append)")
    kill = FaultPlan(seed=args.seed, name="kill-leader")
    kill.fail(SITE_REPLICATION_APPEND, times=1, match={"replica": old_leader})
    with injected(kill):
        steady = coordinator.execute(
            waves.plan("steady"), lambda member: steady_submission(), **waves.rollout
        )
    print(steady.describe())
    print(group.describe())
    check(
        kill.fired[SITE_REPLICATION_APPEND] == 1,
        "the injected fault killed the leader mid-append",
    )
    check(
        steady.state is FleetRolloutState.COMPLETE,
        "failover completed the wave: rollout COMPLETE",
    )
    check(fleet_active(fleet, "steady", steady.plan.kernels()), "steady ACTIVE on every kernel")
    check(
        group.failovers >= 1 and group.leader.name != old_leader,
        f"leadership failed over off {old_leader} "
        f"(now {group.leader.name}, lease epoch {group.lease_epoch})",
    )
    check(group.site(old_leader).state is SiteState.DOWN, "the killed site is DOWN")
    check(
        len(group.entries()) == group.commit_index,
        "no committed ack lost: every committed entry readable after failover",
    )
    last = fleet.member(victim_member).journal.last_transition("steady")
    check(
        last is not None and last["to"] == "ACTIVE",
        "read-your-writes: the new leader serves the full committed log",
    )

    # -- phase 3: recovered follower is read-gated ---------------------
    print("\nphase 3: follower killed + recovered — read-gated until a committed write")
    follow_member = "k2"
    fgroup = groups[follow_member]
    follower = next(s for s in fgroup.sites if s is not fgroup.leader)
    print(f"victim: {follower.name} (follower, killed then recovered)")
    fgroup.fail_site(follower.name)
    recovered = fgroup.recover_site(follower.name)
    refused = False
    try:
        recovered.read(fgroup.commit_index)
    except SiteUnreadable:
        refused = True
    check(
        refused and not recovered.readable,
        f"{follower.name} refuses reads while RECOVERING (available-copies gate)",
    )
    probe = monitor.probe_sites(follow_member)[follower.name]
    check(
        probe.ok and "read-gated" in probe.detail,
        "the health probe reports the site recovering (read-gated)",
    )
    member = fleet.member(follow_member)
    member.journal.heartbeat(int(member.kernel.now), member=follow_member)
    check(
        recovered.readable and recovered.state is SiteState.UP,
        "the first committed write post-recovery lifts the read gate",
    )
    committed = {
        seq: entry
        for seq, entry in fgroup.leader.log.items()
        if seq <= fgroup.commit_index
    }
    check(
        all(recovered.log.get(seq) == entry for seq, entry in committed.items()),
        "catch-up shipped every committed entry the site missed",
    )
    check(
        recovered.read(fgroup.commit_index) == fgroup.entries(),
        "the recovered site serves the same committed log as the leader",
    )

    # -- phase 4: concurrent rollouts, first committer wins ------------
    print("\nphase 4: concurrent overlapping rollouts — first committer wins")
    ledger = SerializationLedger(journal=fleet_group.journal())
    coord_a = FleetCoordinator(
        fleet, journal=fleet_group.journal(), client_id="coord-a", ledger=ledger
    )
    coord_b = FleetCoordinator(
        fleet, journal=fleet_group.journal(), client_id="coord-b", ledger=ledger
    )
    plan_a = waves.plan("tuner-alpha")
    plan_b = waves.plan("tuner-bravo")
    txn_b = coord_b.open_transaction(plan_b)
    result_a = coord_a.execute(
        plan_a, lambda member: steady_submission("tuner-alpha"), **waves.rollout
    )
    result_b = coord_b.execute(
        plan_b, lambda member: steady_submission("tuner-bravo"), **waves.rollout
    )
    print(result_a.describe())
    print(result_b.describe())
    check(
        result_a.state is FleetRolloutState.COMPLETE
        and result_a.txn is not None
        and result_a.txn.status is TxnStatus.COMMITTED,
        "first committer (tuner-alpha) COMPLETE, its transaction committed",
    )
    check(
        result_b.state is FleetRolloutState.HALTED
        and "serialization conflict" in (result_b.halt_cause or ""),
        "second committer aborted: serialization conflict halts the rollout",
    )
    check(txn_b.status is TxnStatus.ABORTED, "the loser's ledger transaction is ABORTED")
    check(
        [t.txn_id for t in ledger.committed()] == ["tuner-alpha@coord-a"],
        "exactly one of the two overlapping rollouts committed",
    )
    events = journal_events(fleet_group.journal(), kinds=("fleet", "replication"))
    check(
        "serialization-conflict" in events and "txn-abort" in events,
        "the conflict and the txn abort are journaled",
    )
    check(
        fleet_stock(fleet, "tuner-bravo", plan_b.kernels())
        and fleet_active(fleet, "tuner-alpha", plan_a.kernels()),
        "the aborted rollout reverted every kernel; the winner stands",
    )

    if args.audit:
        print_audits(fleet)
    return check.report(
        "replicated scenario passed: quorum commits, leader failover, "
        "the recovery read gate, and commit-time serialization all behaved"
    )
