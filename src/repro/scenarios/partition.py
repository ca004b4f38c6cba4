"""``partition``: the partition-tolerance acceptance path, in five phases.

Every cross-member message — coordinator calls, health probes, and each
member's replication traffic — crosses one simulated
:class:`~repro.netsim.Fabric`.  The coordinator's fleet journal stays
*off* that fabric: the control plane must be able to record a halt even
while the data path is dark.

1. **fabric online**: a rollout completes fleet-wide with every message
   over a modelled wire (latency + jitter), every replica site answering
   its probe;
2. **mid-rollout partition (any-breach)**: one cohort member's link goes
   dark at its bake (a timed ``net.partition.flip``); the envelope
   retries, exhausts, journals ``rpc-exhausted`` classified
   ``unreachable``, and the any-breach verdict halts — the victim
   quarantined, its policy booked as revert debt, every reachable kernel
   back to stock;
3. **deadline-exceeded (quorum)**: a second coordinator with a tight
   per-call timeout and total sim-time deadline rolls out under quorum
   verdict while one member's link crawls; its envelope gives up by
   *time* — journaled ``deadline-exceeded``, distinct from the
   quarantined member's ``unreachable`` — and the rollout completes
   degraded;
4. **split brain**: a seeded, replayable
   :class:`~repro.netsim.PartitionSchedule` asymmetrically splits one
   member's group leader from the majority mid-traffic; the group
   commits on the quorum side, fails over, and the deposed leader's
   stale lease is fenced (:class:`StaleLeaderFenced`) — its site marked
   DOWN *partitioned* (log intact), distinct from a failed site;
5. **heal + reconcile**: the schedule heals on time; catch-up and scrub
   converge every site of every group to the same committed prefix, the
   quarantined member is reinstated and its revert debt drained, and a
   final rollout leaves the fleet uniform — never a split fleet.
"""

from __future__ import annotations

from ..faults import SITE_NET_LINK_DELIVER, SITE_NET_PARTITION_FLIP, FaultPlan, injected
from ..fleet import FleetCoordinator, FleetRolloutState, HealthMonitor
from ..netsim import Fabric, LinkModel, PartitionEvent, PartitionSchedule
from ..replication import ReplicaGroup, SiteState, StaleLeaderFenced
from ..storage import Scrubber
from .harness import (
    QUORUM,
    SITES,
    Checks,
    Waves,
    arm_shard_workload,
    fleet_active,
    fleet_stock,
    good_numa_submission,
    journal_entries,
    member_stock,
    print_audits,
    shard_fleet,
    steady_submission,
)


def run(args) -> int:
    check = Checks("partition scenario")
    fabric = Fabric(seed=args.seed)
    fabric.set_model(LinkModel(latency_ns=400, jitter_ns=100))
    fleet, groups = shard_fleet(args, replicated=True, fabric=fabric)
    fleet_group = ReplicaGroup("fleet", nr_sites=SITES)
    print(
        f"fleet of {len(fleet)} kernels on a simulated fabric "
        f"(seed {args.seed}); journals replicated {SITES} ways"
    )
    waves = Waves(fleet, args.duration_ns)
    monitor = HealthMonitor(fleet, fabric=fabric)
    coordinator = FleetCoordinator(
        fleet,
        journal=fleet_group.journal(),
        health=monitor,
        fabric=fabric,
        rpc_jitter_seed=args.seed,
    )

    def fleet_events(event=None):
        return journal_entries(fleet_group.journal(), event)

    def refuel():
        # Re-arm every member's shard workload: each rollout burns
        # simulated time, and a guard judging a drained workload sees
        # starvation, not the policy.
        for m in fleet.members():
            arm_shard_workload(m.name, m.kernel, args.duration_ns)

    # -- phase 1: the fabric is online, rollout crosses it -------------
    print("\nphase 1: rollout across the fabric — every message over a modelled wire")
    plan1 = waves.plan("numa-good")
    good = coordinator.execute(plan1, good_numa_submission, **waves.rollout)
    print(good.describe())
    check(good.state is FleetRolloutState.COMPLETE, "rollout COMPLETE with every call over the fabric")
    check(fleet_active(fleet, "numa-good", plan1.kernels()), "numa-good ACTIVE on every kernel")
    check(
        fabric.delivered > 0 and fabric.rejected == 0,
        f"the fabric carried the rollout ({fabric.delivered} deliveries, none rejected)",
    )
    probes = monitor.probe_all(include_sites=True)
    check(
        all(r.ok for r in probes.values()),
        f"all {len(probes)} member and site probes cross the fabric HEALTHY",
    )

    # -- phase 2: a link goes dark mid-rollout; any-breach halts -------
    print("\nphase 2: mid-rollout partition — any-breach halts, debt booked")
    refuel()
    plan2 = waves.plan("steady")
    victim = plan2.waves[1].kernels[0]
    print(f"victim: {victim} (its link goes dark at its bake, for 2ms of sim time)")
    kill = FaultPlan(seed=args.seed, name=f"partition-{victim}")
    kill.stall(
        SITE_NET_PARTITION_FLIP,
        delay_ns=2_000_000,
        times=1,
        match={"dst": victim, "op": "bake"},
    )
    with injected(kill):
        halted = coordinator.execute(
            plan2, lambda member: steady_submission(), **waves.rollout
        )
    print(halted.describe())
    check(
        kill.fired[SITE_NET_PARTITION_FLIP] == 1 and fabric.flips == 1,
        "the injected timed partition took the victim's link dark",
    )
    check(halted.state is FleetRolloutState.HALTED, "any-breach verdict HALTED the rollout")
    check(
        halted.unreachable_kernels() == [victim] and fleet.is_quarantined(victim),
        f"{victim} recorded UNREACHABLE and quarantined",
    )
    check(
        (victim, "steady") in [(d["kernel"], d["policy"]) for d in coordinator.debt],
        "the victim's installed policy is booked as revert debt",
    )
    check(
        any(
            e["kernel"] == victim
            and e["classification"] == "unreachable"
            and e["attempts"] > 1
            for e in fleet_events("rpc-exhausted")
        ),
        "the envelope's give-up is journaled: rpc-exhausted, classified unreachable",
    )
    events = [e.get("event") for e in fleet_events()]
    check(
        all(e in events for e in ("member-dead", "quarantine", "revert-debt")),
        "member-dead, quarantine, and revert-debt all journaled",
    )
    check(
        fleet_stock(fleet, "steady", [k for k in plan2.kernels() if k != victim]),
        "every reachable kernel converged to stock",
    )

    # -- phase 3: deadline-exceeded under a quorum verdict -------------
    print("\nphase 3: crawling link + tight deadline — quorum completes degraded")
    refuel()
    deadline_coord = FleetCoordinator(
        fleet,
        journal=fleet_group.journal(),
        client_id="deadline-coord",
        health=monitor,
        member_retries=4,
        fabric=fabric,
        rpc_timeout_ns=5_000,
        rpc_deadline_ns=40_000,
        rpc_jitter_seed=args.seed,
    )
    plan3 = waves.plan("deadline-tuner", verdict_mode="quorum", quorum=QUORUM)
    # The slow member sits in the last wave: the quorum check runs on
    # outcomes-so-far after every wave, and two casualties in one early
    # wave would sink it before the survivors could vote.
    slow = next(
        k
        for wave in reversed(plan3.waves[1:])
        for k in wave.kernels
        if k != victim
    )
    print(
        f"slow member: {slow} (every delivery stalls 50us; per-call timeout "
        f"5us, total deadline 40us)"
    )
    lag = FaultPlan(seed=args.seed, name=f"lag-{slow}")
    lag.stall(
        SITE_NET_LINK_DELIVER, delay_ns=50_000, times=None, match={"dst": slow}
    )
    with injected(lag):
        degraded = deadline_coord.execute(
            plan3,
            lambda member: steady_submission("deadline-tuner"),
            **waves.rollout,
        )
    print(degraded.describe())
    check(
        degraded.state is FleetRolloutState.COMPLETE,
        f"quorum ({QUORUM}) completed the rollout degraded",
    )
    check(
        set(degraded.unreachable_kernels()) == {victim, slow},
        f"{victim} (quarantined) and {slow} (deadline) both recorded UNREACHABLE",
    )
    exhausted = fleet_events("rpc-exhausted")
    check(
        any(
            e["kernel"] == slow and e["classification"] == "deadline-exceeded"
            for e in exhausted
        ),
        f"{slow}'s loss journaled deadline-exceeded (time, not attempts)",
    )
    check(
        any(
            e["kernel"] == victim and e["classification"] == "unreachable"
            for e in exhausted
        )
        and not any(
            e["kernel"] == slow and e["classification"] == "unreachable"
            for e in exhausted
        ),
        "the two losses are classified distinctly in the journal",
    )
    survivors = [k for k in plan3.kernels() if k not in (victim, slow)]
    check(
        fleet_active(fleet, "deadline-tuner", survivors)
        and member_stock(fleet, slow, "deadline-tuner"),
        "survivors at plan; the deadline casualty untouched (never patched)",
    )

    # -- phase 4: scheduled asymmetric split — stale leader fenced -----
    print("\nphase 4: split brain — a scheduled asymmetric partition deposes a leader")
    split_member = next(k for k in sorted(groups) if k not in (victim, slow))
    group = groups[split_member]
    old_leader = group.leader.name
    stale = group.lease()
    epoch_before = group.lease_epoch
    commit_before = group.commit_index
    majority = tuple(
        s.name for s in group.sites if s.name != old_leader
    ) + (split_member,)
    t0 = fabric.clock_ns
    schedule = PartitionSchedule(
        [
            PartitionEvent(
                at_ns=t0 + 1_000,
                action="partition",
                groups=(majority, (old_leader,)),
                asymmetric=True,
            ),
            PartitionEvent(at_ns=t0 + 1_000_000, action="heal"),
        ],
        name=f"split-brain-{args.seed}",
    )
    fabric.schedule = schedule
    print(schedule.describe())
    print(
        f"deposed: {old_leader} (leader of {split_member}'s group; it hears "
        f"the majority, nothing it sends crosses out)"
    )
    replayed = PartitionSchedule.deserialize(schedule.serialize())
    check(
        replayed.serialize() == schedule.serialize() and schedule.ends_healed,
        "the schedule serializes for replay and ends healed",
    )
    fabric.advance(t0 + 2_000)
    check(
        [e.action for e in fabric.applied] == ["partition"],
        "the schedule's partition applied at its simulated time",
    )
    member = fleet.member(split_member)
    member.journal.heartbeat(int(member.kernel.now), member=split_member)
    check(
        group.failovers >= 1
        and group.leader.name != old_leader
        and group.lease_epoch > epoch_before,
        f"the group failed over around the cut ({old_leader} -> "
        f"{group.leader.name}, lease epoch {group.lease_epoch})",
    )
    check(
        group.commit_index > commit_before,
        "the majority side kept committing during the split",
    )
    fenced = False
    try:
        group.append({"kind": "note", "op": "stale-write"}, lease=stale)
    except StaleLeaderFenced:
        fenced = True
    check(
        fenced and group.commit_index == group.site(group.leader.name).commit_index,
        "the deposed leader's stale lease is fenced; the write commits nowhere",
    )
    health = group.health()
    check(
        health["sites"][old_leader]["state"] == "DOWN"
        and health["sites"][old_leader]["partitioned"],
        "health marks the cut site DOWN partitioned (log intact)",
    )
    contrast_group = groups[slow]
    dead_follower = next(
        s for s in contrast_group.sites if s is not contrast_group.leader
    )
    contrast_group.fail_site(dead_follower.name, cause="operator kill")
    check(
        not contrast_group.health()["sites"][dead_follower.name]["partitioned"]
        and "partitioned" not in dead_follower.describe(),
        "a failed site is NOT marked partitioned — the two outages are distinct",
    )
    probe = monitor.probe_sites(split_member)[old_leader]
    check(
        not probe.ok and "partitioned, log intact" in probe.detail,
        "the site probe reports the partition, not a dead disk",
    )

    # -- phase 5: heal, reconcile, drain — never a split fleet ---------
    print("\nphase 5: heal + reconcile — catch-up, scrub, drained debt, uniform fleet")
    fabric.advance(t0 + 1_100_000)
    check(
        [e.action for e in fabric.applied] == ["partition", "heal"],
        "the schedule healed the fabric at its simulated time",
    )
    check(
        fabric.reachable(split_member, old_leader)
        and fabric.reachable(coordinator.client_id, victim),
        "every link is back up (the timed flip healed with the schedule)",
    )
    for name in sorted(groups):
        g = groups[name]
        for site in g.sites:
            if site.state is SiteState.DOWN:
                g.recover_site(site.name)
        m = fleet.member(name)
        m.journal.heartbeat(int(m.kernel.now), member=name)
    scrubber = Scrubber(journal=fleet_group.journal())
    reports = {name: scrubber.scrub_group(groups[name]) for name in sorted(groups)}
    check(all(r.ok for r in reports.values()), "post-heal scrub passes on every group")
    check(
        all(
            site.committed_entries(g.commit_index) == g.entries()
            for g in groups.values()
            for site in g.sites
        ),
        "every site of every group converged to the same committed prefix",
    )
    coordinator.reinstate(victim)
    coordinator.reinstate(slow)
    recovered = coordinator.recover(good_numa_submission, **waves.rollout)
    check(
        recovered is None and not coordinator.debt,
        "reinstate + recover paid the revert debt — none stranded, nothing in flight",
    )
    check(
        "debt-drained" in [e.get("event") for e in fleet_events()],
        "the drain was journaled (debt-drained)",
    )
    check(member_stock(fleet, victim, "steady"), f"{victim}'s owed policy is back to stock")
    refuel()
    final = coordinator.execute(
        waves.plan("numa-good"), good_numa_submission, **waves.rollout
    )
    print(final.describe())
    print(fabric.describe())
    check(
        final.state is FleetRolloutState.COMPLETE
        and fleet_active(fleet, "numa-good", plan1.kernels()),
        "healed fleet: numa-good uniformly ACTIVE again",
    )
    check(
        not any(fleet.is_quarantined(m.name) for m in fleet.members())
        and fleet_stock(fleet, "steady", plan2.kernels()),
        "never a split fleet: no quarantine left, the halted policy uniformly stock",
    )

    if args.audit:
        print_audits(fleet)
    return check.report(
        "partition scenario passed: the fabric carried the fleet, partitions "
        "were classified and journaled, the stale leader was fenced, and the "
        "heal reconciled every copy"
    )
