"""``scrub``: the storage-integrity acceptance path, in three phases.

Every durable record carries a CRC32 + sequence envelope, and the
``storage.corrupt.*`` model is *silent* rot: a flipped byte the write
never noticed.  This scenario proves the three answers:

1. **scrub + quorum repair** (replicated fleet): one byte of one
   committed record on one replica site is flipped; the health monitor's
   scrub pass detects it, the site is rebuilt byte-for-byte from quorum
   peers, and post-repair reads equal the pre-corruption committed
   prefix exactly — zero committed-entry loss.  The verdict lands
   everywhere it should: the site's ``last_scrub``, the group's health,
   and journaled ``scrub-failed`` / ``scrub-repaired`` events;
2. **snapshot compaction** (same fleet): a member's journal is folded
   into a checksummed snapshot while one level follower is down;
   recovery over snapshot + tail reconstructs the same fleet-wide ACTIVE
   state, and anti-entropy digests agree across a site holding the
   snapshot and one still holding raw records — content, not
   representation, is what is compared;
3. **quarantined salvage** (file-journal fleet): a mid-journal byte of
   one *unreplicated* shard is flipped.  The corruption error names the
   physical line, the shard path, and the owning member; fleet recovery
   does not abort — the member is quarantined, the valid prefix salvaged
   (rotten suffix kept as ``<path>.corrupt``), the stranded ACTIVE
   policy booked as revert debt, and reinstate + drain returns the
   member to stock while the survivors keep serving.
"""

from __future__ import annotations

import os

from ..controlplane import PolicyJournal
from ..controlplane.journal import JournalCorruption
from ..fleet import FleetCoordinator, FleetRolloutState, HealthMonitor
from ..replication import ReplicaGroup
from ..storage import Scrubber, flip_byte, fold_entries
from .harness import (
    SITES,
    Checks,
    Waves,
    fleet_active,
    good_numa_submission,
    journal_dir,
    journal_entries,
    journal_events,
    member_stock,
    print_audits,
    shard_fleet,
)


def run(args) -> int:
    check = Checks("scrub scenario")
    fleet, groups = shard_fleet(args, replicated=True)
    fleet_group = ReplicaGroup("fleet", nr_sites=SITES)
    fleet_journal = fleet_group.journal()
    scrubber = Scrubber(journal=fleet_journal)
    monitor = HealthMonitor(fleet, scrubber=scrubber)
    coordinator = FleetCoordinator(fleet, journal=fleet_journal, health=monitor)
    print(
        f"fleet of {len(fleet)} kernels, journals replicated {SITES} "
        f"ways, scrubber wired into the health monitor"
    )
    waves = Waves(fleet, args.duration_ns)

    # -- phase 1: silent rot on one replica, scrub detects + repairs ---
    print("\nphase 1: silent rot on one replica — scrub detects, quorum repairs")
    good = coordinator.execute(
        waves.plan("numa-good"), good_numa_submission, **waves.rollout
    )
    print(good.describe())
    check(good.state is FleetRolloutState.COMPLETE, "rollout COMPLETE over replicated journals")
    victim_group = groups["k1"]
    committed_before = victim_group.entries()
    follower = next(s for s in victim_group.sites if s is not victim_group.leader)
    seq = max(s for s in follower.log if s <= victim_group.commit_index)
    follower.log[seq] = flip_byte(follower.log[seq], salt=seq)
    print(f"flipped one byte of {follower.name}'s record at seq {seq}")
    probes = monitor.probe_all()
    verdict = probes.get("k1:scrub")
    check(
        verdict is not None and verdict.ok and "repaired" in verdict.detail,
        "the health monitor's scrub pass detected and healed the rot",
    )
    check(
        (follower.last_scrub or "").startswith("repaired from"),
        f"{follower.name} was rebuilt from a quorum peer "
        f"({follower.last_scrub})",
    )
    check(
        # The probe round itself appended heartbeats, so compare the
        # prefix: everything committed before the flip must read back
        # exactly.
        victim_group.entries()[: len(committed_before)] == committed_before,
        "zero committed-entry loss: post-repair reads equal the "
        "pre-corruption committed prefix",
    )
    check(
        victim_group.repairs >= 1 and scrubber.repairs >= 1,
        "the repair is counted by the group and the scrubber",
    )
    health = victim_group.health()
    check(
        health["repairs"] >= 1
        and str(health["sites"][follower.name]["scrub"]).startswith("repaired")
        and all(s["lag"] == 0 for s in health["sites"].values()),
        "group health surfaces the scrub verdict and zero replication lag",
    )
    events = journal_events(fleet_journal)
    check(
        "scrub-failed" in events and "scrub-repaired" in events,
        "the scrub verdict and the repair are journaled",
    )

    # -- phase 2: compaction, then recovery over snapshot + tail -------
    print("\nphase 2: snapshot compaction — recovery replays snapshot + tail")
    target = "k2"
    tgroup = groups[target]
    member = fleet.member(target)
    for _ in range(4):  # heartbeats coalesce under folding
        member.journal.heartbeat(int(member.kernel.now), member=target)
    raw_site = next(s for s in tgroup.sites if s is not tgroup.leader)
    tgroup.fail_site(raw_site.name)  # level when killed: keeps raw records
    before = tgroup.entries()
    stats = member.journal.compact()
    print(
        f"compacted {target}: {stats['before']} entries -> {stats['after']} "
        f"(snapshot at seq {stats['last_seq']})"
    )
    check(stats["after"] < stats["before"], "compaction folded the committed prefix")
    check(
        tgroup.entries() == fold_entries(before),
        "the compacted group serves exactly the folded committed prefix",
    )
    tgroup.recover_site(raw_site.name)
    member.journal.heartbeat(int(member.kernel.now), member=target)
    report = scrubber.scrub_group(tgroup)
    check(
        report.ok and raw_site.base is None and tgroup.leader.base is not None,
        "anti-entropy digests agree across snapshot and raw-log "
        "representations of the same prefix",
    )
    for name in ("k0", "k1"):
        fleet.member(name).journal.compact()
    resumed = coordinator.recover(good_numa_submission, **waves.rollout)
    check(resumed is None, "recovery over compacted journals finds nothing in flight")
    check(
        fleet_active(fleet, "numa-good", good.plan.kernels()),
        "snapshot + tail replay reconstructs fleet-wide ACTIVE state",
    )

    # -- phase 3: an unreplicated shard rots — quarantine + salvage ----
    print("\nphase 3: an unreplicated shard rots — quarantine, salvage, revert debt")
    directory = journal_dir(args, "scrub")
    file_fleet, _ = shard_fleet(args, journal_dir=directory)
    file_journal = PolicyJournal(os.path.join(directory, "fleet.jsonl"))
    file_coord = FleetCoordinator(file_fleet, journal=file_journal)
    file_waves = Waves(file_fleet, args.duration_ns)
    good2 = file_coord.execute(
        file_waves.plan("numa-good"), good_numa_submission, **waves.rollout
    )
    check(good2.state is FleetRolloutState.COMPLETE, "file-journal rollout COMPLETE")
    victim = file_fleet.member("k1")
    for _ in range(3):
        victim.journal.heartbeat(int(victim.kernel.now), member="k1")
    shard = victim.journal.path
    with open(shard, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    rotten_line = len(lines) - 1  # 1-based: the second-to-last line
    lines[rotten_line - 1] = (
        flip_byte(lines[rotten_line - 1].rstrip("\n"), salt=17) + "\n"
    )
    with open(shard, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"flipped one byte of {shard} line {rotten_line} (mid-journal)")
    caught = None
    try:
        PolicyJournal(shard).entries()
    except JournalCorruption as exc:
        caught = exc
    check(
        caught is not None
        and caught.line == rotten_line
        and caught.path == shard
        and "not a torn write" in str(caught),
        "the corruption error reports the physical line and the shard path",
    )
    file_coord.recover(good_numa_submission, **waves.rollout)
    check(
        file_fleet.is_quarantined("k1"),
        "fleet recovery quarantined the rotten shard's member instead of aborting",
    )
    check(
        os.path.exists(shard + ".corrupt"),
        "the rotten suffix is preserved as evidence (<shard>.corrupt)",
    )
    check(
        any(d["kernel"] == "k1" and d["policy"] == "numa-good" for d in file_coord.debt),
        "the stranded ACTIVE policy is booked as revert debt",
    )
    rot_events = journal_entries(file_journal, "shard-corrupt")
    check(
        rot_events
        and rot_events[0].get("kernel") == "k1"
        and "member k1" in str(rot_events[0].get("cause", "")),
        "the corruption is journaled naming the owning member",
    )
    check(
        fleet_active(
            file_fleet, "numa-good", [k for k in good2.plan.kernels() if k != "k1"]
        ),
        "the surviving kernels keep serving numa-good",
    )
    file_coord.reinstate("k1")
    drained = file_coord.drain_debt()
    check(
        any(d["kernel"] == "k1" for d in drained),
        "reinstate + drain pays the quarantined member's debt",
    )
    check(
        member_stock(file_fleet, "k1", "numa-good"),
        "the reinstated member is back to stock",
    )

    if args.audit:
        print_audits(fleet)
    return check.report(
        "scrub scenario passed: checksums caught the rot, quorum peers "
        "repaired it, snapshots replayed faithfully, and the unreplicated "
        "casualty was quarantined with its debt booked"
    )
