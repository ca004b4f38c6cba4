"""Unit tests for the replication layer: sites, groups, replicated
journals, and the commit-time serialization ledger.

The contract under test is RepCRec's available-copies model: quorum
commit against the full membership, read-your-writes through a fenced
leader, the recovered-site read gate, and first-committer-wins
serialization of concurrent rollouts.
"""

import pytest

from repro.controlplane.journal import JournalError
from repro.faults import (
    SITE_REPLICATION_APPEND,
    SITE_REPLICATION_CATCHUP,
    SITE_REPLICATION_READ,
    FaultPlan,
    injected,
)
from repro.replication import (
    NoQuorum,
    ReplicaGroup,
    ReplicatedJournal,
    ReplicationError,
    SerializationConflict,
    SerializationLedger,
    SiteDown,
    SiteState,
    SiteUnreadable,
    StaleLeaderFenced,
    TxnStatus,
)
from repro.storage import encode_record


def entry(n):
    return {"kind": "transition", "policy": "p", "seq": n}


class TestQuorumWrites:
    def test_append_commits_on_every_live_site(self):
        group = ReplicaGroup("m")
        seq = group.append(entry(1))
        assert seq == 1 and group.commit_index == 1
        assert all(site.entry(1)["seq"] == 1 for site in group.sites)
        assert all(site.commit_index == 1 for site in group.sites)

    def test_commit_survives_one_dead_site(self):
        group = ReplicaGroup("m")
        group.fail_site("site2")
        group.append(entry(1))
        assert group.commit_index == 1
        assert [e["seq"] for e in group.entries()] == [1]

    def test_no_quorum_rolls_the_tentative_write_back(self):
        group = ReplicaGroup("m")
        group.fail_site("site1")
        group.fail_site("site2")
        with pytest.raises(NoQuorum):
            group.append(entry(1))
        assert group.commit_index == 0
        assert all(1 not in site.log for site in group.sites)

    def test_quorum_is_majority_of_full_membership_not_live_set(self):
        # 2 of 5 sites live: both ack, but a "majority of the living"
        # would let a committed entry die with a single further failure.
        group = ReplicaGroup("m", nr_sites=5)
        for name in ("site2", "site3", "site4"):
            group.fail_site(name)
        with pytest.raises(NoQuorum):
            group.append(entry(1))

    def test_no_quorum_is_a_journal_error(self):
        # The integration contract: callers that tolerate a failed
        # journal shard tolerate a lost quorum identically.
        assert issubclass(NoQuorum, JournalError)
        assert issubclass(ReplicationError, JournalError)


class TestFailover:
    def test_leader_death_elects_and_bumps_the_lease(self):
        group = ReplicaGroup("m")
        group.append(entry(1))
        old, epoch = group.leader.name, group.lease_epoch
        group.fail_site(old)
        assert group.leader.name != old
        assert group.lease_epoch > epoch
        assert group.failovers == 1
        assert [e["seq"] for e in group.entries()] == [1]

    def test_leader_dying_under_append_still_commits_the_write(self):
        group = ReplicaGroup("m")
        old = group.leader.name
        plan = FaultPlan(seed=1, name="kill-leader")
        plan.fail(SITE_REPLICATION_APPEND, times=1, match={"replica": old})
        with injected(plan):
            seq = group.append(entry(1))
        assert seq == 1 and group.commit_index == 1
        assert group.leader.name != old and group.failovers == 1
        assert [e["seq"] for e in group.entries()] == [1]

    def test_on_failover_hook_fires_once_per_move(self):
        moved = []
        group = ReplicaGroup("m", on_failover=lambda g: moved.append(g.leader.name))
        group.fail_site(group.leader.name)
        assert moved == [group.leader.name]

    def test_election_truncates_uncommitted_residue(self):
        group = ReplicaGroup("m")
        group.append(entry(1))
        survivor = group.sites[1]
        # An ack of a write that never reached quorum:
        survivor.log[2] = encode_record(2, {"kind": "ghost"})
        group.fail_site(group.leader.name)
        assert group.leader is survivor  # longest log wins the election
        assert 2 not in survivor.log
        assert [e["seq"] for e in group.entries()] == [1]

    def test_no_electable_site_raises_no_quorum(self):
        group = ReplicaGroup("m")
        for site in list(group.sites):
            site.fail()
        with pytest.raises(NoQuorum):
            group.elect()

    def test_read_fault_fails_over_to_another_readable_site(self):
        group = ReplicaGroup("m")
        group.append(entry(1))
        plan = FaultPlan(seed=1, name="dark-read")
        plan.fail(SITE_REPLICATION_READ, times=1, match={"replica": group.leader.name})
        with injected(plan):
            entries = group.entries()
        assert [e["seq"] for e in entries] == [1]
        assert group.failovers == 1


class TestLeaseFencing:
    def test_stale_lease_is_fenced_after_failover(self):
        group = ReplicaGroup("m")
        lease = group.lease()
        group.fail_site(group.leader.name)  # the election bumps the epoch
        with pytest.raises(StaleLeaderFenced):
            group.append(entry(1), lease=lease)
        assert group.commit_index == 0

    def test_fence_rides_the_member_epoch(self):
        group = ReplicaGroup("m")
        lease = group.lease()
        assert group.fence(7) >= 7
        with pytest.raises(StaleLeaderFenced):
            group.append(entry(1), lease=lease)
        # A re-acquired lease writes fine.
        group.append(entry(1), lease=group.lease())
        assert group.commit_index == 1

    def test_fence_is_monotonic_even_for_lower_epochs(self):
        group = ReplicaGroup("m")
        before = group.lease_epoch
        assert group.fence(0) == before + 1


class TestRecoveryReadGate:
    def test_recovered_site_refuses_reads_until_committed_write(self):
        group = ReplicaGroup("m")
        group.append(entry(1))
        follower = next(s for s in group.sites if s is not group.leader)
        group.fail_site(follower.name)
        group.append(entry(2))  # missed while down
        group.recover_site(follower.name)
        assert follower.state is SiteState.RECOVERING
        with pytest.raises(SiteUnreadable):
            follower.read(group.commit_index)
        group.append(entry(3))  # first post-recovery committed write
        assert follower.readable and follower.state is SiteState.UP
        assert [e["seq"] for e in follower.read(group.commit_index)] == [1, 2, 3]

    def test_down_site_refuses_reads_and_writes(self):
        group = ReplicaGroup("m")
        group.fail_site("site1")
        with pytest.raises(SiteDown):
            group.site("site1").read(0)
        with pytest.raises(SiteDown):
            group.site("site1").append(1, entry(1), group.lease_epoch)

    def test_catchup_fault_fails_the_site_not_the_write(self):
        group = ReplicaGroup("m")
        group.append(entry(1))
        follower = next(s for s in group.sites if s is not group.leader)
        group.fail_site(follower.name)
        group.append(entry(2))
        group.recover_site(follower.name)
        plan = FaultPlan(seed=1, name="torn-catchup")
        plan.fail(SITE_REPLICATION_CATCHUP, times=1, match={"replica": follower.name})
        with injected(plan):
            group.append(entry(3))
        assert group.commit_index == 3  # the write committed on the others
        assert group.site(follower.name).state is SiteState.DOWN

    def test_site_log_is_durable_across_failure(self):
        group = ReplicaGroup("m")
        group.append(entry(1))
        follower = next(s for s in group.sites if s is not group.leader)
        group.fail_site(follower.name)
        assert follower.entry(1)["seq"] == 1  # disk survives the death


class TestReplicatedJournal:
    def test_round_trip_and_heartbeat(self):
        group = ReplicaGroup("m")
        journal = group.journal()
        assert isinstance(journal, ReplicatedJournal)
        journal.append({"kind": "client", "client": "a"})
        journal.heartbeat(5)
        assert [e["kind"] for e in journal.entries()] == ["client", "heartbeat"]
        assert len(journal) == 2

    def test_entries_need_a_kind(self):
        with pytest.raises(JournalError):
            ReplicaGroup("m").journal().append({"client": "a"})

    def test_last_transition_reads_through_the_group(self):
        journal = ReplicaGroup("m").journal()
        journal.append({"kind": "transition", "policy": "p", "to": "VERIFIED"})
        journal.append({"kind": "transition", "policy": "p", "to": "ACTIVE"})
        assert journal.last_transition("p")["to"] == "ACTIVE"

    def test_survives_any_single_site_death(self):
        group = ReplicaGroup("m")
        journal = group.journal()
        journal.append({"kind": "client", "client": "a"})
        group.fail_site(group.leader.name)
        journal.append({"kind": "client", "client": "b"})
        assert [e["client"] for e in journal.entries()] == ["a", "b"]

    def test_lost_quorum_surfaces_as_journal_error(self):
        group = ReplicaGroup("m")
        journal = group.journal()
        group.fail_site("site1")
        group.fail_site("site2")
        with pytest.raises(JournalError):
            journal.append({"kind": "client", "client": "a"})

    def test_two_journal_handles_share_the_group_log(self):
        # A restarted daemon's fresh handle reads everything the old
        # handle committed — the handle is stateless, the group is not.
        group = ReplicaGroup("m")
        group.journal().append({"kind": "client", "client": "a"})
        assert [e["client"] for e in group.journal().entries()] == ["a"]


class TestSerializationLedger:
    def test_disjoint_concurrent_rollouts_both_commit(self):
        ledger = SerializationLedger()
        a = ledger.begin("a", locks=["k0/shard0"])
        b = ledger.begin("b", locks=["k1/shard1"])
        ledger.commit(a)
        ledger.commit(b)
        assert {t.txn_id for t in ledger.committed()} == {"a", "b"}

    def test_overlapping_concurrent_rollouts_second_aborts(self):
        ledger = SerializationLedger()
        a = ledger.begin("a", locks=["svc.shard0.lock"])
        b = ledger.begin("b", locks=["svc.shard0.lock", "svc.shard1.lock"])
        ledger.commit(a)
        with pytest.raises(SerializationConflict):
            ledger.commit(b)
        assert b.status is TxnStatus.ABORTED
        assert "cycle" in b.abort_cause
        assert [t.txn_id for t in ledger.committed()] == ["a"]

    def test_serial_rollouts_on_the_same_locks_both_commit(self):
        ledger = SerializationLedger()
        a = ledger.begin("a", locks=["l"])
        ledger.commit(a)
        b = ledger.begin("b", locks=["l"])  # begins after a committed
        ledger.commit(b)
        assert len(ledger.committed()) == 2

    def test_abort_names_the_greatest_overlapping_committer(self):
        ledger = SerializationLedger()
        a = ledger.begin("a", locks=["x"])
        c = ledger.begin("c", locks=["y"])
        late = ledger.begin("late", locks=["x", "y", "z"])
        b = ledger.begin("b", locks=["z"])
        for txn in (a, c, b):
            ledger.commit(txn)
        with pytest.raises(SerializationConflict) as err:
            ledger.commit(late)
        cause = (
            "serialization graph cycle late -> c -> late "
            "(concurrent rollouts over overlapping locks)"
        )
        assert late.abort_cause == cause
        assert str(err.value) == f"late: {cause}"

    def test_abort_is_idempotent_and_journaled(self):
        journal = ReplicaGroup("m").journal()
        ledger = SerializationLedger(journal=journal)
        a = ledger.begin("a", locks=["l"])
        ledger.abort(a, cause="halted")
        ledger.abort(a, cause="again")
        assert [e["event"] for e in journal.entries()] == ["txn-begin", "txn-abort"]
        assert a.abort_cause == "halted"

    def test_conflict_verdict_is_journaled(self):
        journal = ReplicaGroup("m").journal()
        ledger = SerializationLedger(journal=journal)
        a = ledger.begin("a", locks=["l"])
        b = ledger.begin("b", locks=["l"])
        ledger.commit(a)
        with pytest.raises(SerializationConflict):
            ledger.commit(b)
        events = [e["event"] for e in journal.entries()]
        assert events.count("txn-commit") == 1
        assert events.count("txn-abort") == 1

    def test_double_open_of_the_same_txn_id_rejected(self):
        ledger = SerializationLedger()
        ledger.begin("a", locks=["l"])
        with pytest.raises(ReplicationError):
            ledger.begin("a", locks=["l"])

    def test_commit_requires_an_open_transaction(self):
        ledger = SerializationLedger()
        a = ledger.begin("a", locks=["l"])
        ledger.commit(a)
        with pytest.raises(ReplicationError):
            ledger.commit(a)


class TestHealthSnapshot:
    def test_health_names_leader_sites_and_commit_progress(self):
        group = ReplicaGroup("m")
        group.append(entry(1))
        group.fail_site("site2")
        health = group.health()
        assert health["leader"] == group.leader.name
        assert health["commit_index"] == 1
        assert health["quorum"] == 2
        assert health["sites"]["m/site2"]["state"] == "DOWN"
        assert health["sites"][group.leader.name]["readable"] is True
