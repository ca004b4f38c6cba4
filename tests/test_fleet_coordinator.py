"""Wave execution, fleet verdicts, and halt-and-revert.

The scenarios all follow the same shape: a three-kernel fleet under
shard load, a learned placement map, a plan, then ``execute`` with a
good or bad policy.  What varies is the verdict mode and which kernels
breach.
"""

import pytest

from repro.controlplane import PolicyJournal, PolicyState, SLOGuard
from repro.fleet import (
    FleetCoordinator,
    FleetManager,
    FleetRolloutState,
    FleetVerdict,
    RolloutPlanner,
)

from tests._fleet_util import (
    ROLLOUT_KWARGS,
    add_member,
    bad_factory,
    good_factory,
    learn,
    three_kernel_fleet,
)

PLANNER = dict(max_concurrent_kernels=2, canary_kernels=1, bake_ns=100_000)


def fleet_stock(fleet, policy):
    """True iff no kernel still runs ``policy`` (uniformly stock)."""
    for member in fleet.members():
        record = member.daemon.records.get(policy)
        if record is not None and record.live:
            return False
        assert policy not in member.concord.policies
    return True


def fleet_active(fleet, policy):
    return all(
        member.daemon.records[policy].state is PolicyState.ACTIVE
        for member in fleet.members()
    )


def test_good_policy_goes_fleet_wide():
    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    assert len(plan.waves) == 2
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    assert rollout.state is FleetRolloutState.COMPLETE
    assert rollout.completed_waves == [0, 1]
    assert rollout.active_kernels() == ["k0", "k1", "k2"]
    assert fleet_active(fleet, "numa-good")
    events = [e["event"] for e in journal.entries() if e.get("kind") == "fleet"]
    assert events[0] == "plan"
    assert events[-1] == "complete"
    assert events.count("wave-start") == 2 and events.count("wave-done") == 2


def test_canary_kernel_uses_planned_lock_subset():
    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet)
    rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert rollout.state is FleetRolloutState.COMPLETE
    for member in fleet.members():
        record = member.daemon.records["numa-good"]
        assert record.canary_locks == plan.canary_locks[member.name]


def test_bad_policy_halts_fleet_and_reverts_patched_kernels():
    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("bad-numa", learn(fleet))
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    rollout = coord.execute(plan, bad_factory, **ROLLOUT_KWARGS)

    assert rollout.state is FleetRolloutState.HALTED
    assert rollout.halt_cause and "FAIL" in rollout.halt_cause
    assert fleet_stock(fleet, "bad-numa")
    # The halt entry lands before any revert entry: crash-ordering that
    # guarantees recovery can only ever see "unwind", never "resume".
    events = [e["event"] for e in journal.entries() if e.get("kind") == "fleet"]
    assert "halt" in events
    assert all(
        events.index("halt") < i
        for i, event in enumerate(events)
        if event == "revert"
    )
    assert "complete" not in events


def test_any_breach_halts_on_single_bad_kernel():
    # k1's guard forbids any regression at all, so only k1 breaches the
    # good policy; any-breach still takes the whole fleet to stock.
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=2)
    add_member(
        fleet, "k1", locks=3, seed=12, tasks_per_lock=3,
        guard=SLOGuard(max_avg_wait_regression=-0.999),
    )
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet)
    rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    assert rollout.state is FleetRolloutState.HALTED
    assert rollout.outcomes["k1"] == "ROLLED_BACK"
    assert fleet_stock(fleet, "numa-good")


def test_quorum_mode_tolerates_minority_breach():
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=2)
    add_member(
        fleet, "k1", locks=3, seed=12, tasks_per_lock=3,
        guard=SLOGuard(max_avg_wait_regression=-0.999),
    )
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4)
    planner = RolloutPlanner(verdict_mode="quorum", quorum=0.5, **PLANNER)
    plan = planner.plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet)
    rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    # k1 rolled itself back (its own guard did its job) but the fleet
    # met quorum, so the other kernels keep the policy.
    assert rollout.state is FleetRolloutState.COMPLETE
    assert rollout.outcomes["k1"] == "ROLLED_BACK"
    assert sorted(rollout.active_kernels()) == ["k0", "k2"]
    record = fleet.member("k1").daemon.records["numa-good"]
    assert record.state is PolicyState.ROLLED_BACK


def test_stalled_switch_on_a_canary_lock_halts_and_reverts_the_fleet():
    """A member whose canary lock still drains an earlier switch refuses
    the impl-switch install.  That kernel's outcome is an ERROR, the
    plan halts, and every kernel patched so far goes back to stock."""
    from repro.controlplane import PolicySubmission
    from repro.faults import FaultPlan, injected
    from repro.locks import ShflLock, SpinParkMutex

    # No more workers than CPUs, so every revert drain completes.
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=1)
    add_member(fleet, "k1", locks=3, seed=12, tasks_per_lock=2)
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=2)
    plan = RolloutPlanner(
        max_concurrent_kernels=2, canary_kernels=1, bake_ns=0
    ).plan("spin-park", learn(fleet))
    first, second = plan.waves[0].kernels[0], plan.waves[1].kernels[0]
    stock = {
        member.name: {
            lock: member.kernel.locks.get(lock).core.impl
            for lock in member.kernel.locks.names()
        }
        for member in fleet.members()
    }
    victim = fleet.member(second)
    stalled_lock = plan.canary_locks[second][0]
    stall = FaultPlan()
    stall.stall("livepatch.drain", delay_ns=1_000_000_000, times=1)
    with injected(stall):
        victim.concord.switch_lock(
            stalled_lock, lambda old: ShflLock(victim.kernel.engine, name="next")
        )
        # The drain stalls once the lock's current holders have left.
        victim.kernel.run(until=victim.kernel.now + 20_000)
    assert stall.fired["livepatch.drain"] == 1

    def spin_park(member):
        return PolicySubmission(
            impl_factory=lambda old: SpinParkMutex(old.engine, name=f"sp.{old.name}"),
            name="spin-park",
            lock_selector="svc.*.lock",
        )

    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    rollout = coord.execute(plan, spin_park, **ROLLOUT_KWARGS)

    assert rollout.state is FleetRolloutState.HALTED
    entries = [e for e in journal.entries() if e.get("kind") == "fleet"]
    assert "halt" in [e["event"] for e in entries]
    done = {e["kernel"]: e["state"] for e in entries if e["event"] == "kernel-done"}
    # The first wave was live before the second wave's refusal halted it.
    assert done[first] == "ACTIVE"
    assert done[second].startswith("ERROR: ")
    assert "a lock switch is already in progress" in done[second]
    assert rollout.outcomes[second] == done[second]
    assert fleet_stock(fleet, "spin-park")
    for member in fleet.members():
        member.kernel.run(until=member.kernel.now + 200_000)
        for lock, impl in stock[member.name].items():
            if member is victim and lock == stalled_lock:
                continue
            assert member.kernel.locks.get(lock).core.impl is impl, (member.name, lock)


def test_verdict_math():
    v = FleetVerdict("any-breach", 1.0, passed=["a", "b"], breached=[])
    assert v.ok
    v = FleetVerdict("any-breach", 1.0, passed=["a", "b"], breached=["c"])
    assert not v.ok
    v = FleetVerdict("quorum", 0.5, passed=["a"], breached=["b", "c"])
    assert not v.ok  # ceil(0.5 * 3) = 2 > 1
    v = FleetVerdict("quorum", 0.5, passed=["a", "b"], breached=["c"])
    assert v.ok
    assert "FAIL" in FleetVerdict("any-breach", 1.0, [], ["x"]).describe()


def test_journal_failures_do_not_block_execution():
    from repro.faults import FaultPlan, injected

    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    fault = FaultPlan(seed=1)
    # Member daemons have no journals here, so every append is the
    # fleet journal's.  All of them fail except the first (the plan
    # anchor, which is write-or-abort by design): wave and completion
    # entries are best-effort and must not block the rollout.
    fault.fail("controlplane.journal.append", after=1)
    with injected(fault):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert rollout.state is FleetRolloutState.COMPLETE
    assert fleet_active(fleet, "numa-good")
    assert fault.fired["controlplane.journal.append"] > 0


def test_unjournalable_plan_refuses_to_start():
    from repro.controlplane import JournalError
    from repro.faults import FaultPlan, injected
    from repro.fleet.coordinator import PLAN_APPEND_RETRIES
    from repro.netsim import RpcEnvelope

    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    fault = FaultPlan(seed=1)
    fault.fail("controlplane.journal.append", times=None)  # persistent
    before = {member.name: member.kernel.now for member in fleet.active_members()}
    # Losing the plan anchor would make any later crash unrecoverable
    # (patched kernels with no journaled rollout), so once the bounded
    # retries are exhausted the coordinator aborts before touching a
    # single kernel.
    with injected(fault):
        with pytest.raises(JournalError):
            coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert fault.fired["controlplane.journal.append"] == PLAN_APPEND_RETRIES
    assert fleet_stock(fleet, "numa-good")
    # Each pause between attempts ran every in-service kernel forward by
    # one backoff draw of the coordinator's default envelope, in order.
    envelope = RpcEnvelope(retries=1, seed=0)
    paused = envelope.backoff(1) + envelope.backoff(2)
    assert {
        member.name: member.kernel.now - before[member.name]
        for member in fleet.active_members()
    } == {name: paused for name in before}


def test_transient_plan_append_fault_is_retried():
    from repro.faults import FaultPlan, injected

    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    fault = FaultPlan(seed=1)
    fault.fail("controlplane.journal.append", times=1)
    # One fsync flake must not kill an otherwise healthy rollout: the
    # anchor write retries with backoff and the rollout proceeds.
    with injected(fault):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert rollout.state is FleetRolloutState.COMPLETE
    assert fleet_active(fleet, "numa-good")
