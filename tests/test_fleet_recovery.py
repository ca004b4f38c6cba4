"""Mid-wave crash recovery: resume or unwind, never a split fleet.

The crash model matches the single-kernel drill — an ``InjectedCrash``
kills the whole control-plane process (coordinator + member daemons)
with no teardown; the kernels live on.  A new coordinator over the same
journals must converge the fleet to one of exactly two shapes:

* **resume** — every completed wave's kernels verified ACTIVE, the
  remaining waves executed, policy fleet-wide; or
* **unwind** — every patched kernel reverted to stock.

Anything in between is a split fleet, and is asserted against in every
scenario here.
"""

import pytest

from repro.controlplane import PolicyJournal, PolicyState
from repro.faults import (
    FaultPlan,
    InjectedCrash,
    SITE_FLEET_REVERT,
    SITE_FLEET_WAVE,
    injected,
)
from repro.fleet import FleetCoordinator, FleetRolloutState, RolloutPlanner
from repro.locks import SpinParkMutex

from tests._fleet_util import ROLLOUT_KWARGS, add_member, good_factory, learn

PLANNER = dict(max_concurrent_kernels=2, canary_kernels=1, bake_ns=100_000)


def journaled_fleet(**extra):
    from repro.fleet import FleetManager

    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=1,
               journal=PolicyJournal(), **extra)
    add_member(fleet, "k1", locks=3, seed=12, tasks_per_lock=3,
               journal=PolicyJournal(), **extra)
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4,
               journal=PolicyJournal(), **extra)
    return fleet


def assert_not_split(fleet, policy):
    """The core invariant: all-patched or all-stock, nothing between."""
    states = {}
    for member in fleet.members():
        record = member.daemon.records.get(policy)
        states[member.name] = (
            record.state if record is not None and record.live else "stock"
        )
    live = [k for k, s in states.items() if s != "stock"]
    assert len(live) in (0, len(states)), f"split fleet: {states}"
    return states


def test_crash_between_waves_resumes_remaining_waves():
    fleet = journaled_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)

    fault = FaultPlan(seed=5)
    # First wave checkpoint passes; the second (wave 1) kills the
    # process after wave 0 was journaled done.
    fault.crash(SITE_FLEET_WAVE, after=1, times=1)
    with injected(fault):
        with pytest.raises(InjectedCrash):
            coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    # Wave 0's kernel is patched, waves 1's are not — mid-crash state.
    assert fleet.member("k0").daemon.records["numa-good"].state is PolicyState.ACTIVE

    fresh = FleetCoordinator(fleet, journal=journal)
    rollout = fresh.recover(good_factory, **ROLLOUT_KWARGS)
    assert rollout is not None
    assert rollout.state is FleetRolloutState.COMPLETE
    assert rollout.resumed_from_wave == 1
    states = assert_not_split(fleet, "numa-good")
    assert all(s is PolicyState.ACTIVE for s in states.values())
    events = [e["event"] for e in journal.entries() if e.get("kind") == "fleet"]
    assert events[-1] == "complete"


def test_crash_mid_canary_rolls_back_then_resumes():
    fleet = journaled_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)

    fault = FaultPlan(seed=5)
    # Crash inside a canary watch window of wave 1 (the canary
    # checkpoint fires repeatedly during wave 0 — skip past those).
    fault.crash("controlplane.canary.checkpoint", after=6, times=1)
    with injected(fault):
        with pytest.raises(InjectedCrash):
            coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    fresh = FleetCoordinator(fleet, journal=journal)
    rollout = fresh.recover(good_factory, **ROLLOUT_KWARGS)
    assert rollout is not None
    # Member recovery rolled the unwatched canary back (terminal), so
    # the resumed wave re-submits it; either way the fleet converges.
    assert rollout.state in (FleetRolloutState.COMPLETE, FleetRolloutState.UNWOUND)
    states = assert_not_split(fleet, "numa-good")
    if rollout.state is FleetRolloutState.COMPLETE:
        assert all(s is PolicyState.ACTIVE for s in states.values())


def test_crash_during_revert_finishes_unwind_on_recovery():
    fleet = journaled_fleet()
    # Quorum planner would tolerate the breach; any-breach halts.
    plan = RolloutPlanner(**PLANNER).plan("bad-numa", learn(fleet))
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)

    from tests._fleet_util import bad_factory

    fault = FaultPlan(seed=5)
    fault.crash(SITE_FLEET_REVERT, times=1)  # die on the first revert
    with injected(fault):
        with pytest.raises(InjectedCrash):
            coord.execute(plan, bad_factory, **ROLLOUT_KWARGS)

    events = [e["event"] for e in journal.entries() if e.get("kind") == "fleet"]
    assert "halt" in events  # journaled before the crash

    fresh = FleetCoordinator(fleet, journal=journal)
    rollout = fresh.recover(bad_factory, **ROLLOUT_KWARGS)
    assert rollout is not None
    assert rollout.state is FleetRolloutState.UNWOUND
    states = assert_not_split(fleet, "bad-numa")
    assert all(s == "stock" for s in states.values())
    events = [e["event"] for e in journal.entries() if e.get("kind") == "fleet"]
    assert events[-1] == "unwound"


def test_unrecoverable_completed_wave_unwinds_everything():
    # The policy switches lock implementations via a factory registered
    # in each daemon's impl registry.  After the crash the registry
    # loses the factory (the operator's plugin didn't survive the
    # restart), so the completed wave's kernel cannot be re-attached —
    # member recovery rolls it back fail-open, and the fleet must then
    # unwind the rollout rather than resume into a split fleet.
    registry = {"spin_park": lambda old: SpinParkMutex(old.engine, name=f"sp.{old.name}")}
    fleet = journaled_fleet(impl_registry=registry)
    from repro.controlplane import PolicySubmission
    from repro.concord.policies.numa import make_numa_policy

    def switching_factory(member):
        return PolicySubmission(
            spec=make_numa_policy(lock_selector="svc.*.lock", name="numa-good"),
            impl_factory=registry["spin_park"],
            impl_name="spin_park",
        )

    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)

    fault = FaultPlan(seed=5)
    fault.crash(SITE_FLEET_WAVE, after=1, times=1)  # die entering wave 1
    with injected(fault):
        with pytest.raises(InjectedCrash):
            coord.execute(plan, switching_factory, **ROLLOUT_KWARGS)
    assert fleet.member("k0").daemon.records["numa-good"].state is PolicyState.ACTIVE

    registry.pop("spin_park")  # the factory does not survive the restart

    def crippled_factory(member):
        return PolicySubmission(
            spec=make_numa_policy(lock_selector="svc.*.lock", name="numa-good")
        )

    fresh = FleetCoordinator(fleet, journal=journal)
    rollout = fresh.recover(crippled_factory, **ROLLOUT_KWARGS)
    assert rollout is not None
    assert rollout.state is FleetRolloutState.UNWOUND
    assert "not ACTIVE" in rollout.halt_cause
    states = assert_not_split(fleet, "numa-good")
    assert all(s == "stock" for s in states.values())


def test_recover_with_nothing_in_flight_is_a_noop():
    fleet = journaled_fleet()
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    assert coord.recover(good_factory) is None

    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert rollout.state is FleetRolloutState.COMPLETE
    # Completed rollout: recovery restarts members, re-attaches their
    # ACTIVE policies, and has nothing fleet-level to do.
    fresh = FleetCoordinator(fleet, journal=journal)
    assert fresh.recover(good_factory, **ROLLOUT_KWARGS) is None
    states = assert_not_split(fleet, "numa-good")
    assert all(s is PolicyState.ACTIVE for s in states.values())


def test_recover_without_fleet_journal_is_refused():
    from repro.fleet import FleetError

    fleet = journaled_fleet()
    coord = FleetCoordinator(fleet, journal=None)
    with pytest.raises(FleetError, match="journal"):
        coord.recover(good_factory)


@pytest.mark.parametrize("compacted", [False, True], ids=["raw", "compacted"])
def test_rerun_of_an_identical_plan_recovers_the_latest_rollout(compacted):
    fleet = journaled_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    journal = PolicyJournal()
    first = FleetCoordinator(fleet, journal=journal)
    done = first.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert done.state is FleetRolloutState.COMPLETE
    for member in fleet.members():
        member.daemon.withdraw(first.client_id, "numa-good")

    # A second coordinator starts its seq at 1 too, so its plan anchor
    # is byte-identical to the first rollout's; it dies entering wave 1.
    second = FleetCoordinator(fleet, journal=journal)
    fault = FaultPlan(seed=5)
    fault.crash(SITE_FLEET_WAVE, after=1, times=1)
    with injected(fault):
        with pytest.raises(InjectedCrash):
            second.execute(plan, good_factory, **ROLLOUT_KWARGS)
    anchors = [e for e in journal.entries() if e.get("event") == "plan"]
    assert len(anchors) == 2 and anchors[0] == anchors[1]
    if compacted:
        journal.compact()

    # Recovery must read the second rollout's window, not the first
    # one's "complete", and finish it.
    rollout = FleetCoordinator(fleet, journal=journal).recover(
        good_factory, **ROLLOUT_KWARGS
    )
    assert rollout is not None
    assert rollout.state is FleetRolloutState.COMPLETE
    assert rollout.resumed_from_wave == 1
    states = assert_not_split(fleet, "numa-good")
    assert all(s is PolicyState.ACTIVE for s in states.values())
