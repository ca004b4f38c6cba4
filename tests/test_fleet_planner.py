"""Placement learning and wave planning.

Placement is *measured*: the probe and profiler run on each member's
own kernel, so the map reflects observed sockets and contention, not
configuration.  Plans then order kernels by ascending blast radius and
pick placement-diverse canary subsets.
"""

import pytest

from repro.fleet import (
    FleetPlan,
    FleetPlanError,
    LockPlacement,
    PlacementMap,
    RolloutPlanner,
)
from repro.fleet.placement import _CLASS_WEIGHT

from tests._fleet_util import FleetManager, add_member, learn, three_kernel_fleet


# ----------------------------------------------------------------------
# PlacementMap.learn
# ----------------------------------------------------------------------
def test_learn_covers_every_member_and_lock():
    fleet = three_kernel_fleet()
    placement = learn(fleet)
    assert placement.kernels() == ["k0", "k1", "k2"]
    assert len(placement.for_kernel("k0")) == 2
    assert len(placement.for_kernel("k1")) == 3
    assert len(placement.for_kernel("k2")) == 3
    assert len(placement) == 8
    for kernel in placement.kernels():
        names = sorted(p.lock_name for p in placement.for_kernel(kernel))
        assert placement.locks(kernel) == names


def test_learn_classifies_contention_by_load():
    fleet = three_kernel_fleet()
    placement = learn(fleet)
    # One task per lock never contends; four tasks per lock always do.
    assert all(p.contention == "cold" for p in placement.for_kernel("k0"))
    assert any(p.contention == "hot" for p in placement.for_kernel("k2"))
    assert placement.blast_radius("k0") < placement.blast_radius("k2")


def test_learn_observes_sockets_and_unloads_probe():
    fleet = FleetManager()
    member = add_member(fleet, "k0", locks=2, tasks_per_lock=2)
    before = set(member.concord.policies)
    placement = learn(fleet)
    # The probe + profiler programs are gone after learning.
    assert set(member.concord.policies) == before
    sockets = {p.socket for p in placement.for_kernel("k0")}
    assert sockets <= set(range(member.kernel.topology.sockets))


def test_idle_lock_is_cold_with_no_socket():
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, workload_ns=0)  # nobody runs
    placement = learn(fleet)
    for p in placement.for_kernel("k0"):
        assert p.contention == "cold"
        assert p.socket == -1
        assert p.acquired == 0


# ----------------------------------------------------------------------
# RolloutPlanner
# ----------------------------------------------------------------------
def _placements(kernel, specs):
    """specs: (lock_name, socket, contention) triples."""
    return [
        LockPlacement(
            kernel=kernel,
            lock_name=name,
            socket=socket,
            contention=contention,
            acquired=10,
            contended=5,
            avg_wait_ns=100.0,
        )
        for name, socket, contention in specs
    ]


def _map(by_kernel):
    placements = []
    for kernel, specs in by_kernel.items():
        placements.extend(_placements(kernel, specs))
    return PlacementMap(placements)


def test_waves_order_by_ascending_blast_radius():
    placement = _map(
        {
            "hot": [("a", 0, "hot"), ("b", 1, "hot")],       # radius 8
            "mild": [("a", 0, "warm")],                       # radius 2
            "cool": [("a", 0, "cold")],                       # radius 1
            "warm": [("a", 0, "warm"), ("b", 1, "cold")],     # radius 3
        }
    )
    planner = RolloutPlanner(max_concurrent_kernels=2, canary_kernels=1, bake_ns=0)
    plan = planner.plan("p", placement)
    assert [w.kernels for w in plan.waves] == [["cool"], ["mild", "warm"], ["hot"]]
    assert plan.waves[0].canary and not plan.waves[1].canary
    assert [w.index for w in plan.waves] == [0, 1, 2]


def test_wave_width_honors_max_concurrent_kernels():
    placement = _map({f"k{i}": [("a", 0, "cold")] for i in range(7)})
    planner = RolloutPlanner(max_concurrent_kernels=3, canary_kernels=2)
    plan = planner.plan("p", placement)
    widths = [len(w.kernels) for w in plan.waves]
    assert widths == [2, 3, 2]
    assert plan.kernels() == sorted(f"k{i}" for i in range(7))


def test_canary_subset_spans_sockets_and_classes():
    planner = RolloutPlanner(canary_fraction=0.5)
    placements = _placements(
        "k",
        [
            ("s0.a", 0, "hot"),
            ("s0.b", 0, "hot"),
            ("s0.c", 0, "hot"),
            ("s1.a", 1, "cold"),
            ("s1.b", 1, "cold"),
            ("s1.c", 1, "cold"),
        ],
    )
    subset = planner.canary_subset(placements)
    assert len(subset) == 3
    # Round-robin across (socket, class) groups: both sockets appear —
    # a sorted-prefix subset would have canaried socket 0 only.
    assert any(name.startswith("s0.") for name in subset)
    assert any(name.startswith("s1.") for name in subset)
    # Hottest group leads, so a minimal subset canaries the risky locks.
    assert subset[0].startswith("s0.")


def test_canary_subset_respects_min_and_bounds():
    planner = RolloutPlanner(canary_fraction=0.1, min_canary_locks=2)
    placements = _placements("k", [(f"l{i}", 0, "cold") for i in range(4)])
    assert len(planner.canary_subset(placements)) == 2
    # Never more locks than exist.
    one = _placements("k", [("only", 0, "cold")])
    assert planner.canary_subset(one) == ["only"]
    with pytest.raises(FleetPlanError):
        planner.canary_subset([])


def test_plan_round_trips_serialization():
    placement = _map(
        {"a": [("x", 0, "hot")], "b": [("x", 1, "cold")], "c": [("x", 0, "warm")]}
    )
    planner = RolloutPlanner(
        max_concurrent_kernels=1, verdict_mode="quorum", quorum=0.6, bake_ns=123
    )
    plan = planner.plan("p", placement)
    clone = FleetPlan.deserialize(plan.serialize())
    assert clone.policy == plan.policy
    assert clone.verdict_mode == "quorum" and clone.quorum == 0.6
    assert [w.kernels for w in clone.waves] == [w.kernels for w in plan.waves]
    assert [w.bake_ns for w in clone.waves] == [123] * len(plan.waves)
    assert clone.canary_locks == plan.canary_locks


def test_planner_rejects_bad_knobs_and_empty_maps():
    with pytest.raises(FleetPlanError):
        RolloutPlanner(max_concurrent_kernels=0)
    with pytest.raises(FleetPlanError):
        RolloutPlanner(canary_kernels=0)
    with pytest.raises(FleetPlanError):
        RolloutPlanner(verdict_mode="majority-ish")
    with pytest.raises(FleetPlanError):
        RolloutPlanner(quorum=0.0)
    with pytest.raises(FleetPlanError, match="no kernels"):
        RolloutPlanner().plan("p", PlacementMap([]))


def test_class_weights_are_ordered():
    assert _CLASS_WEIGHT["hot"] > _CLASS_WEIGHT["warm"] > _CLASS_WEIGHT["cold"]
