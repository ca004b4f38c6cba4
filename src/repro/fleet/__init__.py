"""Fleet sharding: one control plane driving many kernels.

A single :class:`~repro.controlplane.Concordd` tunes the locks of one
kernel; production control planes drive *fleets*.  This package shards
the control plane without changing its per-kernel safety story — every
kernel keeps its own daemon, journal shard, SLO guard, and admission
gates — and adds the fleet-level decision layer on top:

* :mod:`.manager` — :class:`FleetManager`: the membership directory
  (named :class:`FleetMember`\\ s registered/deregistered at runtime,
  each owning a kernel + Concord + daemon + journal shard);
* :mod:`.placement` — :class:`PlacementMap`: where each target lock
  instance lives (kernel, dominant socket, contention class), learned
  from per-kernel profiler sessions plus a socket-counting probe;
* :mod:`.planner` — :class:`RolloutPlanner`: placement map + policy →
  :class:`FleetPlan`: canary kernels first, then cohorts ordered by
  blast radius, bounded by max-concurrent-kernels, with per-kernel
  placement-aware canary lock subsets;
* :mod:`.coordinator` — :class:`FleetCoordinator`: executes a plan
  wave-by-wave, aggregates per-kernel canary verdicts into a fleet
  verdict (any-breach or quorum), halts + reverts every patched kernel
  on breach, and journals fleet transitions so a restarted coordinator
  resumes or unwinds a mid-wave rollout — never a split fleet;
* :mod:`.health` — :class:`HealthMonitor`: per-member liveness probes
  (daemon responds, kernel clock advances, journal shard appendable)
  escalating HEALTHY → SUSPECT → DEAD, plus the degraded-mode
  vocabulary (:class:`MemberUnreachable`, :class:`EpochFenced`) the
  coordinator speaks when members die mid-rollout: quarantine, epoch
  fencing, and journaled revert debt drained on reinstatement.
"""

from .coordinator import (
    FleetCoordinator,
    FleetRollout,
    FleetRolloutState,
    FleetVerdict,
)
from .health import (
    EpochFenced,
    HealthMonitor,
    HealthState,
    MemberUnreachable,
    ProbeRecord,
)
from .manager import FleetError, FleetManager, FleetMember
from .placement import LockPlacement, PlacementMap
from .planner import FleetPlan, FleetPlanError, RolloutPlanner, WaveSpec

__all__ = [
    "FleetError",
    "FleetManager",
    "FleetMember",
    "LockPlacement",
    "PlacementMap",
    "FleetPlan",
    "FleetPlanError",
    "RolloutPlanner",
    "WaveSpec",
    "FleetCoordinator",
    "FleetRollout",
    "FleetRolloutState",
    "FleetVerdict",
    "EpochFenced",
    "HealthMonitor",
    "HealthState",
    "MemberUnreachable",
    "ProbeRecord",
]
