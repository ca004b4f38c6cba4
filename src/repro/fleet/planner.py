"""Rollout planning: placement map + submission → per-kernel waves.

The planner answers three questions the single-kernel canary engine
never had to:

* **order** — which kernels see the policy first?  Ascending blast
  radius: the canary wave is the kernels where a bad policy hurts the
  least, and the hottest kernels patch last, after the fleet verdict
  has had the most chances to stop a regression.
* **width** — how many kernels patch at once?  Bounded by
  ``max_concurrent_kernels`` so a surprise regression is contained to
  one wave's worth of kernels.
* **canary locks** — which lock instances inside each kernel carry the
  canary?  A placement-aware subset: one lock per ``(socket,
  contention-class)`` group, round-robin until the quota is met, so a
  NUMA-pathological policy cannot hide by canarying only same-socket
  locks.

A :class:`FleetPlan` is pure data — (de)serializable so the coordinator
can journal it and a recovering coordinator can rebuild the exact wave
structure it crashed under.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple

from ..controlplane.lifecycle import ControlPlaneError
from .placement import PlacementMap

__all__ = ["FleetPlan", "FleetPlanError", "RolloutPlanner", "WaveSpec"]

VERDICT_MODES = ("any-breach", "quorum")


class FleetPlanError(ControlPlaneError):
    """The planner cannot produce a sane plan from these inputs."""


class WaveSpec(NamedTuple):
    """One wave: the kernels patched together, then baked together."""

    index: int
    kernels: List[str]
    #: True for the canary wave(s) that gate the rest of the fleet.
    canary: bool
    bake_ns: int

    def describe(self) -> str:
        tag = "canary" if self.canary else "cohort"
        return f"wave {self.index} ({tag}): {', '.join(self.kernels)}"


class FleetPlan:
    """A fully materialized rollout: waves plus per-kernel canary locks."""

    def __init__(
        self,
        policy: str,
        waves: List[WaveSpec],
        canary_locks: Dict[str, List[str]],
        verdict_mode: str = "any-breach",
        quorum: float = 1.0,
    ) -> None:
        self.policy = policy
        self.waves = waves
        self.canary_locks = canary_locks
        self.verdict_mode = verdict_mode
        self.quorum = quorum

    def kernels(self) -> List[str]:
        return [name for wave in self.waves for name in wave.kernels]

    # ------------------------------------------------------------------
    def serialize(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "verdict_mode": self.verdict_mode,
            "quorum": self.quorum,
            "waves": [
                {
                    "index": w.index,
                    "kernels": list(w.kernels),
                    "canary": w.canary,
                    "bake_ns": w.bake_ns,
                }
                for w in self.waves
            ],
            "canary_locks": {k: list(v) for k, v in self.canary_locks.items()},
        }

    @classmethod
    def deserialize(cls, data: Dict[str, object]) -> "FleetPlan":
        waves = [
            WaveSpec(
                index=int(w["index"]),
                kernels=list(w["kernels"]),
                canary=bool(w["canary"]),
                bake_ns=int(w["bake_ns"]),
            )
            for w in data["waves"]
        ]
        return cls(
            policy=str(data["policy"]),
            waves=waves,
            canary_locks={k: list(v) for k, v in dict(data["canary_locks"]).items()},
            verdict_mode=str(data.get("verdict_mode", "any-breach")),
            quorum=float(data.get("quorum", 1.0)),
        )

    def describe(self) -> str:
        lines = [
            f"fleet plan for {self.policy!r} "
            f"({self.verdict_mode}, quorum={self.quorum:.2f})"
        ]
        for wave in self.waves:
            lines.append("  " + wave.describe())
            for kernel in wave.kernels:
                locks = self.canary_locks.get(kernel, [])
                lines.append(f"    {kernel}: canary on {', '.join(locks) or '<plan>'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"FleetPlan({self.policy!r}, {len(self.waves)} waves, "
            f"{len(self.kernels())} kernels)"
        )


class RolloutPlanner:
    """Turns a placement map into a :class:`FleetPlan`.

    Args:
        max_concurrent_kernels: wave width for non-canary cohorts.
        canary_kernels: how many kernels form the gating first wave.
        bake_ns: simulated time each wave bakes before the next starts.
        verdict_mode: "any-breach" (one kernel breach halts the fleet)
            or "quorum" (halt only when the passing fraction drops
            below ``quorum``).
        quorum: required passing fraction for "quorum" mode.
        canary_fraction: fraction of a kernel's matched locks carrying
            the canary (subject to ``min_canary_locks``).
        min_canary_locks: lower bound on canary subset size per kernel.
    """

    def __init__(
        self,
        max_concurrent_kernels: int = 2,
        canary_kernels: int = 1,
        bake_ns: int = 200_000,
        verdict_mode: str = "any-breach",
        quorum: float = 1.0,
        canary_fraction: float = 0.25,
        min_canary_locks: int = 1,
    ) -> None:
        if max_concurrent_kernels < 1:
            raise FleetPlanError("max_concurrent_kernels must be >= 1")
        if canary_kernels < 1:
            raise FleetPlanError("canary_kernels must be >= 1")
        if verdict_mode not in VERDICT_MODES:
            raise FleetPlanError(
                f"verdict_mode must be one of {VERDICT_MODES}, got {verdict_mode!r}"
            )
        if not 0.0 < quorum <= 1.0:
            raise FleetPlanError("quorum must be in (0, 1]")
        self.max_concurrent_kernels = max_concurrent_kernels
        self.canary_kernels = canary_kernels
        self.bake_ns = bake_ns
        self.verdict_mode = verdict_mode
        self.quorum = quorum
        self.canary_fraction = canary_fraction
        self.min_canary_locks = min_canary_locks

    # ------------------------------------------------------------------
    def plan(self, policy: str, placement: PlacementMap) -> FleetPlan:
        kernels = placement.kernels()
        if not kernels:
            raise FleetPlanError(
                f"placement map matches no kernels; nothing to roll {policy!r} to"
            )
        ranked = sorted(kernels, key=lambda k: (placement.blast_radius(k), k))

        waves: List[WaveSpec] = []
        n_canary = min(self.canary_kernels, len(ranked))
        waves.append(
            WaveSpec(index=0, kernels=ranked[:n_canary], canary=True, bake_ns=self.bake_ns)
        )
        rest = ranked[n_canary:]
        for start in range(0, len(rest), self.max_concurrent_kernels):
            waves.append(
                WaveSpec(
                    index=len(waves),
                    kernels=rest[start : start + self.max_concurrent_kernels],
                    canary=False,
                    bake_ns=self.bake_ns,
                )
            )

        canary_locks = {
            kernel: self.canary_subset(placement.for_kernel(kernel))
            for kernel in ranked
        }
        return FleetPlan(
            policy=policy,
            waves=waves,
            canary_locks=canary_locks,
            verdict_mode=self.verdict_mode,
            quorum=self.quorum,
        )

    def canary_subset(self, placements) -> List[str]:
        """Pick a placement-diverse canary subset for one kernel.

        Locks are grouped by ``(socket, contention class)`` and drawn
        round-robin across groups, hottest groups first — the subset
        spans sockets and contention classes instead of clustering
        wherever the name sort happens to land.
        """
        if not placements:
            raise FleetPlanError("cannot pick a canary subset from zero locks")
        total = len(placements)
        want = max(self.min_canary_locks, math.ceil(total * self.canary_fraction))
        want = min(want, total)

        groups: Dict[object, List] = {}
        for p in placements:
            groups.setdefault((p.socket, p.contention), []).append(p)
        # Hottest groups first so a size-1 subset still canaries the
        # riskiest placement; inside a group, stable by name.
        ordered = sorted(
            groups.values(),
            key=lambda g: (-max(p.weight for p in g), g[0].socket, g[0].contention),
        )
        for group in ordered:
            group.sort(key=lambda p: p.lock_name)

        subset: List[str] = []
        cursor = 0
        while len(subset) < want:
            group = ordered[cursor % len(ordered)]
            if group:
                subset.append(group.pop(0).lock_name)
            cursor += 1
            if all(not g for g in ordered):
                break
        return subset
