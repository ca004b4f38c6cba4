"""Seeded, replayable partition schedules.

A :class:`PartitionSchedule` is to network failures what a
:class:`~repro.traffic.Trace` is to load: a deterministic, serializable
sequence of events over simulated time, generated from a seed so a
chaos run that splits the fleet at an awkward moment reproduces
bit-for-bit.  The fabric applies due events as traffic observes time
passing (:meth:`~repro.netsim.fabric.Fabric.advance`).

Sampled schedules are *survivable by construction*: every partition is
eventually healed (the last event is always a heal), so the invariants
a chaos test asserts — post-heal convergence, zero stranded debt —
are reachable for every seed.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import NetError

__all__ = ["PartitionEvent", "PartitionSchedule", "sample_partition_schedule"]

#: Most minority splits a sampled schedule draws (it draws 1 to this many).
MAX_SPLITS = 2


class PartitionEvent(NamedTuple):
    """One link-state flip at a point in simulated time."""

    at_ns: int
    action: str  # "partition" | "heal"
    groups: Tuple[Tuple[str, ...], ...] = ()
    asymmetric: bool = False

    def describe(self) -> str:
        if self.action == "heal":
            return f"t={self.at_ns}ns heal"
        sides = " | ".join(",".join(g) for g in self.groups)
        kind = "asymmetric" if self.asymmetric else "symmetric"
        return f"t={self.at_ns}ns {kind} partition [{sides}]"


class PartitionSchedule:
    """An ordered list of :class:`PartitionEvent`\\ s."""

    def __init__(self, events: Sequence[PartitionEvent], name: str = "schedule") -> None:
        for event in events:
            if event.action not in ("partition", "heal"):
                raise NetError(f"unknown schedule action {event.action!r}")
            if event.action == "partition" and len(event.groups) < 2:
                raise NetError("a partition event needs at least two groups")
        self.events: List[PartitionEvent] = sorted(events, key=lambda e: e.at_ns)
        self.name = name

    def __len__(self) -> int:
        return len(self.events)

    def apply(self, fabric, event: PartitionEvent) -> None:
        if event.action == "heal":
            fabric.heal()
        else:
            fabric.partition(event.groups, asymmetric=event.asymmetric)

    @property
    def ends_healed(self) -> bool:
        return bool(self.events) and self.events[-1].action == "heal"

    # ------------------------------------------------------------------
    # Replay: serialize <-> deserialize round-trips exactly.
    # ------------------------------------------------------------------
    def serialize(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "events": [
                {
                    "at_ns": e.at_ns,
                    "action": e.action,
                    "groups": [list(g) for g in e.groups],
                    "asymmetric": e.asymmetric,
                }
                for e in self.events
            ],
        }

    @classmethod
    def deserialize(cls, payload: Dict[str, object]) -> "PartitionSchedule":
        events = [
            PartitionEvent(
                at_ns=int(e["at_ns"]),
                action=str(e["action"]),
                groups=tuple(tuple(g) for g in e.get("groups", ())),
                asymmetric=bool(e.get("asymmetric", False)),
            )
            for e in payload.get("events", ())
        ]
        return cls(events, name=str(payload.get("name", "schedule")))

    def describe(self) -> str:
        rows = [f"partition schedule {self.name!r}: {len(self.events)} events"]
        rows.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(rows)

    def __repr__(self) -> str:
        return f"PartitionSchedule({self.name!r}, {len(self.events)} events)"


def sample_partition_schedule(
    seed: int,
    endpoints: Sequence[str],
    total_ns: int,
) -> PartitionSchedule:
    """Draw a survivable schedule: up to :data:`MAX_SPLITS` minority splits
    over ``total_ns``, each healed before the next, always ending
    healed.

    The cut-off group is a strict minority of the endpoints, so a
    quorum of any replica group laid out across them stays reachable —
    sampled chaos degrades service, it cannot make convergence
    impossible.
    """
    if len(endpoints) < 2:
        raise NetError("sampling a schedule needs at least two endpoints")
    rng = Random(seed)
    names = sorted(endpoints)
    events: List[PartitionEvent] = []
    t = 0
    for _ in range(rng.randint(1, MAX_SPLITS)):
        t += rng.randint(max(1, total_ns // 8), max(2, total_ns // 3))
        minority_size = rng.randint(1, max(1, (len(names) - 1) // 2))
        minority = rng.sample(names, minority_size)
        majority = [n for n in names if n not in minority]
        asymmetric = rng.random() < 0.4
        events.append(
            PartitionEvent(
                at_ns=t,
                action="partition",
                groups=(tuple(minority), tuple(majority)),
                asymmetric=asymmetric,
            )
        )
        t += rng.randint(max(1, total_ns // 8), max(2, total_ns // 3))
        events.append(PartitionEvent(at_ns=t, action="heal"))
    return PartitionSchedule(events, name=f"partition-{seed}")
