"""Placement: where each target lock instance actually lives.

A rollout planner that orders kernels by a sorted lock-name prefix
knows nothing about risk: two fleets with identical lock names can have
wildly different blast radii.  The :class:`PlacementMap` records, per
matched lock instance, the *observed* placement — which kernel it is
registered on, which socket its acquisitions are dominated by, and a
contention class — learned the same way the canary engine judges SLOs:
from profiler measurements, not configuration.

Learning runs two instruments per member over one measurement window:

* a :class:`~repro.concord.profiler.ProfileSession` over the matched
  locks (attempts/contention/wait aggregates → contention class);
* a one-program *socket probe* on the ``lock_acquired`` hook counting
  acquisitions per ``(lock, socket)`` → dominant socket.

Both are the framework's own machinery — loading the probe goes through
verify/pin/attach like any policy, so placement learning inherits every
safety property (and every fault site) of the pipeline it feeds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple

from ..bpf.maps import HashMap
from ..concord.policy import PolicySpec
from ..concord.profiler import ProfileSession
from ..locks.base import HOOK_LOCK_ACQUIRED

__all__ = ["LockPlacement", "PlacementMap"]

#: Socket-probe key packing: ``lock_id * _SOCKET_STRIDE + socket``.
_SOCKET_STRIDE = 64

_PROBE_SOURCE = """
def fleet_probe(ctx):
    sockets.add(ctx.lock_id * 64 + ctx.socket, 1)
"""

#: Contention-class weights used for blast-radius scoring.
_CLASS_WEIGHT = {"hot": 4, "warm": 2, "cold": 1}

#: Contention ratios (contended acquisitions over attempts) at or above
#: which a lock is "hot" / "warm"; below both it is "cold".
HOT_RATIO = 0.40
WARM_RATIO = 0.05


class LockPlacement(NamedTuple):
    """Observed placement of one lock instance."""

    kernel: str
    lock_name: str
    #: dominant socket by acquisition count (ties break low; -1 when the
    #: window saw no acquisitions at all)
    socket: int
    #: contention class: "hot" / "warm" / "cold"
    contention: str
    acquired: int
    contended: int
    avg_wait_ns: float

    @property
    def weight(self) -> int:
        """Blast-radius contribution of this lock."""
        return _CLASS_WEIGHT[self.contention]


class PlacementMap:
    """Fleet-wide ``(kernel, lock) -> placement`` directory."""

    _seq = 0

    def __init__(self, placements: Iterable[LockPlacement]) -> None:
        self.placements: List[LockPlacement] = list(placements)
        self._by_kernel: Dict[str, List[LockPlacement]] = {}
        for placement in self.placements:
            self._by_kernel.setdefault(placement.kernel, []).append(placement)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    @classmethod
    def learn(cls, fleet, selector: str, window_ns: int = 200_000) -> "PlacementMap":
        """Measure every in-service member's matching locks for
        ``window_ns``.

        Locks classify by contention ratio against :data:`HOT_RATIO` /
        :data:`WARM_RATIO`; a lock idle for the whole window is "cold"
        on socket ``-1``.
        """
        placements: List[LockPlacement] = []
        for member in fleet.active_members():
            placements.extend(cls._learn_member(member, selector, window_ns))
        return cls(placements)

    @classmethod
    def _learn_member(cls, member, selector: str, window_ns: int) -> List[LockPlacement]:
        locks = member.select_locks(selector)
        if not locks:
            return []
        concord = member.concord
        kernel = member.kernel
        cls._seq += 1
        probe_map = HashMap(f"fleet.probe{cls._seq}.sockets", max_entries=65536)
        probe_spec = PolicySpec(
            name=f"fleet.probe{cls._seq}.{member.name}",
            hook=HOOK_LOCK_ACQUIRED,
            source=_PROBE_SOURCE,
            maps={"sockets": probe_map},
            lock_selector="*",
        )
        lock_ids = {name: kernel.lock_id_by_name(name) for name in locks}
        session = ProfileSession(concord, locks)
        try:
            concord.load_policy(probe_spec, targets=locks)
            try:
                kernel.run(until=kernel.now + window_ns)
            finally:
                concord.unload_policy(probe_spec.name)
        finally:
            report = session.stop()

        placements = []
        nr_sockets = kernel.topology.sockets
        for name in locks:
            profile = report.by_name(name)
            attempts = profile.attempts if profile else 0
            contended = profile.contended if profile else 0
            acquired = profile.acquired if profile else 0
            avg_wait = profile.avg_wait_ns if profile else 0.0
            base = lock_ids[name] * _SOCKET_STRIDE
            by_socket = [
                probe_map.lookup(base + socket) or 0 for socket in range(nr_sockets)
            ]
            if any(by_socket):
                socket = max(range(nr_sockets), key=lambda s: (by_socket[s], -s))
            else:
                socket = -1
            ratio = contended / attempts if attempts else 0.0
            if attempts and ratio >= HOT_RATIO:
                contention = "hot"
            elif attempts and ratio >= WARM_RATIO:
                contention = "warm"
            else:
                contention = "cold"
            placements.append(
                LockPlacement(
                    kernel=member.name,
                    lock_name=name,
                    socket=socket,
                    contention=contention,
                    acquired=acquired,
                    contended=contended,
                    avg_wait_ns=avg_wait,
                )
            )
        return placements

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def kernels(self) -> List[str]:
        return sorted(self._by_kernel)

    def for_kernel(self, kernel: str) -> List[LockPlacement]:
        return list(self._by_kernel.get(kernel, ()))

    def locks(self, kernel: str) -> List[str]:
        return sorted(p.lock_name for p in self._by_kernel.get(kernel, ()))

    def blast_radius(self, kernel: str) -> int:
        """Weighted size of what a bad policy would hurt on ``kernel``:
        hot locks count 4, warm 2, cold 1."""
        return sum(p.weight for p in self._by_kernel.get(kernel, ()))

    def describe(self) -> str:
        header = f"{'kernel':<10} {'lock':<26} {'socket':>6} {'class':>6} {'acq':>8} {'avg wait':>10}"
        rows = [header, "-" * len(header)]
        for p in sorted(self.placements, key=lambda p: (p.kernel, p.lock_name)):
            rows.append(
                f"{p.kernel:<10} {p.lock_name:<26} {p.socket:>6} "
                f"{p.contention:>6} {p.acquired:>8} {p.avg_wait_ns:>8.0f}ns"
            )
        return "\n".join(rows)

    def __len__(self) -> int:
        return len(self.placements)

    def __repr__(self) -> str:
        return f"PlacementMap({len(self.placements)} locks on {len(self._by_kernel)} kernels)"

