"""The simulated kernel: one object tying the substrate together.

A :class:`Kernel` owns the engine, the lock registry (kallsyms for
locks), the livepatcher, and the shadow-variable store.  Subsystems
(:mod:`.mm`, :mod:`.vfs`) register their locks here as *patchable call
sites*, which is what makes them addressable by Concord.
"""

from __future__ import annotations

from typing import Optional

from ..livepatch.patcher import Patcher
from ..livepatch.shadow import ShadowStore
from ..locks.base import Lock, RWLock
from ..locks.registry import LockRegistry
from ..locks.switchable import SwitchableLock, SwitchableRWLock
from ..sim.engine import Engine
from ..sim.topology import Topology

__all__ = ["Kernel"]


class Kernel:
    """Engine + lock registry + livepatch, i.e. the machine being tuned."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self.engine = Engine(topology, seed=seed)
        self.topology = topology
        self.locks = LockRegistry()
        self.patcher = Patcher(self.engine, self.locks)
        self.shadow = ShadowStore()
        self._lock_ids = {}

    # ------------------------------------------------------------------
    def add_lock(self, name: str, impl: Lock) -> SwitchableLock:
        """Register an exclusive lock as a patchable call site."""
        site = SwitchableLock(self.engine, impl, name=name)
        self.locks.register(name, site)
        return site

    def add_rwlock(self, name: str, impl: RWLock) -> SwitchableRWLock:
        """Register a readers-writer lock as a patchable call site."""
        site = SwitchableRWLock(self.engine, impl, name=name)
        self.locks.register(name, site)
        return site

    def lock_id(self, lock: Lock) -> int:
        """Stable small integer id for a lock (used as a BPF map key),
        handed out at first use.  Concord's hook programs ask for their
        call site's id, so it survives implementation switches.
        """
        key = id(lock)
        if key not in self._lock_ids:
            self._lock_ids[key] = len(self._lock_ids) + 1
        return self._lock_ids[key]

    def lock_id_by_name(self, name: str) -> int:
        return self.lock_id(self.locks.get(name))

    # Convenience passthroughs --------------------------------------------
    @property
    def now(self) -> int:
        return self.engine.now

    def spawn(self, body, cpu: int, name: str = "", priority: int = 0, at: Optional[int] = None):
        return self.engine.spawn(body, cpu, name=name, priority=priority, at=at)

    def run(self, until: Optional[int] = None) -> int:
        return self.engine.run(until=until)
