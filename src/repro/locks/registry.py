"""Named lock instances (the kallsyms-for-locks directory).

The paper's framework addresses locks by identity — "one lock instance,
locks in a specific function, code path or namespace, or even every lock
in the kernel" (§3.2).  The registry supports exactly those selector
granularities with dotted hierarchical names, e.g.::

    mm.mmap_lock
    vfs.inode.17.lock
    net.sock.lock

and glob selection (``vfs.inode.*.lock``, ``*``).
"""

from __future__ import annotations

import fnmatch
from typing import Dict, Iterator, List, Optional

from .base import Lock, LockError

__all__ = ["LockRegistry"]


class LockRegistry:
    """A directory of named lock instances."""

    def __init__(self) -> None:
        self._locks: Dict[str, Lock] = {}

    def register(self, name: str, lock: Lock) -> Lock:
        """Register ``lock`` under ``name``; returns the lock for chaining."""
        if name in self._locks:
            raise LockError(f"lock name {name!r} already registered")
        self._locks[name] = lock
        return lock

    def get(self, name: str) -> Lock:
        try:
            return self._locks[name]
        except KeyError:
            raise LockError(f"no lock registered as {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._locks

    def __len__(self) -> int:
        return len(self._locks)

    def names(self) -> List[str]:
        return sorted(self._locks)

    def select(self, pattern: str) -> List[Lock]:
        """All locks whose name matches the glob ``pattern``."""
        return [
            lock
            for name, lock in sorted(self._locks.items())
            if fnmatch.fnmatchcase(name, pattern)
        ]

    def select_names(self, pattern: str) -> List[str]:
        return [name for name in sorted(self._locks) if fnmatch.fnmatchcase(name, pattern)]

    def items(self) -> Iterator:
        return iter(sorted(self._locks.items()))

    def name_of(self, lock: Lock) -> Optional[str]:
        for name, candidate in self._locks.items():
            if candidate is lock:
                return name
        return None
