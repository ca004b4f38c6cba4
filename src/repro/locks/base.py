"""Lock protocol, hook points, and shared bookkeeping.

Every lock algorithm in :mod:`repro.locks` implements the same
generator-based protocol::

    yield from lock.acquire(task)
    ... critical section ...
    yield from lock.release(task)

Readers-writer locks add ``read_acquire``/``read_release`` (and alias
``acquire`` to the write side, like the kernel's ``down``/``down_read``
split).

Two cross-cutting concerns live here:

* **Hook points** (:class:`HookSet`) — the seven Concord APIs from
  Table 1 of the paper.  A lock fires a hook only when Concord has
  attached a program to it; firing charges the simulated cost of the
  trampoline plus the program's own execution cost, which is how the
  framework's overhead (Figure 2c) becomes measurable.
* **Invariant enforcement** — every lock tracks its owner(s) at the
  Python level (zero simulated cost) and raises immediately on a
  mutual-exclusion violation.  The property-based tests lean on this.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Set, Tuple

from ..sim.engine import Engine
from ..sim.errors import SimError
from ..sim.task import Task

__all__ = [
    "LockError",
    "HOOK_CMP_NODE",
    "HOOK_SKIP_SHUFFLE",
    "HOOK_SCHEDULE_WAITER",
    "HOOK_LOCK_ACQUIRE",
    "HOOK_LOCK_CONTENDED",
    "HOOK_LOCK_ACQUIRED",
    "HOOK_LOCK_RELEASE",
    "ALL_HOOKS",
    "DECISION_HOOKS",
    "PROFILING_HOOKS",
    "HookSet",
    "Lock",
    "RWLock",
]


class LockError(SimError):
    """A lock invariant was violated (double release, two owners, ...)."""


# Hook point names — Table 1 of the paper, verbatim.
HOOK_CMP_NODE = "cmp_node"
HOOK_SKIP_SHUFFLE = "skip_shuffle"
HOOK_SCHEDULE_WAITER = "schedule_waiter"
HOOK_LOCK_ACQUIRE = "lock_acquire"
HOOK_LOCK_CONTENDED = "lock_contended"
HOOK_LOCK_ACQUIRED = "lock_acquired"
HOOK_LOCK_RELEASE = "lock_release"

#: Hooks that return a decision consumed by the lock algorithm.
DECISION_HOOKS = (HOOK_CMP_NODE, HOOK_SKIP_SHUFFLE, HOOK_SCHEDULE_WAITER)
#: Hooks that only observe (profiling); they never change lock behaviour.
PROFILING_HOOKS = (
    HOOK_LOCK_ACQUIRE,
    HOOK_LOCK_CONTENDED,
    HOOK_LOCK_ACQUIRED,
    HOOK_LOCK_RELEASE,
)
ALL_HOOKS = DECISION_HOOKS + PROFILING_HOOKS

#: A hook implementation: called with an environment dict, returns
#: ``(value, cost_ns)`` where cost_ns is the simulated execution cost of
#: the program (the BPF VM computes it from the instruction count).
HookFn = Callable[[Dict[str, Any]], Tuple[Any, int]]


class HookSet:
    """The programs Concord attached to one lock instance.

    ``dispatch_ns`` models the livepatch/ftrace trampoline plus the
    Concord dispatch check — it is paid on *every* invocation of a
    patched hook point even when the program itself is empty, which is
    exactly the worst-case overhead the paper measures in Figure 2(c).
    """

    __slots__ = ("programs", "dispatch_ns")

    def __init__(self, dispatch_ns: int = 35) -> None:
        self.programs: Dict[str, HookFn] = {}
        self.dispatch_ns = dispatch_ns

    def attach(self, hook: str, fn: HookFn) -> None:
        if hook not in ALL_HOOKS:
            raise LockError(f"unknown hook point {hook!r}")
        self.programs[hook] = fn

    def detach(self, hook: str) -> None:
        self.programs.pop(hook, None)

    def __contains__(self, hook: str) -> bool:
        return hook in self.programs

    def __len__(self) -> int:
        return len(self.programs)


class Lock:
    """Base class for exclusive locks."""

    kind = "spin"
    is_rw = False

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name or f"{type(self).__name__}@{id(self):x}"
        #: Set by the Concord layer (via livepatch); None on stock locks.
        self.hooks: Optional[HookSet] = None
        # Python-level invariant tracking (no simulated cost).
        self._owner: Optional[Task] = None
        self.acquisitions = 0
        self.contended_acquisitions = 0
        #: Whether the most recent acquisition had to wait (consumed by
        #: the patched call site to fire the lock_contended hook).
        self.last_acquire_contended = False

    # -- protocol ------------------------------------------------------
    def acquire(self, task: Task) -> Iterator:
        raise NotImplementedError

    def release(self, task: Task) -> Iterator:
        raise NotImplementedError

    def try_acquire(self, task: Task) -> Iterator:
        """Optional non-blocking acquire; yields True/False."""
        raise NotImplementedError(f"{type(self).__name__} has no trylock")

    # -- invariant helpers (called by implementations) ------------------
    def _mark_acquired(self, task: Task, contended: bool = False) -> None:
        if self._owner is not None:
            raise LockError(
                f"{self.name}: {task.name} acquired while held by {self._owner.name}"
            )
        self._owner = task
        self.acquisitions += 1
        self.last_acquire_contended = contended
        if contended:
            self.contended_acquisitions += 1
        task.held_locks.append(self)

    def _mark_released(self, task: Task) -> None:
        if self._owner is not task:
            holder = self._owner.name if self._owner else "nobody"
            raise LockError(
                f"{self.name}: {task.name} released a lock held by {holder}"
            )
        self._owner = None
        try:
            task.held_locks.remove(self)
        except ValueError:
            pass

    @property
    def owner(self) -> Optional[Task]:
        return self._owner

    @property
    def locked(self) -> bool:
        return self._owner is not None

    # -- hook dispatch ---------------------------------------------------
    def _fire(self, task: Task, hook: str, env: Dict[str, Any]) -> Tuple[Any, int]:
        """Run the program attached at ``hook``; callers check it is there.

        Returns ``(value, cost_ns)``: the program's value and the
        simulated cost of the trampoline plus the program, which the
        caller charges to ``task`` as a :class:`Delay` — after the
        program has run.
        """
        hooks = self.hooks
        env["task"] = task
        env["lock"] = self
        value, cost_ns = hooks.programs[hook](env)
        return value, hooks.dispatch_ns + cost_ns

    def __repr__(self) -> str:
        state = f"held_by={self._owner.name}" if self._owner else "free"
        return f"{type(self).__name__}({self.name}, {state})"


class RWLock(Lock):
    """Base class for readers-writer locks.

    ``acquire``/``release`` map to the write side so an RW lock can be
    dropped anywhere an exclusive lock is expected.
    """

    kind = "rw"
    is_rw = True

    def __init__(self, engine: Engine, name: str = "") -> None:
        super().__init__(engine, name)
        self._readers: Set[Task] = set()

    # -- protocol ------------------------------------------------------
    def read_acquire(self, task: Task) -> Iterator:
        raise NotImplementedError

    def read_release(self, task: Task) -> Iterator:
        raise NotImplementedError

    def write_acquire(self, task: Task) -> Iterator:
        raise NotImplementedError

    def write_release(self, task: Task) -> Iterator:
        raise NotImplementedError

    def acquire(self, task: Task) -> Iterator:
        return self.write_acquire(task)

    def release(self, task: Task) -> Iterator:
        return self.write_release(task)

    # -- invariants ----------------------------------------------------
    def _mark_read_acquired(self, task: Task) -> None:
        if self._owner is not None:
            raise LockError(
                f"{self.name}: reader {task.name} entered while writer "
                f"{self._owner.name} holds the lock"
            )
        self._readers.add(task)
        self.acquisitions += 1
        task.held_locks.append(self)

    def _mark_read_released(self, task: Task) -> None:
        if task not in self._readers:
            raise LockError(f"{self.name}: {task.name} read-released without holding")
        self._readers.discard(task)
        try:
            task.held_locks.remove(self)
        except ValueError:
            pass

    def _mark_acquired(self, task: Task, contended: bool = False) -> None:
        if self._readers:
            names = ", ".join(t.name for t in list(self._readers)[:4])
            raise LockError(
                f"{self.name}: writer {task.name} entered with readers inside ({names})"
            )
        super()._mark_acquired(task, contended)

    @property
    def reader_count(self) -> int:
        return len(self._readers)
