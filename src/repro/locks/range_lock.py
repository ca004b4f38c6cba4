"""Range lock: readers-writer locking over address intervals.

Models the "Scalable Range Locks" idea (PAPERS.md): instead of one
``mmap_sem`` serializing the whole address space, lockers name the
half-open interval ``[start, end)`` they touch, and two operations
conflict only when their intervals overlap *and* at least one writes.
Disjoint mmap/munmap/page-fault traffic proceeds in parallel — the
scaling win the paper measures — while overlapping writers still
serialize.

Implementation notes:

* Held ranges live in a Python-level list (zero simulated cost);
  the *simulated* cost of walking the range structure is charged as a
  ``Delay`` proportional to the number of held ranges, which is what
  makes the global-vs-range tradeoff measurable rather than free.
* Waiters queue FIFO.  A new locker must be compatible with every
  holder **and** every earlier queued waiter it overlaps — overlap
  FIFO prevents a stream of readers from starving a queued writer,
  and makes grant order deterministic.
* On release the queue is scanned in order; every waiter compatible
  with the remaining holders and the still-blocked prefix is granted
  (marked *before* its ``Unpark``, so the park-token semantics of the
  engine guarantee no lost wake-up).

Not a :class:`~repro.locks.base.Lock` subclass: the acquire signature
carries the interval, so range locks are not drop-in switchable sites.
Workloads hold them directly.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..sim.engine import Engine
from ..sim.ops import Delay, Park, Unpark
from ..sim.task import Task
from .base import LockError

__all__ = ["RangeLock"]

#: Base simulated cost of one range-tree walk.
WALK_NS = 60
#: Extra walk cost per currently-held range (tree depth proxy).
WALK_PER_HELD_NS = 8


class _Entry:
    """One held or queued interval."""

    __slots__ = ("task", "start", "end", "write", "granted")

    def __init__(self, task: Task, start: int, end: int, write: bool) -> None:
        self.task = task
        self.start = start
        self.end = end
        self.write = write
        self.granted = False

    def conflicts(self, start: int, end: int, write: bool) -> bool:
        overlap = self.start < end and start < self.end
        return overlap and (write or self.write)


class RangeLock:
    """A FIFO interval readers-writer lock."""

    kind = "range"

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name or f"RangeLock@{id(self):x}"
        self._held: List[_Entry] = []
        self._queue: List[_Entry] = []
        # Counters (Python-level, zero simulated cost).
        self.acquisitions = 0
        self.read_grants = 0
        self.write_grants = 0
        self.conflicts = 0
        self.peak_concurrency = 0

    # -- protocol ------------------------------------------------------
    def read_acquire(self, task: Task, start: int, end: int) -> Iterator:
        return self._acquire(task, start, end, write=False)

    def write_acquire(self, task: Task, start: int, end: int) -> Iterator:
        return self._acquire(task, start, end, write=True)

    def read_release(self, task: Task, start: int, end: int) -> Iterator:
        return self._release(task, start, end, write=False)

    def write_release(self, task: Task, start: int, end: int) -> Iterator:
        return self._release(task, start, end, write=True)

    # -- internals -----------------------------------------------------
    def _compatible(self, start: int, end: int, write: bool) -> bool:
        """No conflict with holders or with earlier still-queued waiters."""
        for entry in self._held:
            if entry.conflicts(start, end, write):
                return False
        for entry in self._queue:
            if entry.conflicts(start, end, write):
                return False
        return True

    def _grant(self, entry: _Entry) -> None:
        entry.granted = True
        self._held.append(entry)
        self.acquisitions += 1
        if entry.write:
            self.write_grants += 1
        else:
            self.read_grants += 1
        if len(self._held) > self.peak_concurrency:
            self.peak_concurrency = len(self._held)

    def _acquire(self, task: Task, start: int, end: int, write: bool) -> Iterator:
        if end <= start:
            raise LockError(f"{self.name}: empty range [{start}, {end})")
        yield Delay(WALK_NS + WALK_PER_HELD_NS * len(self._held))
        entry = _Entry(task, start, end, write)
        if self._compatible(start, end, write):
            self._grant(entry)
            return
        self.conflicts += 1
        self._queue.append(entry)
        while not entry.granted:
            yield Park()

    def _find_held(
        self, task: Task, start: int, end: int, write: bool
    ) -> Optional[_Entry]:
        for entry in self._held:
            if (
                entry.task is task
                and entry.start == start
                and entry.end == end
                and entry.write is write
            ):
                return entry
        return None

    def _release(self, task: Task, start: int, end: int, write: bool) -> Iterator:
        entry = self._find_held(task, start, end, write)
        if entry is None:
            mode = "write" if write else "read"
            raise LockError(
                f"{self.name}: {task.name} {mode}-released [{start}, {end}) "
                f"without holding it"
            )
        self._held.remove(entry)
        yield Delay(WALK_NS)
        # FIFO wake pass: grant every waiter compatible with the holders
        # and with all still-blocked waiters ahead of it.  Grants are
        # recorded before the unparks, so a compatibility check racing
        # with the wake-ups sees a consistent picture.
        woken: List[_Entry] = []
        blocked: List[_Entry] = []
        for waiter in list(self._queue):
            ok = not any(
                h.conflicts(waiter.start, waiter.end, waiter.write)
                for h in self._held
            ) and not any(
                b.conflicts(waiter.start, waiter.end, waiter.write)
                for b in blocked
            )
            if ok:
                self._queue.remove(waiter)
                self._grant(waiter)
                woken.append(waiter)
            else:
                blocked.append(waiter)
        for waiter in woken:
            yield Unpark(waiter.task)

    def __repr__(self) -> str:
        return (
            f"RangeLock({self.name}, held={len(self._held)}, "
            f"queued={len(self._queue)})"
        )
