"""Per-CPU scheduling state.

The engine owns the event loop; this module owns what a CPU knows:
which task currently occupies it, which tasks are runnable on it, and
whether the CPU is "frozen" (the mechanism we use to model hypervisor
vCPU preemption — while frozen, nothing on the CPU makes progress).

The run queue is strict-priority with FIFO order within a priority
level, which is all the use-case experiments need (priority inversion,
boosted syscall paths, background vs. foreground tasks).  Priority
orders the queue only: the occupant keeps the CPU until it parks or
finishes, whoever waits.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .task import Task

__all__ = ["CPU"]


class CPU:
    """One logical CPU: a current task, a run queue, and freeze state."""

    __slots__ = ("cpu_id", "current", "runqueue", "frozen_until")

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        self.current: Optional["Task"] = None
        self.runqueue: List["Task"] = []
        self.frozen_until = 0

    # ------------------------------------------------------------------
    def enqueue(self, task: "Task") -> None:
        """Insert ``task`` keeping priority order (stable within a level)."""
        queue = self.runqueue
        priority = task.priority
        index = len(queue)
        # Walk from the back: new arrivals go after equal-priority tasks.
        while index > 0 and queue[index - 1].priority < priority:
            index -= 1
        queue.insert(index, task)

    def pick_next(self) -> Optional["Task"]:
        """Pop the highest-priority runnable task, or None."""
        if self.runqueue:
            return self.runqueue.pop(0)
        return None

    def __repr__(self) -> str:
        cur = self.current.name if self.current else "idle"
        return f"CPU({self.cpu_id}, current={cur}, rq={len(self.runqueue)})"
