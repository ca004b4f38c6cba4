"""Simulated kernel tasks (threads).

A :class:`Task` wraps a generator body plus the scheduling metadata the
rest of the system needs: the CPU it is pinned to, its priority, futex
park/unpark state, and a small open ``tags`` dictionary that stands in
for the "context annotations" the paper's userspace API attaches to
tasks (e.g. *this thread is on the prioritized syscall path*).

Task bodies are callables that accept the task and return a generator::

    def worker(task):
        while task.engine.now < deadline:
            yield Delay(100)

    engine.spawn(worker, cpu=3, name="worker-3")
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = ["Task", "TaskState", "TaskBody"]

TaskBody = Callable[["Task"], Generator]


class TaskState(enum.Enum):
    """Lifecycle of a simulated task."""

    NEW = "new"
    RUNNING = "running"      # on its CPU (possibly inside a memory op)
    READY = "ready"          # runnable, waiting in its CPU's run queue
    SPINNING = "spinning"    # blocked in WaitValue but occupying the CPU
    PARKED = "parked"        # descheduled, waiting for an unpark
    DONE = "done"


# A class-attribute lookup of an enum member costs more than a global.
_NEW = TaskState.NEW


class Task:
    """One simulated thread of execution."""

    # Open-loop traces spawn one task per request, thousands per run.
    __slots__ = (
        "engine", "tid", "name", "cpu_id", "priority", "numa_node", "state", "gen", "_body",
        # futex and scheduler state
        "park_token", "pending_value", "_spin_waiter",
        # bookkeeping and annotations
        "spawn_time", "finish_time", "result", "error", "tags", "held_locks", "stats",
    )

    def __init__(
        self,
        engine: "Engine",
        tid: int,
        body: TaskBody,
        cpu_id: int,
        name: str = "",
        priority: int = 0,
        numa_node: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.tid = tid
        self.name = name or f"task-{tid}"
        self.cpu_id = cpu_id
        #: Larger number = more important.  0 is the default (CFS-normal).
        self.priority = priority
        self.numa_node = (
            numa_node if numa_node is not None else engine.topology.socket_of(cpu_id)
        )
        self.state = _NEW
        self.gen: Optional[Generator] = None
        self._body = body

        # Futex-style park/unpark state.
        self.park_token = False

        # Scheduler state.
        #: What the next dispatch resumes the task with: None for its
        #: first step, True after a wake-up.
        self.pending_value: Any = None
        #: (cell, CellWaiter) while blocked in a WaitValue spin, else None.
        self._spin_waiter = None

        # Bookkeeping.
        self.spawn_time = 0
        self.finish_time: Optional[int] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None

        #: Open annotation map — the C3 "context" userspace attaches to a
        #: task.  Policies read these through BPF helpers.
        self.tags: Dict[str, int] = {}
        #: Lock instances this task currently holds (maintained by the
        #: lock layer; consumed by lock-inheritance/priority policies).
        self.held_locks: List[object] = []
        #: Scratch area for workloads to record per-task results.
        self.stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def start(self) -> Generator:
        """Instantiate the generator body (engine-internal)."""
        self.gen = self._body(self)
        if not hasattr(self.gen, "send"):
            raise TypeError(
                f"task body for {self.name} must return a generator, "
                f"got {type(self.gen).__name__}"
            )
        return self.gen

    @property
    def done(self) -> bool:
        return self.state is TaskState.DONE

    @property
    def blocked(self) -> bool:
        return self.state in (TaskState.PARKED, TaskState.SPINNING)

    def __repr__(self) -> str:
        return f"Task({self.name}, cpu={self.cpu_id}, {self.state.value})"
