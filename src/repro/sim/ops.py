"""Effect requests that simulated tasks yield to the engine.

A simulated task is a Python generator.  Every interaction with shared
state — time passing, memory traffic, parking — is expressed by yielding
one of the request objects below and receiving the result back from the
engine::

    def body(task):
        ok, old = yield CAS(lock_word, 0, task.tid)   # one atomic RMW
        yield Delay(250)                              # 250 ns of work
        yield Store(lock_word, 0)                     # release

Requests are deliberately tiny immutable records; the engine dispatches
on their concrete type.  Anything a real kernel thread does between
yields is invisible to other tasks, which mirrors how instructions
between memory accesses are invisible to other CPUs.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import Cell
    from .task import Task

__all__ = [
    "Request",
    "Delay",
    "Load",
    "Store",
    "CAS",
    "Xchg",
    "FetchAdd",
    "WaitValue",
    "Park",
    "Unpark",
]


class Request:
    """Base class for all effect requests."""

    __slots__ = ()


class Delay(Request):
    """Consume ``ns`` nanoseconds of CPU time (computation).

    On asymmetric machines the engine scales the duration by the CPU's
    speed factor; memory operations are *not* scaled, matching real AMP
    parts where the memory system is shared.
    """

    __slots__ = ("ns",)

    def __init__(self, ns: int) -> None:
        self.ns = ns


class Load(Request):
    """Read a cell.  Resumes with the value."""

    __slots__ = ("cell",)

    def __init__(self, cell: "Cell") -> None:
        self.cell = cell


class Store(Request):
    """Write a cell.  Resumes with ``None`` once the store is globally visible."""

    __slots__ = ("cell", "value")

    def __init__(self, cell: "Cell", value: Any) -> None:
        self.cell = cell
        self.value = value


class CAS(Request):
    """Atomic compare-and-swap.  Resumes with ``(success, old_value)``.

    A failed CAS still pays the full line-transfer cost — this is what
    makes naive test-and-set locks collapse under contention.
    """

    __slots__ = ("cell", "expected", "new")

    def __init__(self, cell: "Cell", expected: Any, new: Any) -> None:
        self.cell = cell
        self.expected = expected
        self.new = new


class Xchg(Request):
    """Atomic exchange.  Resumes with the previous value."""

    __slots__ = ("cell", "value")

    def __init__(self, cell: "Cell", value: Any) -> None:
        self.cell = cell
        self.value = value


class FetchAdd(Request):
    """Atomic fetch-and-add.  Resumes with the previous value."""

    __slots__ = ("cell", "delta")

    def __init__(self, cell: "Cell", delta: int) -> None:
        self.cell = cell
        self.delta = delta


class WaitValue(Request):
    """Spin locally until ``pred(value)`` holds for the cell.

    Models local spinning on a cached line (MCS-style): the spinner
    occupies its CPU but generates no coherence traffic until a writer
    modifies the line, at which point the spinner pays one line transfer
    to observe the new value.  Resumes with the observed value.
    """

    __slots__ = ("cell", "pred")

    def __init__(self, cell: "Cell", pred: Callable[[Any], bool]) -> None:
        self.cell = cell
        self.pred = pred


class Park(Request):
    """Deschedule until another task issues :class:`Unpark` for us.

    Futex semantics: if an unpark token is already pending, the park
    consumes it and returns immediately (no lost wake-ups).  Resumes
    with ``True``.
    """

    __slots__ = ()


class Unpark(Request):
    """Wake ``task`` (or leave it a token if it is not parked yet)."""

    __slots__ = ("task",)

    def __init__(self, task: "Task") -> None:
        self.task = task
