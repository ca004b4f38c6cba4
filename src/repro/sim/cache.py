"""Cache-coherence cost model.

Lock scalability on real hardware is dominated by cache-line movement:
an atomic RMW on a contended line serializes all requesters and pays a
cache-to-cache transfer whose latency depends on NUMA distance.  This
module models exactly that, and nothing more:

* every :class:`Cell` is one exclusive cache line (kernel locks are
  padded, so this is accurate for our purposes);
* a write/RMW must wait for the line's previous exclusive access to
  complete (``busy_until``), serializing contended atomics;
* the requester pays ``l1_hit`` if it already owns the line, otherwise a
  transfer latency looked up from the topology;
* plain loads are shared: concurrent readers do not serialize, and a
  reader who already holds a shared copy pays only ``l1_hit``;
* local spinners (:class:`repro.sim.ops.WaitValue`) are registered as
  waiters and are re-checked — one transfer later — whenever a writer
  dirties the line.

This is a deliberately small slice of MESI; it reproduces the contention
behaviours that the lock literature (and the paper's Figure 2) depends
on: TAS collapse, MCS's flat handoff, NUMA batching wins, and per-CPU
reader scaling.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set, Tuple

from .stats import StatsRegistry
from .topology import Topology

__all__ = ["Cell", "CellWaiter", "CacheModel"]

#: The rechecks of a write no spinner waits for, shared by every such write.
_NO_RECHECKS = ()


class CellWaiter:
    """A task locally spinning on a cell, waiting for a predicate."""

    __slots__ = ("task", "pred", "armed")

    def __init__(self, task, pred: Callable[[Any], bool]) -> None:
        self.task = task
        self.pred = pred
        #: True while the waiter is waiting for the *next* write.  Cleared
        #: when a recheck is scheduled so multiple writes in flight do not
        #: schedule duplicate rechecks.
        self.armed = True


class Cell:
    """One 64-byte-line-sized word of simulated shared memory.

    The ``value`` may be any Python object (int, reference to a queue
    node, ...) — the cache model only cares about *who touched the line*,
    not what is stored in it.
    """

    __slots__ = ("value", "owner", "sharers", "busy_until", "waiters", "name")

    def __init__(self, value: Any = 0, name: str = "") -> None:
        self.value = value
        #: CPU id of the last writer, or None if never written.
        self.owner: Optional[int] = None
        #: CPU ids holding a shared (read) copy.
        self.sharers: Set[int] = set()
        #: Simulated time until which the line is pinned by an exclusive access.
        self.busy_until = 0
        self.waiters: List[CellWaiter] = []
        self.name = name

    def peek(self) -> Any:
        """Read the value without simulating any cost (debug/assertions only)."""
        return self.value

    def __repr__(self) -> str:
        label = self.name or hex(id(self))
        return f"Cell({label}={self.value!r})"


class CacheModel:
    """Computes access costs and tracks line state.

    The engine is the only caller.  Methods return ``(finish_time,
    result, rechecks)`` where *rechecks* lists ``(waiter, at_time)``
    pairs the engine must schedule; with no spinner on the line it is
    one shared empty tuple, so most writes allocate no list.  Costs come
    from the topology's socket tables; a transfer counts as remote when
    the two sockets are more than 0 hops apart.
    """

    def __init__(self, topology: Topology, stats: StatsRegistry) -> None:
        self.topology = topology
        self.stats = stats
        self._c_local = stats.counter("cache.local_hits")
        self._c_transfer = stats.counter("cache.transfers")
        self._c_remote = stats.counter("cache.remote_transfers")
        self._c_atomics = stats.counter("cache.atomics")
        self._l1_hit = topology.latency.l1_hit
        self._atomic_extra = topology.latency.atomic_extra
        self._socket = topology.cpu_socket
        self._hops = topology.socket_hops
        self._transfer = topology.socket_transfer_ns

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def load(self, now: int, cpu: int, cell: Cell) -> Tuple[int, Any]:
        """A plain load.  Does not serialize with other loads."""
        owner = cell.owner
        if owner == cpu or owner is None or cpu in cell.sharers:
            self._c_local.value += 1
            cost = self._l1_hit
        else:
            src, dst = self._socket[owner], self._socket[cpu]
            cost = self._transfer[src][dst]
            self._c_transfer.value += 1
            if self._hops[src][dst] > 0:
                self._c_remote.value += 1
        busy = cell.busy_until
        finish = (now if now >= busy else busy) + cost
        if owner != cpu:
            cell.sharers.add(cpu)
        return finish, cell.value

    def _exclusive(self, now: int, cpu: int, cell: Cell, extra: int) -> int:
        """Common path for stores and RMWs: serialize and take ownership.

        Pays the dirty-line transfer from the current owner and, when
        other CPUs hold shared copies, the invalidation round-trip to
        the farthest sharer — writing a widely-shared line is expensive
        even for its owner (the ticket-lock release broadcast).
        """
        owner = cell.owner
        sharers = cell.sharers
        if (owner == cpu or owner is None) and (
            not sharers or (len(sharers) == 1 and cpu in sharers)
        ):
            self._c_local.value += 1
            cost = self._l1_hit
        else:
            socket, hops, transfer = self._socket, self._hops, self._transfer
            dst = socket[cpu]
            cost = 0
            remote = False
            if owner is not None and owner != cpu:
                src = socket[owner]
                cost = transfer[src][dst]
                remote = hops[src][dst] > 0
            for sharer in sharers:
                if sharer != cpu:
                    src = socket[sharer]
                    inval = transfer[src][dst]
                    if inval > cost:
                        cost = inval
                    if hops[src][dst] > 0:
                        remote = True
            self._c_transfer.value += 1
            if remote:
                self._c_remote.value += 1
        busy = cell.busy_until
        finish = (now if now >= busy else busy) + (cost + extra)
        cell.busy_until = finish
        cell.owner = cpu
        sharers.clear()
        return finish

    def _collect_rechecks(self, cell: Cell, writer_cpu: int, finish: int):
        """Schedule re-reads for local spinners after a write.

        The k-th spinner's refill is staggered: on real hardware the
        line's home/owner services each sharer's miss mostly serially,
        which is precisely why broadcast-wakeup locks (ticket) stop
        scaling while single-successor locks (MCS) stay flat.
        """
        if not cell.waiters:
            return _NO_RECHECKS
        rechecks = []
        socket = self._socket
        row = self._transfer[socket[writer_cpu]]
        k = 0
        for waiter in cell.waiters:
            if waiter.armed:
                waiter.armed = False
                cpu = waiter.task.cpu_id
                delay = self._l1_hit if cpu == writer_cpu else row[socket[cpu]]
                delay += (k * delay) // 2
                k += 1
                rechecks.append((waiter, finish + delay))
        return rechecks

    def store(self, now: int, cpu: int, cell: Cell, value: Any):
        finish = self._exclusive(now, cpu, cell, 0)
        cell.value = value
        return finish, None, self._collect_rechecks(cell, cpu, finish)

    def cas(self, now: int, cpu: int, cell: Cell, expected: Any, new: Any):
        self._c_atomics.value += 1
        finish = self._exclusive(now, cpu, cell, self._atomic_extra)
        old = cell.value
        if old == expected:
            cell.value = new
            return finish, (True, old), self._collect_rechecks(cell, cpu, finish)
        return finish, (False, old), _NO_RECHECKS

    def xchg(self, now: int, cpu: int, cell: Cell, value: Any):
        self._c_atomics.value += 1
        finish = self._exclusive(now, cpu, cell, self._atomic_extra)
        old = cell.value
        cell.value = value
        return finish, old, self._collect_rechecks(cell, cpu, finish)

    def fetch_add(self, now: int, cpu: int, cell: Cell, delta: int):
        self._c_atomics.value += 1
        finish = self._exclusive(now, cpu, cell, self._atomic_extra)
        old = cell.value
        cell.value = old + delta
        return finish, old, self._collect_rechecks(cell, cpu, finish)

    # ------------------------------------------------------------------
    # Local-spin waiters
    # ------------------------------------------------------------------
    def add_waiter(self, cell: Cell, waiter: CellWaiter) -> None:
        cell.waiters.append(waiter)

    def remove_waiter(self, cell: Cell, waiter: CellWaiter) -> None:
        cell.waiters.remove(waiter)
