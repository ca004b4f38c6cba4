"""The discrete-event simulation engine.

The engine advances a single global clock (integer nanoseconds) through a
priority queue of events.  Simulated tasks are generators that yield
effect requests (:mod:`repro.sim.ops`); the engine prices each request
using the cache model and topology, schedules its completion, and resumes
the generator with the result.

Determinism: events run in ``(time, seq)`` order, where ``seq`` is an
insertion sequence number that breaks time ties; the only randomness
lives in the engine's seeded ``rng``, and the whole simulation runs on
one OS thread — identical (seed, config) inputs therefore produce
identical traces, which the test suite relies on.  Pending task starts
that arrive in time order wait in a FIFO *arrivals lane* beside the
heap (an open-loop trace spawns thousands ahead of time); the loop takes
whichever head is smaller, so the order is the same one a single heap
would give.

Scheduling model (see DESIGN.md §3):

* a task is pinned to one CPU; at most one task occupies a CPU;
* a task keeps its CPU until it parks or finishes: computation, memory
  traffic and local spinning all occupy it;
* runnable tasks wait in the CPU's priority-then-FIFO run queue, and a
  park or a finish hands the CPU to the head of that queue;
* CPUs can be *frozen* for a period (vCPU preemption by a hypervisor):
  completions, wake-ups, dispatches and starts on a frozen CPU wait for
  the thaw.
"""

from __future__ import annotations

import random as _random
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from . import ops
from .cache import CacheModel, Cell, CellWaiter
from .errors import DeadlockError, SimLimitError, TaskError
from .scheduler import CPU
from .stats import StatsRegistry
from .task import Task, TaskBody, TaskState
from .topology import Topology

__all__ = ["Engine"]

_RUNNING = TaskState.RUNNING
_READY = TaskState.READY
_SPINNING = TaskState.SPINNING
_PARKED = TaskState.PARKED
_DONE = TaskState.DONE
_NEW = TaskState.NEW
_Load = ops.Load
_Delay = ops.Delay

# Cost (ns) of a park fast path that consumes a pending token (no syscall).
_PARK_FASTPATH_NS = 30


class Engine:
    """Event loop, run-to-park scheduler, and effect interpreter for one
    machine.

    A task runs on its CPU until it parks or finishes; nothing takes the
    CPU from it but a freeze, which stalls the CPU as a whole.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        max_events: int = 200_000_000,
    ) -> None:
        self.topology = topology
        self.stats = StatsRegistry()
        self.cache = CacheModel(topology, self.stats)
        self.rng = _random.Random(seed)
        self.now = 0
        self.max_events = max_events

        self.cpus: List[CPU] = [CPU(i) for i in range(topology.nr_cpus)]
        self._speed = topology.cpu_speed
        self.tasks: List[Task] = []
        # Entries are (time, seq, fn, arg), or (time, seq, None, task,
        # result) for a request completion; seq is unique, so comparisons
        # never look past it.
        self._heap: List = []
        #: Task starts spawned in (time, seq) order, kept out of the heap:
        #: (time, seq, task), started by the loop itself.
        self._arrivals: deque = deque()
        self._seq = 0
        self._events_processed = 0
        self._next_tid = 1

        # Bound once: StatsRegistry.reset() zeroes counters in place.
        counter = self.stats.counter
        self._c_freezes = counter("sched.cpu_freezes")
        self._c_finished = counter("sched.tasks_finished")
        self._c_switches = counter("sched.context_switches")
        self._c_local_spins = counter("cache.local_spins")
        self._c_parks = counter("sched.parks")
        self._c_wakeups = counter("sched.wakeups")
        self._cache_load = self.cache.load

        # Load and Delay are priced inline by _resume.
        self._handlers: Dict[type, Callable] = {
            ops.Store: self._h_store,
            ops.CAS: self._h_cas,
            ops.Xchg: self._h_xchg,
            ops.FetchAdd: self._h_fetch_add,
            ops.WaitValue: self._h_wait_value,
            ops.Park: self._h_park,
            ops.Unpark: self._h_unpark,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def cell(self, value: Any = 0, name: str = "") -> Cell:
        """Allocate one line of simulated shared memory."""
        return Cell(value, name)

    def spawn(
        self,
        body: TaskBody,
        cpu: int,
        name: str = "",
        priority: int = 0,
        at: Optional[int] = None,
    ) -> Task:
        """Create a task pinned to ``cpu`` and schedule its first run.

        ``body`` is called with the new :class:`Task` and must return a
        generator.  The task starts at time ``at`` (default: now).
        """
        if not 0 <= cpu < self.topology.nr_cpus:
            raise TaskError(f"cpu {cpu} out of range for {self.topology}")
        task = Task(
            self, self._next_tid, body, cpu, name, priority, self.topology.cpu_socket[cpu]
        )
        self._next_tid += 1
        task.spawn_time = self.now if at is None else at
        self.tasks.append(task)
        start = task.spawn_time if task.spawn_time > self.now else self.now
        self._seq += 1
        lane = self._arrivals
        # The newest entry has the largest seq: it sorts after the lane's
        # tail unless it starts earlier.
        if not lane or lane[-1][0] <= start:
            lane.append((start, self._seq, task))
        else:
            heappush(self._heap, (start, self._seq, self._start_task, task))
        return task

    def external_store(self, cell, value: Any, cpu: int = 0) -> None:
        """Store to a cell from outside any task (patcher, hypervisor).

        Performs full store semantics at the current time — ownership
        transfer, waiter rechecks — attributed to ``cpu``.  Used by
        control-plane actors that are not simulated tasks.
        """
        self.topology.socket_of(cpu)  # range check
        _finish, _none, rechecks = self.cache.store(self.now, cpu, cell, value)
        self._schedule_rechecks(rechecks)

    def call_at(self, time_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at an absolute simulated time (injection hook);
        a time in the past runs at ``now``."""
        self._at(time_ns, self._call, fn)

    def call_after(self, delay_ns: int, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay_ns, fn)

    def freeze_cpu(self, cpu_id: int, duration_ns: int) -> None:
        """Model a hypervisor descheduling this CPU for ``duration_ns``.

        Nothing on the CPU makes progress until the thaw: in-flight
        completions and wake-ups are deferred.  Used by the vCPU
        double-scheduling experiments.
        """
        self.topology.socket_of(cpu_id)  # range check
        if duration_ns < 0:
            raise ValueError(f"negative freeze duration {duration_ns}ns")
        cpu = self.cpus[cpu_id]
        thaw = self.now + duration_ns
        if thaw > cpu.frozen_until:
            cpu.frozen_until = thaw
        self._c_freezes.value += 1
        # If the occupant is mid-spin, its rechecks will defer themselves;
        # nothing else to do: completions re-check frozen_until.

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if the queue drains while tasks are still blocked and no
        ``until`` bound was given (a bounded run is allowed to stop with
        tasks mid-flight — that is how throughput runs end).
        """
        heap = self._heap
        lane = self._arrivals
        resume = self._resume
        start_task = self._start_task
        max_events = self.max_events
        while heap or lane:
            if self._events_processed >= max_events:
                raise SimLimitError(
                    f"exceeded max_events={self.max_events} at t={self.now}ns"
                )
            if lane and (not heap or lane[0] < heap[0]):
                if until is not None and lane[0][0] > until:
                    self.now = until
                    return self.now
                entry = lane.popleft()
                self._events_processed += 1
                self.now = entry[0]
                start_task(entry[2])
            else:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return self.now
                entry = heappop(heap)
                self._events_processed += 1
                self.now = entry[0]
                fn = entry[2]
                if fn is None:
                    resume(entry[3], entry[4])
                else:
                    fn(entry[3])
        if until is None:
            blocked = [t for t in self.tasks if t.state is not _DONE and t.state is not _NEW]
            if blocked:
                names = ", ".join(f"{t.name}[{t.state.value}]" for t in blocked[:12])
                raise DeadlockError(
                    f"event queue drained with {len(blocked)} blocked task(s): {names}",
                    blocked,
                )
        elif self.now < until:
            self.now = until
        return self.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _at(self, time_ns: int, fn: Callable, arg: Any) -> None:
        if time_ns < self.now:
            time_ns = self.now  # never schedule into the past
        self._seq += 1
        heappush(self._heap, (time_ns, self._seq, fn, arg))

    @staticmethod
    def _call(fn: Callable[[], None]) -> None:
        fn()

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def _start_task(self, task: Task) -> None:
        task.start()
        cpu = self.cpus[task.cpu_id]
        if cpu.current is None and self.now >= cpu.frozen_until:
            cpu.current = task
            task.state = _RUNNING
            # The first step resumes the fresh generator with None.
            self._resume(task, None)
        else:
            task.state = _READY
            cpu.enqueue(task)
            self._dispatch(cpu)

    def _finish_task(self, task: Task, result: Any) -> None:
        task.state = _DONE
        # Nothing reads either after DONE; an open-loop trace keeps
        # thousands of finished tasks in ``tasks``.
        task.gen = task._body = None
        task.result = result
        task.finish_time = self.now
        self._c_finished.value += 1
        self._release_cpu(task)

    def _release_cpu(self, task: Task) -> None:
        cpu = self.cpus[task.cpu_id]
        cpu.current = None
        self._dispatch(cpu)

    # ------------------------------------------------------------------
    # Completion & scheduling
    # ------------------------------------------------------------------
    def _complete(self, task: Task, result: Any, at: int) -> None:
        """Resume ``task`` with ``result`` at ``at`` (never in the past)."""
        if at < self.now:
            at = self.now
        self._seq += 1
        heappush(self._heap, (at, self._seq, None, task, result))

    def _resume(self, task: Task, result: Any) -> None:
        """Deliver a request's result and run the task to its next request.

        The only place a task's generator is resumed.  The task is
        RUNNING and current on its CPU: it has held the CPU since the
        request was made.  ``Load`` and ``Delay``, most of all requests,
        are priced right here; the rest go through the handler table.
        """
        now = self.now
        frozen_until = self.cpus[task.cpu_id].frozen_until
        if frozen_until > now:
            # vCPU descheduled: progress resumes at thaw.
            self._seq += 1
            heappush(self._heap, (frozen_until, self._seq, None, task, result))
            return
        try:
            request = task.gen.send(result)
        except StopIteration as stop:
            self._finish_task(task, stop.value)
            return
        except Exception as exc:  # body raised: record and re-raise
            task.error = exc
            task.state = _DONE
            task.finish_time = self.now
            self._release_cpu(task)
            raise
        kind = type(request)
        if kind is _Load:
            finish, value = self._cache_load(now, task.cpu_id, request.cell)
            self._seq += 1
            heappush(self._heap, (finish if finish > now else now, self._seq, None, task, value))
        elif kind is _Delay:
            cost = int(request.ns * self._speed[task.cpu_id])
            self._seq += 1
            heappush(self._heap, (now + cost if cost > 0 else now, self._seq, None, task, None))
        else:
            handler = self._handlers.get(kind)
            if handler is None:
                raise TaskError(
                    f"{task.name} yielded {request!r}, which is not a sim request"
                )
            handler(task, request)

    def _dispatch(self, cpu: CPU) -> None:
        """Hand an idle CPU to the head of its run queue: a fresh task
        takes its first step, a woken one returns from its park."""
        if cpu.current is not None:
            return
        if cpu.frozen_until > self.now:
            self._at(cpu.frozen_until, self._dispatch, cpu)
            return
        nxt = cpu.pick_next()
        if nxt is None:
            return
        cpu.current = nxt
        nxt.state = _RUNNING
        self._c_switches.value += 1
        value = nxt.pending_value
        nxt.pending_value = None
        self._complete(nxt, value, self.now + self.topology.latency.context_switch)

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _h_store(self, task: Task, req: ops.Store) -> None:
        finish, _none, rechecks = self.cache.store(
            self.now, task.cpu_id, req.cell, req.value
        )
        if rechecks:
            self._schedule_rechecks(rechecks)
        self._complete(task, None, finish)

    def _h_cas(self, task: Task, req: ops.CAS) -> None:
        finish, result, rechecks = self.cache.cas(
            self.now, task.cpu_id, req.cell, req.expected, req.new
        )
        if rechecks:
            self._schedule_rechecks(rechecks)
        self._complete(task, result, finish)

    def _h_xchg(self, task: Task, req: ops.Xchg) -> None:
        finish, old, rechecks = self.cache.xchg(self.now, task.cpu_id, req.cell, req.value)
        if rechecks:
            self._schedule_rechecks(rechecks)
        self._complete(task, old, finish)

    def _h_fetch_add(self, task: Task, req: ops.FetchAdd) -> None:
        finish, old, rechecks = self.cache.fetch_add(
            self.now, task.cpu_id, req.cell, req.delta
        )
        if rechecks:
            self._schedule_rechecks(rechecks)
        self._complete(task, old, finish)

    def _schedule_rechecks(self, rechecks) -> None:
        for waiter, at in rechecks:
            self._at(at, self._waiter_recheck, waiter)

    def _h_wait_value(self, task: Task, req: ops.WaitValue) -> None:
        finish, value = self.cache.load(self.now, task.cpu_id, req.cell)
        self._at(finish, self._wait_first_check, (task, req))

    def _wait_first_check(self, payload) -> None:
        task, req = payload
        value = req.cell.value
        if req.pred(value):
            self._complete(task, value, self.now)
            return
        waiter = CellWaiter(task, req.pred)
        waiter_cell = req.cell
        task.state = _SPINNING
        self.cache.add_waiter(waiter_cell, waiter)
        task._spin_waiter = (waiter_cell, waiter)
        self._c_local_spins.value += 1

    def _waiter_recheck(self, waiter: CellWaiter) -> None:
        # Run-to-park: a waiter leaves its cell only through its own
        # successful recheck, and ``armed`` keeps a second recheck from
        # being scheduled while one is pending, so every recheck finds
        # its task spinning on its CPU.
        task = waiter.task
        cell, _w = task._spin_waiter
        # The recheck is a read: the spinner holds a shared copy again,
        # so the next write pays to invalidate it.
        if cell.owner != task.cpu_id:
            cell.sharers.add(task.cpu_id)
        value = cell.value
        if not waiter.pred(value):
            waiter.armed = True
            return
        self.cache.remove_waiter(cell, waiter)
        task._spin_waiter = None
        # A spinner keeps its CPU: it resumes right away (or at the thaw).
        task.state = _RUNNING
        self._complete(task, value, self.now)

    # ------------------------------------------------------------------
    # Park / unpark (futex semantics)
    # ------------------------------------------------------------------
    def _h_park(self, task: Task, req: ops.Park) -> None:
        if task.park_token:
            task.park_token = False
            self._complete(task, True, self.now + _PARK_FASTPATH_NS)
            return
        task.state = _PARKED
        cpu = self.cpus[task.cpu_id]
        cpu.current = None
        # Park cost is paid by the CPU before the next dispatch.
        self._at(self.now + self.topology.latency.park_cost, self._dispatch, cpu)
        self._c_parks.value += 1

    def _h_unpark(self, task: Task, req: ops.Unpark) -> None:
        self._complete(task, None, self.now + self.topology.latency.wake_cost)
        self._at(self.now, self._do_unpark, req.task)

    def _do_unpark(self, target: Task) -> None:
        if target.state is _DONE:
            return
        if target.state is _PARKED:
            self._at(self.now + self.topology.latency.wake_latency, self._wake, target)
        else:
            target.park_token = True

    def _wake(self, task: Task) -> None:
        # Two unparks of one parked task both schedule a wake; the first wins.
        if task.state is not _PARKED:
            return
        self._c_wakeups.value += 1
        cpu = self.cpus[task.cpu_id]
        task.pending_value = True
        task.state = _READY
        cpu.enqueue(task)
        self._dispatch(cpu)
