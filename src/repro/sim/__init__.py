"""Deterministic discrete-event multicore simulator.

This package is the hardware-and-kernel substrate for the reproduction:
a NUMA machine model (:mod:`.topology`), a cache-line coherence cost
model (:mod:`.cache`), generator-based tasks (:mod:`.task`), an event
engine with per-CPU run queues (:mod:`.engine`, :mod:`.scheduler`), and
the counters the engine and cache model publish (:mod:`.stats`).  A
task keeps its CPU until it parks or finishes; blocking locks sleep and
wake through the engine's ``Park``/``Unpark`` requests (:mod:`.ops`),
and a frozen CPU models a preempted vCPU.

Quick example::

    from repro.sim import Engine, Topology, ops

    topo = Topology(sockets=2, cores_per_socket=4)
    eng = Engine(topo, seed=42)
    word = eng.cell(0, name="lock-word")

    def worker(task):
        ok, old = yield ops.CAS(word, 0, task.tid)
        yield ops.Delay(100)
        yield ops.Store(word, 0)

    eng.spawn(worker, cpu=0)
    eng.run()
"""

from . import ops
from .cache import CacheModel, Cell
from .engine import Engine
from .errors import DeadlockError, SimError, SimLimitError, TaskError, TopologyError
from .stats import Counter, StatsRegistry, quantile
from .task import Task, TaskState
from .topology import LatencyModel, Topology, amp_machine, paper_machine

__all__ = [
    "ops",
    "CacheModel",
    "Cell",
    "Engine",
    "DeadlockError",
    "SimError",
    "SimLimitError",
    "TaskError",
    "TopologyError",
    "Counter",
    "StatsRegistry",
    "quantile",
    "Task",
    "TaskState",
    "LatencyModel",
    "Topology",
    "amp_machine",
    "paper_machine",
]
