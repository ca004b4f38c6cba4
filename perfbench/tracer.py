"""Per-layer host-time tracing from outside the program.

:class:`Tracer` installs wrappers around each layer's public functions —
patched where each *caller* looks the name up (``Concord._breaker_fn``
and ``repro.concord.framework.make_hook_fn``, not ``repro.concord.api``)
— and removes them again on :meth:`Tracer.uninstall`.  Wrappers only
observe: they never yield, draw randomness or touch simulated state, so
a traced run simulates exactly what an untraced one does (the runner
checks that through the golden digests).

Every span is folded into a table keyed by ``(phase, layer, parent
layer)`` holding calls, inclusive and child nanoseconds and raised
exceptions, so the hot layers (cache, topology, VM) fit in memory.  A
layer's self time is its inclusive time minus the time its traced
children covered.  Cold layers (rollouts, canaries, scrubs, placement)
also keep each span with its start, end and parent, written out with the
table when the run ends.

Generator-based lock calls are timed per resume: the host work between
two yields is one span, and the generator count is the call count.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bpf.verifier import Verifier
from repro.bpf.vm import VM
from repro.concord import framework
from repro.concord.framework import Concord
from repro.concord.profiler import ProfileSession
from repro.controlplane.canary import CanaryRollout
from repro.controlplane.journal import PolicyJournal
from repro.fleet import FleetCoordinator, PlacementMap
from repro.livepatch.patcher import Patcher
from repro.locks.mcs import MCSLock
from repro.locks.shfllock import ShflLock
from repro.locks.switchable import SwitchableLock
from repro.netsim import Fabric
from repro.replication import ReplicaGroup
from repro.replication.journal import ReplicatedJournal
from repro.sim.cache import CacheModel
from repro.sim.engine import Engine
from repro.sim.topology import Topology
from repro.storage import Scrubber
from repro.traffic import TraceGenerator, TraceRunner

__all__ = ["Tracer"]

_now = time.perf_counter_ns

#: (owner, attribute, layer, cold) for plain call wrappers.
_CALLS = (
    (Engine, "run", "sim.engine", False),
    (CacheModel, "load", "sim.cache", False),
    (CacheModel, "store", "sim.cache", False),
    (CacheModel, "cas", "sim.cache", False),
    (CacheModel, "xchg", "sim.cache", False),
    (CacheModel, "fetch_add", "sim.cache", False),
    (Topology, "hops", "sim.topology", False),
    (Topology, "transfer_ns", "sim.topology", False),
    (ProfileSession, "snapshot", "concord.profiler", True),
    (ProfileSession, "stop", "concord.profiler", True),
    (Verifier, "verify", "bpf.verifier", False),
    (Patcher, "enable", "livepatch", False),
    (SwitchableLock, "attach_hooks", "livepatch", False),
    (CanaryRollout, "run", "controlplane.canary", True),
    (PolicyJournal, "append", "controlplane.journal", False),
    (ReplicatedJournal, "append", "controlplane.journal", False),
    (ReplicaGroup, "append", "replication.append", False),
    (ReplicaGroup, "compact", "replication.compact", True),
    (Scrubber, "scrub_group", "storage.scrub", True),
    (Fabric, "deliver", "netsim.deliver", False),
    (FleetCoordinator, "execute", "fleet.coordinator", True),
    (TraceGenerator, "generate", "traffic.generate", True),
    (TraceRunner, "install", "traffic.install", True),
)

#: (owner, attribute, layer) for generator-returning lock methods.
_GENERATORS = tuple(
    (cls, side, f"locks.{family}.{side}")
    for cls, family in ((ShflLock, "shfllock"), (MCSLock, "mcs"), (SwitchableLock, "switchable"))
    for side in ("acquire", "release")
)


class Tracer:
    """Span aggregation plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: "setup" or "measure"; the runner flips it between phases.
        self.phase = "setup"
        #: (phase, layer, parent) -> [calls, inclusive_ns, child_ns, raised]
        self.table: Dict[Tuple[str, str, Optional[str]], List[int]] = {}
        #: cold spans: (phase, layer, parent, start_ns, end_ns)
        self.spans: List[Tuple[str, str, Optional[str], int, int]] = []
        #: generators created per layer (lock acquires/releases).
        self.generators: Dict[str, int] = {}
        #: summed modelled VM cost (simulated ns) of every program run.
        self.vm_sim_cost_ns = 0
        self._stack: List[List[Any]] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _close(self, frame: List[Any], start: int, raised: bool, cold: bool) -> None:
        end = _now()
        stack = self._stack
        stack.pop()
        elapsed = end - start
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += elapsed
        key = (self.phase, frame[0], parent)
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = [0, 0, 0, 0]
        row[0] += 1
        row[1] += elapsed
        row[2] += frame[1]
        row[3] += raised
        if cold:
            self.spans.append((self.phase, frame[0], parent, start, end))

    def timed(self, layer: str, fn: Callable, cold: bool = False) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        tracer = self

        def traced(*args, **kwargs):
            frame = [layer, 0]
            tracer._stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, start, True, cold)
                raise
            tracer._close(frame, start, False, cold)
            return result

        return traced

    def _timed_generator(self, layer: str, gen):
        """Drive ``gen``, one span per resume; forwards sends, throws,
        close and the return value unchanged."""
        self.generators[layer] = self.generators.get(layer, 0) + 1
        value = None
        error: Optional[BaseException] = None
        while True:
            frame = [layer, 0]
            self._stack.append(frame)
            start = _now()
            try:
                item = gen.throw(error) if error is not None else gen.send(value)
            except StopIteration as stop:
                self._close(frame, start, False, False)
                return stop.value
            except BaseException:
                self._close(frame, start, True, False)
                raise
            self._close(frame, start, False, False)
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                error = exc

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)

        def undo() -> None:
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def install(self) -> None:
        tracer = self
        for owner, attr, layer, cold in _CALLS:
            self._patch(owner, attr, self.timed(layer, getattr(owner, attr), cold))

        for owner, attr, layer in _GENERATORS:
            method = getattr(owner, attr)

            def traced_gen(lock, task, _method=method, _layer=layer):
                return tracer._timed_generator(_layer, _method(lock, task))

            self._patch(owner, attr, traced_gen)

        vm_run = self.timed("bpf.vm", VM.run)

        def traced_vm_run(vm, *args, **kwargs):
            result = vm_run(vm, *args, **kwargs)
            tracer.vm_sim_cost_ns += result[1]
            return result

        self._patch(VM, "run", traced_vm_run)

        learn = vars(PlacementMap)["learn"].__func__
        self._patch(
            PlacementMap, "learn", classmethod(self.timed("fleet.placement", learn, True))
        )

        breaker_fn = Concord._breaker_fn

        def traced_breaker_fn(concord, loaded, fn):
            return tracer.timed("concord.hook", breaker_fn(concord, loaded, fn))

        self._patch(Concord, "_breaker_fn", traced_breaker_fn)

        make_hook_fn = framework.make_hook_fn

        def traced_make_hook_fn(*args, **kwargs):
            return tracer.timed("concord.pack", make_hook_fn(*args, **kwargs))

        self._patch(framework, "make_hook_fn", traced_make_hook_fn)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def layer(self, layer: str, phase: Optional[str] = None) -> Tuple[int, int, int, int]:
        """``(calls, inclusive_ns, self_ns, raised)`` of ``layer``, over
        one phase or both.  Inclusive time counts a span nested in a
        span of the same layer twice; self time never does."""
        calls = inclusive = self_ns = raised = 0
        for (row_phase, name, _parent), row in self.table.items():
            if name != layer or (phase is not None and row_phase != phase):
                continue
            calls += row[0]
            inclusive += row[1]
            self_ns += row[1] - row[2]
            raised += row[3]
        return calls, inclusive, self_ns, raised

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the aggregated table and the cold spans as JSON."""
        rows = [
            {
                "phase": phase,
                "layer": layer,
                "parent": parent,
                "calls": row[0],
                "inclusive_ns": row[1],
                "self_ns": row[1] - row[2],
                "raised": row[3],
            }
            for (phase, layer, parent), row in sorted(
                self.table.items(), key=lambda item: (item[0][0], item[0][1], item[0][2] or "")
            )
        ]
        spans = [
            {"phase": p, "layer": l, "parent": par, "start_ns": s, "end_ns": e}
            for p, l, par, s, e in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "layers": rows, "spans": spans}, fh, indent=1)
            fh.write("\n")
