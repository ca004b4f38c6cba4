"""Run-time switchable lock call sites (the livepatch target).

In the paper, Concord "uses the livepatch module to replace the
annotated functions for the specified locks".  The simulated equivalent:
every patchable lock call site resolves through a :class:`SwitchableLock`
(:class:`SwitchableRWLock` adds only a read side), which

* forwards to the *current implementation*,
* owns the attached hook programs and carries them across every
  implementation switch,
* charges a trampoline cost per entry once the site has been patched
  (the ftrace/livepatch redirection a patched kernel function pays —
  this is the machinery behind the worst-case ~20 % of Figure 2c), and
* supports an atomic implementation switch with *drain* semantics: new
  acquirers are gated while in-flight critical sections on the old
  implementation complete, then the pointer flips.  Lock state never
  spans two implementations, which is the mutual-exclusion safety
  argument the paper's verifier must preserve.

The switch latency (request → engaged) is observable and benchmarked by
the ablation suite.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..faults import fault_point
from ..sim.ops import Delay, Load, WaitValue
from ..sim.task import Task
from .base import (
    HOOK_LOCK_ACQUIRE,
    HOOK_LOCK_ACQUIRED,
    HOOK_LOCK_CONTENDED,
    HOOK_LOCK_RELEASE,
    HookSet,
    Lock,
    LockError,
    RWLock,
)

__all__ = ["SwitchableLock", "SwitchableRWLock", "DEFAULT_TRAMPOLINE_NS"]

#: Per-entry cost of the livepatch trampoline + Concord dispatch check.
DEFAULT_TRAMPOLINE_NS = 40


def _gate_open(value) -> bool:
    return value == 0


class _SwitchCore:
    """A call site's current implementation, its gate and its drain."""

    def __init__(self, engine, name: str, impl) -> None:
        self.engine = engine
        self.name = name
        self.gate = engine.cell(0, name=f"{name}.gate")
        # Requests are immutable: the wrappers yield these two every entry.
        self.load_gate = Load(self.gate)
        self.wait_gate_open = WaitValue(self.gate, _gate_open)
        self.impl = impl
        self.pending_impl = None
        self.inflight = 0
        self.patched = False
        self.trampoline_ns = DEFAULT_TRAMPOLINE_NS
        self.switch_requested_at: Optional[int] = None
        self.switch_engaged_at: Optional[int] = None
        self.switch_count = 0
        #: When set, the drain is stalled (injected) until this time.
        self.stall_until: Optional[int] = None

    def request_switch(self, new_impl) -> None:
        if self.pending_impl is not None:
            raise LockError("a lock switch is already in progress")
        self.pending_impl = new_impl
        self.switch_requested_at = self.engine.now
        self.switch_engaged_at = None
        self.engine.external_store(self.gate, 1)
        self.maybe_complete()

    def maybe_complete(self) -> None:
        if self.pending_impl is None or self.inflight != 0:
            return
        if self.stall_until is not None:
            if self.engine.now < self.stall_until:
                return
            self.stall_until = None
        stall_ns = fault_point("livepatch.drain", lock=self.name)
        if stall_ns:
            # The drain refuses to quiesce for stall_ns of simulated
            # time; the gate stays closed and we re-check afterwards.
            self.stall_until = self.engine.now + stall_ns
            self.engine.call_after(stall_ns, self.maybe_complete)
            return
        new = self.pending_impl
        # The attached programs belong to the site: they follow it onto
        # the new implementation.
        new.hooks = self.impl.hooks
        self.impl = new
        self.pending_impl = None
        self.switch_engaged_at = self.engine.now
        self.switch_count += 1
        self.patched = True
        self.engine.external_store(self.gate, 0)

    def cancel_stall(self) -> None:
        """Drop an injected drain stall and retry completion now.

        Used by :meth:`Patcher.revert` after redirecting a pending
        switch: the redirected drain must not stay parked behind the
        original stall, or the gate would block every waiter.
        """
        if self.stall_until is not None:
            self.stall_until = None
            self.maybe_complete()

    @property
    def last_switch_latency(self) -> Optional[int]:
        if self.switch_requested_at is None or self.switch_engaged_at is None:
            return None
        return self.switch_engaged_at - self.switch_requested_at

    def leave(self) -> None:
        self.inflight -= 1
        if self.inflight < 0:
            raise LockError("switchable lock inflight underflow")
        if self.pending_impl is not None:
            self.maybe_complete()


class SwitchableLock(Lock):
    """A patchable lock call site: the current implementation, the hook
    programs attached to it, and the drain that switches it."""

    kind = "switchable"

    def __init__(self, engine, impl: Lock, name: str = "") -> None:
        super().__init__(engine, name or f"switchable.{impl.name}")
        self.core = _SwitchCore(engine, self.name, impl)
        self._acquired_impl: Dict[int, Lock] = {}

    # -- patch control (used by repro.livepatch) -------------------------
    @property
    def impl(self) -> Lock:
        return self.core.impl

    def request_switch(self, new_impl: Lock) -> None:
        self.core.request_switch(new_impl)

    def set_patched(self, patched: bool = True, trampoline_ns: Optional[int] = None) -> None:
        self.core.patched = patched
        if trampoline_ns is not None:
            self.core.trampoline_ns = trampoline_ns

    def attach_hooks(self, hooks: Optional[HookSet]) -> None:
        """Attach hook programs to the site (``None`` detaches them).

        They live on the current implementation and follow the site
        across every implementation switch.
        """
        self.core.impl.hooks = hooks
        self.core.patched = hooks is not None or self.core.switch_count > 0

    # -- lock protocol ---------------------------------------------------
    # Each side yields the gate and trampoline requests itself and fires
    # a profiling hook only when a program is attached, reading
    # ``impl.hooks`` again at every hook point: a policy attached or
    # detached while the task waits takes effect at the next one.
    def acquire(self, task: Task) -> Iterator:
        core = self.core
        if (yield core.load_gate):
            yield core.wait_gate_open
        if core.patched and core.trampoline_ns:
            yield Delay(core.trampoline_ns)
        core.inflight += 1
        impl = core.impl
        self._acquired_impl[task.tid] = impl
        hooks = impl.hooks
        if hooks is not None and HOOK_LOCK_ACQUIRE in hooks.programs:
            yield Delay(impl._fire(task, HOOK_LOCK_ACQUIRE, {})[1])
        yield from impl.acquire(task)
        if impl.last_acquire_contended:
            hooks = impl.hooks
            if hooks is not None and HOOK_LOCK_CONTENDED in hooks.programs:
                yield Delay(impl._fire(task, HOOK_LOCK_CONTENDED, {})[1])
        hooks = impl.hooks
        if hooks is not None and HOOK_LOCK_ACQUIRED in hooks.programs:
            yield Delay(impl._fire(task, HOOK_LOCK_ACQUIRED, {})[1])

    def release(self, task: Task) -> Iterator:
        impl = self._acquired_impl.pop(task.tid)
        core = self.core
        if core.patched and core.trampoline_ns:
            yield Delay(core.trampoline_ns)
        hooks = impl.hooks
        if hooks is not None and HOOK_LOCK_RELEASE in hooks.programs:
            yield Delay(impl._fire(task, HOOK_LOCK_RELEASE, {})[1])
        yield from impl.release(task)
        core.leave()

    def try_acquire(self, task: Task) -> Iterator:
        core = self.core
        if (yield core.load_gate):
            yield core.wait_gate_open
        if core.patched and core.trampoline_ns:
            yield Delay(core.trampoline_ns)
        core.inflight += 1
        impl = core.impl
        try:
            ok = yield from impl.try_acquire(task)
        except NotImplementedError:
            # An implementation without a trylock refuses before taking
            # anything; give the drain slot back, or a pending switch
            # would never engage.
            core.leave()
            raise
        if ok:
            self._acquired_impl[task.tid] = impl
        else:
            core.leave()
        return ok

    @property
    def locked(self) -> bool:
        return self.core.impl.locked

    @property
    def owner(self):
        return self.core.impl.owner


class SwitchableRWLock(SwitchableLock):
    """A patchable readers-writer lock call site.

    An :class:`RWLock`'s ``acquire``/``release`` are its write side, so
    writers take the exclusive path above; only the read side is this
    site's own.  Readers fire no ``lock_contended`` hook.
    """

    kind = "switchable-rw"
    is_rw = True

    def __init__(self, engine, impl: RWLock, name: str = "") -> None:
        super().__init__(engine, impl, name)
        self._read_impl: Dict[int, RWLock] = {}

    write_acquire = SwitchableLock.acquire
    write_release = SwitchableLock.release

    def read_acquire(self, task: Task) -> Iterator:
        core = self.core
        if (yield core.load_gate):
            yield core.wait_gate_open
        if core.patched and core.trampoline_ns:
            yield Delay(core.trampoline_ns)
        core.inflight += 1
        impl = core.impl
        self._read_impl[task.tid] = impl
        hooks = impl.hooks
        if hooks is not None and HOOK_LOCK_ACQUIRE in hooks.programs:
            yield Delay(impl._fire(task, HOOK_LOCK_ACQUIRE, {})[1])
        yield from impl.read_acquire(task)
        hooks = impl.hooks
        if hooks is not None and HOOK_LOCK_ACQUIRED in hooks.programs:
            yield Delay(impl._fire(task, HOOK_LOCK_ACQUIRED, {})[1])

    def read_release(self, task: Task) -> Iterator:
        impl = self._read_impl.pop(task.tid)
        core = self.core
        if core.patched and core.trampoline_ns:
            yield Delay(core.trampoline_ns)
        hooks = impl.hooks
        if hooks is not None and HOOK_LOCK_RELEASE in hooks.programs:
            yield Delay(impl._fire(task, HOOK_LOCK_RELEASE, {})[1])
        yield from impl.read_release(task)
        core.leave()

    @property
    def reader_count(self) -> int:
        return self.core.impl.reader_count
