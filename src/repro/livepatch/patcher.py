"""Kernel live patching (kpatch/klp) for lock call sites.

Concord "uses the livepatch module to replace the annotated functions
for the specified locks" (Figure 1, step 6).  In the simulation every
patchable lock resolves through a :class:`~repro.locks.switchable`
wrapper; this module provides the *patch objects* and the engine-side
bookkeeping on top:

* :class:`LivePatch` — a named set of implementation switches, enabled
  all or nothing (every site is checked before any switch is
  requested) and reverted together;
* :class:`Patcher` — applies patches against a lock registry, tracks
  what is active, measures transition latency (request → engaged, i.e.
  the kpatch consistency-model drain), and supports rollback: the
  :meth:`Patcher.revert` path restores the pre-patch lock
  implementation through the same quiesced drain the forward switch
  used (no waiter ever observes a half-reverted site).

The patcher only swaps implementations.  Hook programs belong to the
call site: Concord attaches them there, and the site carries them
across every switch.

Steady-state cost of a patched site is the trampoline charge inside the
switchable wrapper; transition cost is the drain latency, both of which
the ablation benchmarks report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..faults import fault_point
from ..locks.base import Lock, LockError
from ..locks.registry import LockRegistry
from ..locks.switchable import SwitchableLock

__all__ = ["PatchOp", "LivePatch", "Patcher", "PatchError"]


class PatchError(LockError):
    """A patch could not be applied or reverted."""


class PatchOp:
    """One operation inside a patch: an implementation swap."""

    __slots__ = ("lock_name", "new_impl_factory")

    def __init__(self, lock_name: str, new_impl_factory: Callable[[Lock], Lock]) -> None:
        self.lock_name = lock_name
        #: Called with the current implementation, returns the new one
        #: (factory style so a patch object can be built before the
        #: engine exists).
        self.new_impl_factory = new_impl_factory

    def __repr__(self) -> str:
        return f"PatchOp({self.lock_name}, impl-switch)"


class LivePatch:
    """A named, revertible collection of :class:`PatchOp`."""

    def __init__(self, name: str, ops: List[PatchOp]) -> None:
        self.name = name
        self.ops = list(ops)
        self.applied = False
        self.reverted = False
        self.applied_at: Optional[int] = None
        self.reverted_at: Optional[int] = None
        #: Saved state for revert: lock name -> pre-switch implementation
        self._saved_impls: Dict[str, Lock] = {}

    def __repr__(self) -> str:
        state = "reverted" if self.reverted else ("applied" if self.applied else "pending")
        return f"LivePatch({self.name!r}, {len(self.ops)} ops, {state})"


class Patcher:
    """Applies livepatches to registered lock call sites."""

    def __init__(self, engine, registry: LockRegistry) -> None:
        self.engine = engine
        self.registry = registry
        self.active: Dict[str, LivePatch] = {}

    # ------------------------------------------------------------------
    def enable(self, patch: LivePatch) -> None:
        """Apply a patch (klp_enable_patch), all or nothing.

        Every op is checked before any switch is requested: a lock that
        is not a patchable call site, one still draining an earlier
        switch, or one the patch names twice refuses the whole patch,
        and no site changes.  Each op's factory runs just before its
        site is checked.

        Implementation switches use drain semantics inside the call
        site: the swap engages once in-flight critical sections on the
        old implementation complete (whenever the workload next
        quiesces the lock);
        :attr:`SwitchableLock.core.last_switch_latency` reports the
        drain time afterwards.
        """
        fault_point("livepatch.enable", default_exc=PatchError, patch=patch.name)
        if patch.name in self.active:
            raise PatchError(f"patch {patch.name!r} is already enabled")
        if patch.applied:
            raise PatchError(f"patch {patch.name!r} was already applied once")
        switches: Dict[str, Tuple[SwitchableLock, Lock]] = {}
        for op in patch.ops:
            site = self.registry.get(op.lock_name)
            if not isinstance(site, SwitchableLock):
                raise PatchError(
                    f"lock {op.lock_name!r} is not a patchable call site "
                    f"(wrap it in SwitchableLock to annotate it)"
                )
            new_impl = op.new_impl_factory(site.core.impl)
            if site.core.pending_impl is not None:
                raise LockError("a lock switch is already in progress")
            if op.lock_name in switches:
                raise PatchError(f"patch {patch.name!r} names lock {op.lock_name!r} twice")
            switches[op.lock_name] = (site, new_impl)
        for lock_name, (site, new_impl) in switches.items():
            patch._saved_impls[lock_name] = site.core.impl
            site.request_switch(new_impl)
        patch.applied = True
        patch.applied_at = self.engine.now
        self.active[patch.name] = patch

    def revert(self, patch_name: str) -> LivePatch:
        """Roll a patch back (klp_disable_patch).

        Each switch is counter-patched to the implementation the site
        ran before :meth:`enable`, with quiescence: if the forward drain
        is still in flight the pending implementation is redirected (no
        waiter ever lands on the abandoned implementation); otherwise a
        fresh drain is requested.  Lock state never spans two implementations in either
        direction — the consistency argument is the forward one, run in
        reverse.
        """
        patch = self.active.pop(patch_name, None)
        if patch is None:
            raise PatchError(f"patch {patch_name!r} is not enabled")
        for op in patch.ops:
            site = self.registry.get(op.lock_name)
            saved = patch._saved_impls[op.lock_name]
            if site.core.pending_impl is not None:
                # Forward drain still in flight: redirect it so the
                # site quiesces straight back to the saved impl, and
                # drop any injected stall so the gate cannot stay
                # closed on a switch nobody wants anymore.
                site.core.pending_impl = saved
                site.core.cancel_stall()
            else:
                site.request_switch(saved)
        patch.reverted = True
        patch.reverted_at = self.engine.now
        return patch

    # ------------------------------------------------------------------
    def switch_lock(self, lock_name: str, new_impl_factory) -> LivePatch:
        """Convenience: one-op patch switching a lock's implementation."""
        patch = LivePatch(
            f"switch:{lock_name}@{self.engine.now}",
            [PatchOp(lock_name, new_impl_factory=new_impl_factory)],
        )
        self.enable(patch)
        return patch

    def switch_latency(self, lock_name: str) -> Optional[int]:
        site = self.registry.get(lock_name)
        if isinstance(site, SwitchableLock):
            return site.core.last_switch_latency
        return None
