"""The canary rollout engine: measure, install small, watch, decide.

A verified submission never goes fleet-wide at once.  The engine:

1. picks a deterministic **canary subset** of the selector's locks;
2. profiles that subset *before* anything changes (the baseline);
3. installs the submission on the subset only — hook programs through
   :meth:`Concord.load_policy` with explicit targets, implementation
   switches as one livepatch per lock (drain semantics);
4. profiles the subset again under the same workload, optionally in
   watch windows that evaluate the SLO guard mid-benchmark;
5. **promotes** (attaches to the remaining locks) when the guard is
   happy, or **rolls back** when it trips: the hook programs unload and
   every livepatch reverts through the patcher's quiesced revert path,
   so the locks return to their pre-canary implementation with waiters
   intact.

All timing is simulated time; the engine drives the kernel's event loop
itself, so callers just start their workload and hand over control.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..concord.framework import Concord
from ..concord.profiler import ProfileSession, ProfilerStall
from ..faults import fault_point
from .lifecycle import AuditLog, LifecycleError, PolicyRecord, PolicyState
from .guards import SLOGuard

__all__ = ["CanaryRollout", "DEFAULT_MAX_SNAPSHOT_STALLS"]

#: Consecutive profiler-snapshot stalls the canary watchdog tolerates
#: before force-resolving the watch window to ROLLED_BACK.
DEFAULT_MAX_SNAPSHOT_STALLS = 3

#: Simulated time the canary install gets to let impl-switch drains
#: engage before the canary window starts measuring.
SETTLE_NS = 2_000

#: Smallest default canary subset.
MIN_CANARY_LOCKS = 1


class CanaryRollout:
    """Executes SUBMITTED-side-verified records through CANARY."""

    def __init__(self, concord: Concord, audit: AuditLog) -> None:
        self.concord = concord
        self.kernel = concord.kernel
        self.audit = audit

    # ------------------------------------------------------------------
    def plan(self, targets: List[str], fraction: float) -> List[str]:
        """The default canary subset: deterministic (sorted prefix), at
        least :data:`MIN_CANARY_LOCKS`, never the whole fleet unless the
        fleet is tiny.  The fleet planner replaces this with a
        placement-aware subset via ``run(..., canary_locks=...)``."""
        ordered = sorted(targets)
        count = max(MIN_CANARY_LOCKS, math.ceil(len(ordered) * fraction))
        return ordered[: min(count, len(ordered))]

    # ------------------------------------------------------------------
    def run(
        self,
        record: PolicyRecord,
        guard: SLOGuard,
        baseline_ns: int,
        canary_ns: int,
        canary_fraction: float = 0.5,
        check_every_ns: Optional[int] = None,
        canary_locks: Optional[List[str]] = None,
    ) -> PolicyRecord:
        """Drive one record VERIFIED → CANARY → ACTIVE/ROLLED_BACK.

        ``canary_locks`` overrides the default sorted-prefix subset with
        an explicit one (the fleet planner's placement-aware pick); every
        name must be inside the selector's resolved targets.

        The **canary watchdog**: a watch window whose profiler snapshots
        keep stalling can never produce a verdict, so after
        :data:`DEFAULT_MAX_SNAPSHOT_STALLS` *consecutive* stalls the
        window is force-resolved to ROLLED_BACK rather than left running
        an unjudged policy.  Impl switches drain unbounded; an install
        that raises resolves the record to ROLLED_BACK with everything
        unwound.
        """
        if record.state is not PolicyState.VERIFIED:
            raise LifecycleError(
                f"{record.name}: rollout needs state VERIFIED, record is {record.state}"
            )
        submission = record.submission
        targets = self.kernel.locks.select_names(submission.lock_selector)
        record.target_locks = targets
        if canary_locks is not None:
            outside = [name for name in canary_locks if name not in targets]
            if outside:
                raise LifecycleError(
                    f"{record.name}: canary locks outside the selector's "
                    f"targets: {', '.join(outside)}"
                )
            canary_locks = list(dict.fromkeys(canary_locks))
            if not canary_locks:
                raise LifecycleError(f"{record.name}: empty explicit canary subset")
        else:
            canary_locks = self.plan(targets, canary_fraction)
        record.canary_locks = canary_locks
        rest = [name for name in targets if name not in canary_locks]

        # -- 1. baseline window on the untouched canary locks ----------
        session = ProfileSession(self.concord, canary_locks)
        self.kernel.run(until=self.kernel.now + baseline_ns)
        record.baseline_report = session.stop()

        # -- 2. install on the canary subset ---------------------------
        try:
            self._install(record, canary_locks)
        except Exception as exc:
            # _install unwound everything it had applied; the record
            # resolves terminally so quota and audit stay truthful.
            record.error = str(exc)
            record.transition(
                PolicyState.ROLLED_BACK,
                f"canary install failed ({exc}); nothing left installed",
                self.audit,
                self.kernel.now,
            )
            raise
        record.transition(
            PolicyState.CANARY,
            f"installed on {len(canary_locks)}/{len(targets)} lock(s): "
            + ", ".join(canary_locks),
            self.audit,
            self.kernel.now,
        )
        # Let impl-switch drains engage before measuring.
        self.kernel.run(until=self.kernel.now + SETTLE_NS)

        # -- 3. canary window, optionally with mid-benchmark checks ----
        session = ProfileSession(self.concord, canary_locks)
        end = self.kernel.now + canary_ns
        tripped = None
        watchdog: Optional[str] = None
        stalls = 0
        if check_every_ns:
            while self.kernel.now < end and not record.terminal:
                # Crash-injection checkpoint: the drill kills the daemon
                # here, mid-watch-window, with everything installed.
                fault_point("controlplane.canary.checkpoint", policy=record.name)
                self.kernel.run(until=min(end, self.kernel.now + check_every_ns))
                if record.terminal:
                    break  # breaker auto-rollback resolved it mid-window
                try:
                    snap = session.snapshot()
                except ProfilerStall as exc:
                    stalls += 1
                    if stalls >= DEFAULT_MAX_SNAPSHOT_STALLS:
                        watchdog = (
                            f"watchdog force-resolved stuck watch window after "
                            f"{stalls} consecutive profiler stalls ({exc})"
                        )
                        break
                    continue
                stalls = 0
                verdict = guard.evaluate(record.baseline_report, snap)
                if verdict.ready and not verdict.ok:
                    tripped = verdict
                    break
        else:
            self.kernel.run(until=end)
        record.canary_report = session.stop()
        if record.terminal:
            # The circuit breaker (via the daemon's fail-open bridge)
            # rolled this record back while the window was running;
            # everything is already torn down and audited.
            return record
        record.verdict = tripped or guard.evaluate(
            record.baseline_report, record.canary_report
        )

        # -- 4. decide -------------------------------------------------
        if watchdog is not None:
            self.rollback(record)
            record.transition(
                PolicyState.ROLLED_BACK,
                f"{watchdog}; restored pre-canary hooks/implementation "
                f"on {len(canary_locks)} lock(s)",
                self.audit,
                self.kernel.now,
            )
            return record
        if tripped is not None or (record.verdict.ready and not record.verdict.ok):
            when = "mid-benchmark " if tripped is not None else ""
            self.rollback(record)
            record.transition(
                PolicyState.ROLLED_BACK,
                f"{when}{record.verdict.describe()}; restored pre-canary "
                f"hooks/implementation on {len(canary_locks)} lock(s)",
                self.audit,
                self.kernel.now,
            )
            return record

        self._promote(record, rest)
        cause = record.verdict.describe() if record.verdict.ready else (
            "canary window too quiet to judge; promoting on verifier trust"
        )
        record.transition(
            PolicyState.ACTIVE,
            f"{cause}; live on all {len(targets)} lock(s)",
            self.audit,
            self.kernel.now,
        )
        return record

    # ------------------------------------------------------------------
    def _install(self, record: PolicyRecord, lock_names: List[str]) -> None:
        submission = record.submission
        loaded = []
        applied = []
        try:
            for spec in submission.specs:
                loaded.append(self.concord.load_policy(spec, targets=lock_names))
            if submission.impl_factory is not None:
                for name in lock_names:
                    applied.append(self.concord.switch_lock(name, submission.impl_factory))
        except Exception:
            # Unwind *everything* partially applied — later patches
            # first, then the hook programs — so a failed install leaves
            # no patch leaked and no program attached.
            patcher = self.kernel.patcher
            for patch in reversed(applied):
                if patch.name in patcher.active:
                    patcher.revert(patch.name)
            for policy in loaded:
                self.concord.unload_policy(policy.name)
            raise
        record.patches.extend(applied)

    def _promote(self, record: PolicyRecord, rest: List[str]) -> None:
        submission = record.submission
        if rest:
            for spec in submission.specs:
                self.concord.attach_policy(spec.name, rest)
        if submission.impl_factory is not None:
            for name in rest:
                record.patches.append(
                    self.concord.switch_lock(name, submission.impl_factory)
                )

    def rollback(self, record: PolicyRecord) -> None:
        """Undo everything :meth:`_install`/:meth:`_promote` did.

        Hook programs unload (idempotently); implementation patches
        revert newest-first through the patcher's quiesced revert path.
        """
        submission = record.submission
        for spec in submission.specs:
            self.concord.unload_policy(spec.name)
        patcher = self.kernel.patcher
        for patch in reversed(record.patches):
            if patch.name in patcher.active:
                patcher.revert(patch.name)
