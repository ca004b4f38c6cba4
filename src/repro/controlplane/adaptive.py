"""Adaptive overload defense: detect collapse, propose a cull, canary it.

Every earlier layer waits for an *operator*: someone reads the sweep,
sees the knee, writes a culling policy, submits it, watches the canary.
This module closes that loop.  :class:`CollapseDetector` reads the same
wait histograms the profiler already exports and recognizes the
scalability-collapse signature from the paper's motivating workloads —
tail wait blowing up while per-lock throughput *falls* — and
:class:`AdaptationLoop` turns a detection into a self-proposed
Malthusian culling policy (switch the collapsed lock to
:class:`~repro.locks.culling.CullingLock` with a cap derived from the
healthy reference window), submits it through the same admission and
lifecycle gates every human submission passes, canaries it under a
tail + fairness guard composite, and keeps it only if the tail
actually clears.  Every decision is journaled
(``kind: "adaptation"``, events ``collapse-detected`` /
``cull-proposed`` / ``cull-kept`` / ``cull-rolled-back``) so
:meth:`AdaptationLoop.recover` can replay the loop's history after a
crash and — the invariant chaos tests pin — never leave a
proposed-but-unjudged cull installed.

Collapse signature
------------------

The detector keeps, per lock, the highest-throughput window it has ever
seen (the *reference* — the healthy regime near the knee).  A later
window is a collapse when **both** hold:

* tail blowup: ``p99_wait >= P99_BLOWUP x max(ref p99, TAIL_FLOOR_NS)``
* throughput drop: ``rate <= (1 - RATE_DROP) x ref rate``

Either alone is ambiguous — a p99 spike with rising throughput is just
more load; falling throughput with a flat tail is the *workload*
quiescing.  Together they are the non-scalable-collapse curve from the
Malthusian-lock literature: more waiters, more cache-line bouncing per
handoff, less useful work.  Collapsed windows never update the
reference (a detector that learned the collapsed regime as "normal"
would never fire again).

Cap derivation
--------------

``suggested_cap`` comes from Little's law applied to the reference
window: ``L = lambda x W`` with ``lambda`` the reference acquisition
rate (ops/ns) and ``W`` the reference *hold* time gives the average
number of lock **holders** — the lock's utilization, at most ~1 for a
mutex.  That is the Malthusian insight in one number: a saturated lock
needs roughly one holder plus one spinning successor to keep handoffs
cheap, and every admitted waiter beyond that was already pure coherence
overhead at peak.  The cull therefore parks everyone beyond
``max(MIN_CAP, ceil(L))`` (at most ``MAX_CAP``) — in practice
``MIN_CAP`` (2: holder + one spinner) for any saturated lock.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional

from ..concord.profiler import ProfileReport, ProfileSession
from ..faults.registry import (
    SITE_ADAPTIVE_DETECT,
    SITE_ADAPTIVE_PROPOSE,
    fault_point,
)
from ..locks.culling import CullingLock
from .guards import AllOf, FairnessGuard, Guard, TailWaitGuard, pool_reports
from .journal import append_best_effort
from .lifecycle import ControlPlaneError, PolicyState, PolicySubmission

__all__ = [
    "AdaptationDecision",
    "AdaptationError",
    "AdaptationLoop",
    "CollapseDetector",
    "CollapseSignal",
    "culling_impl_factory",
    "default_cull_guard",
]

#: The collapse signature (module docstring): a tail ``P99_BLOWUP``
#: times the reference p99 (floored at ``TAIL_FLOOR_NS``) together
#: with a rate at most ``1 - RATE_DROP`` of the reference rate.
P99_BLOWUP = 3.0
RATE_DROP = 0.25
TAIL_FLOOR_NS = 200.0

#: A lock with fewer acquisitions in a window is not judged on it.
MIN_ACQUIRED = 20

#: Bounds of the suggested cull cap.
MIN_CAP = 2
MAX_CAP = 8

#: Post-promotion clearance (:meth:`AdaptationLoop._judge_clearance`):
#: a kept cull's p99 stays within ``MAX_RESIDUAL_TAIL`` times the
#: collapsed p99 and its rate recovers to ``RECOVER_FRACTION`` of the
#: healthy reference rate.
MAX_RESIDUAL_TAIL = 2.0
RECOVER_FRACTION = 0.75


class AdaptationError(ControlPlaneError):
    """An adaptation pass failed (also the natural exception type for
    faults injected at the ``adaptive.*`` sites)."""


class CollapseSignal(NamedTuple):
    """One detected collapse: the evidence plus the proposed remedy."""

    lock_name: str
    p99_ns: float
    rate_per_ms: float
    ref_p99_ns: float
    ref_rate_per_ms: float
    suggested_cap: int

    def describe(self) -> str:
        return (
            f"{self.lock_name}: p99 {self.ref_p99_ns:.0f}->{self.p99_ns:.0f}ns, "
            f"rate {self.ref_rate_per_ms:.1f}->{self.rate_per_ms:.1f} ops/ms "
            f"-- collapse; cull to cap {self.suggested_cap}"
        )


class _Reference(NamedTuple):
    """The best (highest-rate) window seen per lock — the healthy regime."""

    rate_per_ms: float
    p99_ns: float
    avg_wait_ns: float
    avg_hold_ns: float


class CollapseDetector:
    """Recognize the collapse signature in successive profiler windows."""

    def __init__(self) -> None:
        self._references: Dict[str, _Reference] = {}

    def reference(self, lock_name: str) -> Optional[_Reference]:
        return self._references.get(lock_name)

    def forget(self, lock_name: str) -> None:
        """Drop a lock's reference (after a kept cull changed its regime)."""
        self._references.pop(lock_name, None)

    def seed_reference(
        self,
        lock_name: str,
        rate_per_ms: float,
        p99_ns: float,
        avg_wait_ns: float = 0.0,
        avg_hold_ns: float = 0.0,
    ) -> None:
        """Restore a healthy reference from journaled evidence.

        A detector rebuilt after a crash has seen no windows; if the
        lock is *still* collapsed, its first observed window would
        become the reference and the collapse signature could never
        fire again.  Recovery re-seeds from the ``collapse-detected``
        journal entry instead, so the replayed loop judges the live
        regime against the same healthy window the crashed loop did.
        """
        self._references[lock_name] = _Reference(
            rate_per_ms=rate_per_ms,
            p99_ns=p99_ns,
            avg_wait_ns=avg_wait_ns,
            avg_hold_ns=avg_hold_ns,
        )

    def suggest_cap(self, ref: _Reference) -> int:
        """Little's law on the reference window (see module docstring):
        ``rate x avg_hold`` is the mean holder count (utilization), and
        the cap admits that many plus the ``MIN_CAP`` floor's spinning
        successor."""
        rate_per_ns = ref.rate_per_ms / 1e6
        holders = rate_per_ns * ref.avg_hold_ns
        return max(MIN_CAP, min(MAX_CAP, math.ceil(holders)))

    def observe(self, report: ProfileReport) -> List[CollapseSignal]:
        """Fold one window in; returns the collapses it evidences.

        Healthy windows that beat a lock's best-seen rate become its new
        reference; collapsed windows never do.
        """
        signals: List[CollapseSignal] = []
        for profile in report.profiles:
            if profile.acquired < MIN_ACQUIRED:
                continue
            name = profile.lock_name
            rate = report.rate_per_ms(name)
            p99 = profile.quantile(0.99)
            ref = self._references.get(name)
            if (
                ref is not None
                and p99 >= P99_BLOWUP * max(ref.p99_ns, TAIL_FLOOR_NS)
                and rate <= (1.0 - RATE_DROP) * ref.rate_per_ms
            ):
                signals.append(
                    CollapseSignal(
                        lock_name=name,
                        p99_ns=p99,
                        rate_per_ms=rate,
                        ref_p99_ns=ref.p99_ns,
                        ref_rate_per_ms=ref.rate_per_ms,
                        suggested_cap=self.suggest_cap(ref),
                    )
                )
                continue
            if ref is None or rate > ref.rate_per_ms:
                self._references[name] = _Reference(
                    rate_per_ms=rate,
                    p99_ns=p99,
                    avg_wait_ns=profile.avg_wait_ns,
                    avg_hold_ns=profile.avg_hold_ns,
                )
        return signals


def culling_impl_factory(cap: int) -> Callable:
    """An ``old_impl -> CullingLock`` livepatch factory for one cap."""

    def factory(old):
        return CullingLock(old.engine, name=old.name, cap=cap)

    factory.__name__ = f"culling-cap{cap}"
    return factory


def default_cull_guard() -> Guard:
    """The composite a self-proposed cull must clear.

    The tail budget is deliberately loose (+100% over the *collapsed*
    baseline): a cull's wait distribution is bimodal by design — parked
    waiters pay a park round-trip — so the tail guard here is a
    catastrophe bound, not a regression gate (the loop's post-promotion
    clearance check holds the absolute line).  Fairness is the sharp
    edge: an over-aggressive cap leaves the passive stack deep and
    stable, its LIFO bottom starves socket-clustered waiters, and the
    per-socket skew :class:`FairnessGuard` measures blows through the
    default +0.25 budget."""
    return AllOf(TailWaitGuard(max_tail_regression=1.0), FairnessGuard())


class AdaptationDecision(NamedTuple):
    """What one :meth:`AdaptationLoop.run_once` pass concluded."""

    outcome: str  #: "idle" | "kept" | "rolled-back" | "detect-failed" | "propose-failed"
    signal: Optional[CollapseSignal]
    policy: Optional[str]
    cause: str

    def describe(self) -> str:
        detail = self.signal.describe() if self.signal else self.cause
        policy = f" [{self.policy}]" if self.policy else ""
        return f"{self.outcome}{policy}: {detail}"


class AdaptationLoop:
    """The closed observe -> detect -> propose -> canary -> judge loop.

    Two modes share one control flow:

    * **single-kernel** (``daemon=``): windows profile that daemon's
      kernel, proposals go through ``daemon.submit`` + ``daemon.rollout``.
    * **fleet** (``coordinator=``): windows profile every active member
      and are *pooled* (:func:`pool_reports`) before detection — the
      same sum-the-evidence trick the wave verdicts use, so a collapse
      too shallow on any one member is judged on fleet-wide counters —
      and proposals roll out through ``coordinator.execute`` as a
      single-wave canary plan.

    Both modes walk one list of daemons (:meth:`_daemons`: ``[daemon]``,
    or the active members' daemons) to run time forward, profile,
    drain switches and roll back; a single-kernel window is the pooled
    window of one.  Only the journal and the canary itself fork on the
    mode.

    Fault points: ``adaptive.detect`` fires at the top of every pass (a
    fail skips the pass; a stall runs the kernel forward), and
    ``adaptive.propose`` fires after ``cull-proposed`` is journaled but
    before anything is installed — the crash window :meth:`recover`
    must resolve.  Journal writes are best-effort (``JournalError`` is
    swallowed) *except* none: the no-unjudged-cull invariant rides the
    daemons' own recovery (a crashed CANARY is torn down), not this
    journal, so a lost adaptation entry can cost history but never
    correctness.
    """

    def __init__(
        self,
        daemon=None,
        coordinator=None,
        detector: Optional[CollapseDetector] = None,
        guard: Optional[Guard] = None,
        selector: str = "*",
        window_ns: int = 200_000,
        baseline_ns: int = 60_000,
        canary_ns: int = 60_000,
        check_every_ns: int = 20_000,
        cap_override: Optional[int] = None,
        client_id: str = "adaptd",
    ) -> None:
        if (daemon is None) == (coordinator is None):
            raise ValueError("pass exactly one of daemon= or coordinator=")
        self.daemon = daemon
        self.coordinator = coordinator
        self.detector = detector if detector is not None else CollapseDetector()
        self.guard = guard if guard is not None else default_cull_guard()
        self.selector = selector
        self.window_ns = window_ns
        self.baseline_ns = baseline_ns
        self.canary_ns = canary_ns
        self.check_every_ns = check_every_ns
        self.cap_override = cap_override
        self.client_id = client_id
        #: lock name -> number of proposals ever made for it (names the
        #: next proposal uniquely even across rollbacks and recovery).
        self._proposals: Dict[str, int] = {}
        #: locks currently governed by a *kept* cull — further collapse
        #: signals for them are suppressed (the post-cull regime runs
        #: slower than the pre-knee reference by design; re-proposing
        #: on top of an installed cull would thrash).
        self._governed: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Mode plumbing
    # ------------------------------------------------------------------
    @property
    def journal(self):
        if self.daemon is not None:
            return self.daemon.journal
        return self.coordinator.journal

    def _daemons(self) -> List:
        if self.daemon is not None:
            return [self.daemon]
        return [member.daemon for member in self.coordinator.fleet.active_members()]

    def _advance(self, delta_ns: int) -> None:
        for daemon in self._daemons():
            daemon.kernel.run(until=daemon.kernel.now + delta_ns)

    def _journal_event(self, event: str, **fields) -> None:
        now = max((daemon.kernel.now for daemon in self._daemons()), default=0)
        append_best_effort(
            self.journal, {"kind": "adaptation", "ts": now, "event": event, **fields}
        )

    def observe_window(self) -> ProfileReport:
        """Profile one ``window_ns`` of simulated time, pooled over the
        daemons' kernels."""
        sessions = [ProfileSession(d.concord, self.selector) for d in self._daemons()]
        self._advance(self.window_ns)
        return pool_reports(session.stop() for session in sessions)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, passes: int) -> List[AdaptationDecision]:
        """Run up to ``passes`` passes, stopping early once a proposal
        was judged (kept or rolled back)."""
        decisions = []
        for _ in range(passes):
            decision = self.run_once()
            decisions.append(decision)
            if decision.outcome in ("kept", "rolled-back"):
                break
        return decisions

    def run_once(self) -> AdaptationDecision:
        """One full pass; returns what it decided."""
        try:
            stall = fault_point(SITE_ADAPTIVE_DETECT, AdaptationError)
            if stall:
                self._advance(stall)
        except AdaptationError as exc:
            return AdaptationDecision(
                "detect-failed", None, None, f"detect pass faulted: {exc}"
            )
        report = self.observe_window()
        signals = [
            signal
            for signal in self.detector.observe(report)
            if signal.lock_name not in self._governed
        ]
        if not signals:
            return AdaptationDecision("idle", None, None, "no collapse signature")
        signal = signals[0]  # one proposal per pass: judge before more
        ref = self.detector.reference(signal.lock_name)
        self._journal_event(
            "collapse-detected",
            lock=signal.lock_name,
            p99_ns=signal.p99_ns,
            ref_p99_ns=signal.ref_p99_ns,
            rate_per_ms=signal.rate_per_ms,
            ref_rate_per_ms=signal.ref_rate_per_ms,
            # The full reference rides along so a post-crash recover()
            # can re-seed a fresh detector with the healthy window.
            ref_avg_wait_ns=ref.avg_wait_ns if ref else 0.0,
            ref_avg_hold_ns=ref.avg_hold_ns if ref else 0.0,
            suggested_cap=signal.suggested_cap,
        )
        cap = self.cap_override if self.cap_override is not None else signal.suggested_cap
        seq = self._proposals.get(signal.lock_name, 0) + 1
        self._proposals[signal.lock_name] = seq
        policy = f"cull.{signal.lock_name}.{seq}"
        self._journal_event(
            "cull-proposed", lock=signal.lock_name, policy=policy, cap=cap
        )
        try:
            stall = fault_point(
                SITE_ADAPTIVE_PROPOSE, AdaptationError, lock=signal.lock_name
            )
            if stall:
                self._advance(stall)
        except AdaptationError as exc:
            # Journaled as proposed but nothing installed: resolve it
            # right here so the journal never ends on an open proposal.
            cause = f"proposal aborted before install: {exc}"
            self._journal_event("cull-rolled-back", policy=policy, cause=cause)
            return AdaptationDecision("propose-failed", signal, policy, cause)
        promoted, cause = self._canary(policy, signal, cap)
        post: Dict[str, float] = {}
        if promoted:
            kept, cause, post = self._judge_clearance(signal)
            if kept:
                self._governed[signal.lock_name] = policy
                self.detector.forget(signal.lock_name)
                self._journal_event("cull-kept", policy=policy, cause=cause, **post)
                return AdaptationDecision("kept", signal, policy, cause)
            self._force_rollback(policy, cause)
        self._drain_switches(signal.lock_name)
        self._journal_event("cull-rolled-back", policy=policy, cause=cause, **post)
        return AdaptationDecision("rolled-back", signal, policy, cause)

    # ------------------------------------------------------------------
    # Canary plumbing
    # ------------------------------------------------------------------
    def _submission(self, policy: str, lock_name: str, cap: int) -> PolicySubmission:
        return PolicySubmission(
            impl_factory=culling_impl_factory(cap),
            name=policy,
            lock_selector=lock_name,
            impl_name=f"culling-cap{cap}",
        )

    def _canary(self, policy: str, signal: CollapseSignal, cap: int):
        """Submit + canary the cull; returns ``(promoted, cause)``."""
        if self.daemon is not None:
            return self._canary_single(policy, signal, cap)
        return self._canary_fleet(policy, signal, cap)

    def _canary_single(self, policy: str, signal: CollapseSignal, cap: int):
        daemon = self.daemon
        # Journal replay may have restored the registration already.
        if self.client_id not in daemon.admission.clients():
            daemon.register_client(self.client_id)
        # Recovery re-attaches by impl name: the factory must outlive us.
        daemon.impl_registry[f"culling-cap{cap}"] = culling_impl_factory(cap)
        try:
            record = daemon.submit(
                self.client_id, self._submission(policy, signal.lock_name, cap)
            )
            if record.state is not PolicyState.VERIFIED:
                return False, f"submission not verified: {record.state.name}"
            record = daemon.rollout(
                policy,
                guard=self.guard,
                baseline_ns=self.baseline_ns,
                canary_ns=self.canary_ns,
                check_every_ns=self.check_every_ns,
                canary_locks=[signal.lock_name],
            )
        except ControlPlaneError as exc:
            return False, f"canary failed: {exc}"
        if record.state is PolicyState.ACTIVE:
            return True, "canary promoted"
        verdict = record.verdict.describe() if record.verdict else record.state.name
        return False, f"canary verdict: {verdict}"

    def _canary_fleet(self, policy: str, signal: CollapseSignal, cap: int):
        from ..fleet.planner import FleetPlan, WaveSpec

        coordinator = self.coordinator
        members = coordinator.fleet.active_members()
        if not members:
            return False, "no active members"
        for member in members:
            member.register_impl(f"culling-cap{cap}", culling_impl_factory(cap))
        names = [member.name for member in members]
        plan = FleetPlan(
            policy=policy,
            waves=[WaveSpec(index=0, kernels=names, canary=True, bake_ns=0)],
            canary_locks={name: [signal.lock_name] for name in names},
        )
        try:
            rollout = coordinator.execute(
                plan,
                lambda member: self._submission(policy, signal.lock_name, cap),
                guard=self.guard,
                baseline_ns=self.baseline_ns,
                canary_ns=self.canary_ns,
                check_every_ns=self.check_every_ns,
            )
        except ControlPlaneError as exc:
            return False, f"fleet canary failed: {exc}"
        if rollout.state.name == "COMPLETE":
            return True, "fleet canary complete"
        return False, rollout.halt_cause or f"fleet rollout {rollout.state.name}"

    def _judge_clearance(self, signal: CollapseSignal):
        """Post-promotion check: did the cull actually fix anything?

        The canary guard already compared the cull against the
        *collapsed* baseline; this judges the absolute outcome.  A
        Malthusian cull's wait distribution is deliberately bimodal —
        admitted spinners wait almost nothing, parked waiters wait a
        park round-trip — so "the tail cleared" cannot mean "p99
        shrank".  It means the collapse signature is *gone*: throughput
        back above :data:`RECOVER_FRACTION` of the healthy reference
        rate (an over-aggressive cap leaves it on the floor), and the
        residual parked tail bounded by :data:`MAX_RESIDUAL_TAIL` times
        the collapsed p99 (a cull that made waiting strictly worse is no
        defense).  A cull that passed its canary but failed either is
        rolled back.
        """
        post = self.observe_window()
        profile = post.by_name(signal.lock_name)
        if profile is None or profile.acquired == 0:
            return False, "post-cull window empty", {}
        p99 = profile.quantile(0.99)
        rate = post.rate_per_ms(signal.lock_name)
        metrics = {"p99_ns": p99, "rate_per_ms": rate}
        bounded = p99 <= MAX_RESIDUAL_TAIL * signal.p99_ns
        recovered = rate >= RECOVER_FRACTION * signal.ref_rate_per_ms
        verdict = (
            f"post-cull p99 {p99:.0f}ns vs collapsed {signal.p99_ns:.0f}ns, "
            f"rate {rate:.1f} vs reference {signal.ref_rate_per_ms:.1f} ops/ms"
        )
        if bounded and recovered:
            return True, f"tail cleared: {verdict}", metrics
        if not recovered:
            return False, f"throughput did not recover: {verdict}", metrics
        return False, f"residual tail unbounded: {verdict}", metrics

    def _drain_switches(self, lock_name: str) -> None:
        """Run each kernel until the lock's pending impl switch drains.

        Rollback goes through the patcher's *quiesced* revert: the
        counter-switch is only requested, and installs when the site
        next quiesces — which takes simulated time nobody else will
        spend once the canary has returned.  A rolled-back decision
        must not leave the culled impl installed, so the loop drives
        the drain itself (bounded, in case the site never quiesces).
        """
        for daemon in self._daemons():
            kernel = daemon.kernel
            site = kernel.locks.get(lock_name)
            if site is None:
                continue
            for _ in range(16):
                if site.core.pending_impl is None:
                    break
                kernel.run(until=kernel.now + max(1, self.check_every_ns))

    def _force_rollback(self, policy: str, cause: str) -> None:
        """Roll a promoted cull back wherever it is still ACTIVE (it runs
        after a promoted canary, so every record is ACTIVE or already
        terminal)."""
        for daemon in self._daemons():
            if self._active_on(daemon, policy):
                try:
                    daemon.force_rollback(policy, cause)
                except ControlPlaneError:
                    pass

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> Dict[str, int]:
        """Replay adaptation history and resolve open proposals.

        Call *after* the daemon's (or coordinator's) own ``recover()``:
        by then every crashed CANARY has been torn down and every
        surviving ACTIVE re-attached, so an open ``cull-proposed`` can
        be judged by what actually survived — ACTIVE means the canary
        promoted before the crash (journal ``cull-kept``), anything
        else means the proposal died with it (``cull-rolled-back``).
        Either way the journal never ends on an unjudged cull.
        """
        journal = self.journal
        if journal is None:
            return {"replayed": 0, "resolved": 0}
        last_event: Dict[str, Dict] = {}
        replayed = 0
        for entry in journal.entries():
            if entry.get("kind") != "adaptation":
                continue
            replayed += 1
            event = entry.get("event")
            if event == "collapse-detected":
                # Re-seed the healthy reference: a fresh detector facing
                # a still-collapsed lock must not learn the collapse as
                # its baseline (see CollapseDetector.seed_reference).
                self.detector.seed_reference(
                    str(entry.get("lock")),
                    float(entry.get("ref_rate_per_ms", 0.0)),
                    float(entry.get("ref_p99_ns", 0.0)),
                    avg_wait_ns=float(entry.get("ref_avg_wait_ns", 0.0)),
                    avg_hold_ns=float(entry.get("ref_avg_hold_ns", 0.0)),
                )
            elif event == "cull-proposed":
                lock = str(entry.get("lock"))
                policy = str(entry.get("policy"))
                seq = self._seq_of(policy)
                if seq > self._proposals.get(lock, 0):
                    self._proposals[lock] = seq
                last_event[policy] = dict(entry, lock=lock)
            elif event in ("cull-kept", "cull-rolled-back"):
                policy = str(entry.get("policy"))
                open_entry = last_event.get(policy)
                if event == "cull-kept" and open_entry is not None:
                    self._governed[open_entry["lock"]] = policy
                last_event[policy] = dict(entry)
        resolved = 0
        for policy, entry in last_event.items():
            if entry.get("event") != "cull-proposed":
                continue
            resolved += 1
            if any(self._active_on(daemon, policy) for daemon in self._daemons()):
                self._governed[entry["lock"]] = policy
                self._journal_event(
                    "cull-kept",
                    policy=policy,
                    cause="recovered: canary promoted before the crash",
                )
            else:
                self._journal_event(
                    "cull-rolled-back",
                    policy=policy,
                    cause="recovered: proposal unjudged at crash; not kept",
                )
        for lock in self._governed:
            self.detector.forget(lock)
        return {"replayed": replayed, "resolved": resolved}

    @staticmethod
    def _seq_of(policy: str) -> int:
        try:
            return int(policy.rsplit(".", 1)[1])
        except (IndexError, ValueError):
            return 0

    @staticmethod
    def _active_on(daemon, policy: str) -> bool:
        record = daemon.records.get(policy)
        return record is not None and record.state is PolicyState.ACTIVE
