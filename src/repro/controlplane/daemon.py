"""``concordd``: the policy control plane daemon.

One :class:`Concordd` sits above one :class:`~repro.concord.Concord`
and owns the full policy lifecycle for every client:

* :meth:`register_client` — grant a client capabilities and a quota;
* :meth:`submit` — admission (capabilities, quota, conflicts) then
  compile + verify; the record lands in VERIFIED or REJECTED, with
  every step audited;
* :meth:`rollout` — the canary engine: baseline profile → subset
  install → SLO-guarded canary window → auto-promote or auto-rollback;
* :meth:`withdraw` — client-initiated retirement from any live state,
  with canary/active installations cleanly torn down;
* :meth:`watch` / :meth:`status` / :attr:`audit` — observability.

The daemon never mutates a lock except through :class:`Concord` and the
livepatcher, so everything it does inherits the paper's safety story
(verifier + quiesced patching); what it *adds* is the decision layer —
whether, where, and for how long a policy runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bpf.errors import BPFError
from ..bpf.maps import HashMap
from ..concord.framework import Concord, ConcordEvent
from ..concord.policy import PolicySpec
from ..locks.base import LockError
from ..netsim import retry
from .admission import (
    AdmissionController,
    AdmissionError,
    CapabilityError,
    ClientCapabilities,
)
from .canary import CanaryRollout
from .lifecycle import (
    AuditLog,
    AuditRecord,
    ControlPlaneError,
    LifecycleError,
    PolicyRecord,
    PolicyState,
    PolicySubmission,
)
from .guards import Guard, SLOGuard

__all__ = ["Concordd"]

#: Attempts recovery gives each re-verify / re-load, and the backoff
#: before the second (doubling after each further failure).
RECOVERY_ATTEMPTS = 3
RECOVERY_BACKOFF_NS = 10_000


def _unrecoverable_impl(old):
    """Placeholder for an impl factory lost across a daemon restart
    (its name is not in the new daemon's ``impl_registry``).  Recovery
    never applies it — records carrying it are rolled back fail-open."""
    raise ControlPlaneError(
        "this implementation factory did not survive the daemon restart"
    )


class Concordd:
    """The control plane for one simulated kernel.

    Args:
        concord: the framework instance the daemon drives.
        guard: the guard applied to every canary (default: an
            :class:`SLOGuard` at the paper's 20 % avg-wait budget).
        canary_fraction: share of the selector's locks that canary.
        baseline_ns / canary_ns: default measurement windows.
        check_every_ns: default mid-benchmark guard check interval
            (``None`` = single end-of-window check).
        journal: optional :class:`~repro.controlplane.journal.PolicyJournal`
            making every submission and transition crash-safe; required
            for :meth:`recover`.
        impl_registry: ``impl_name -> impl_factory`` map used to rebuild
            implementation switches from the journal on recovery.
    """

    def __init__(
        self,
        concord: Concord,
        guard: Optional[Guard] = None,
        canary_fraction: float = 0.5,
        baseline_ns: int = 400_000,
        canary_ns: int = 400_000,
        check_every_ns: Optional[int] = None,
        journal=None,
        impl_registry: Optional[Dict[str, object]] = None,
    ) -> None:
        self.concord = concord
        self.kernel = concord.kernel
        self.guard = guard or SLOGuard()
        self.canary_fraction = canary_fraction
        self.baseline_ns = baseline_ns
        self.canary_ns = canary_ns
        self.check_every_ns = check_every_ns
        self.journal = journal
        self.impl_registry: Dict[str, object] = dict(impl_registry or {})
        self.admission = AdmissionController()
        self.audit = AuditLog()
        self.records: Dict[str, PolicyRecord] = {}
        self._rollout = CanaryRollout(concord, self.audit)
        #: spec/submission name -> owning record (the event bridge's map)
        self._spec_owner: Dict[str, PolicyRecord] = {}
        self._replaying = False
        self._detached = False
        if self.journal is not None:
            self.audit.listeners.append(self._journal_transition)
        self.concord.subscribe(self._on_concord_event)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def register_client(
        self,
        client_id: str,
        allowed_selectors=("*",),
        max_live_policies: int = 4,
        may_switch_impl: bool = True,
    ) -> ClientCapabilities:
        caps = self.admission.register(
            client_id, allowed_selectors, max_live_policies, may_switch_impl
        )
        if self.journal is not None and not self._replaying:
            self.journal.append(
                {
                    "kind": "client",
                    "ts": self.kernel.now,
                    "client": client_id,
                    "allowed_selectors": list(caps.allowed_selectors),
                    "max_live_policies": caps.max_live_policies,
                    "may_switch_impl": caps.may_switch_impl,
                }
            )
        return caps

    # ------------------------------------------------------------------
    # Lifecycle entry points
    # ------------------------------------------------------------------
    def submit(self, client_id: str, submission: PolicySubmission) -> PolicyRecord:
        """Admission + verification; raises the typed denial after
        auditing it.  On success the record is VERIFIED."""
        existing = self.records.get(submission.name)
        if existing is not None and not existing.terminal:
            raise AdmissionError(
                f"policy name {submission.name!r} is already in flight "
                f"({existing.state}) for client {existing.client_id!r}"
            )
        # Journal before the record exists: a failed append leaves no
        # half-created record squatting on the name (nothing was
        # journaled, nothing installed — the submission simply failed).
        if self.journal is not None and not self._replaying:
            self.journal.append(self._serialize_submission(submission, client_id))
        record = PolicyRecord(submission, client_id, self.kernel.now)
        self.records[submission.name] = record
        self._adopt_owner(record)
        record.transition(
            PolicyState.SUBMITTED,
            f"submitted by {client_id!r}: {submission.describe()}",
            self.audit,
            self.kernel.now,
        )
        try:
            record.target_locks = self.admission.admit(
                self.concord, self.records.values(), record
            )
        except AdmissionError as exc:
            self._reject(record, str(exc), f"admission denied: {exc}")
            raise
        if submission.specs:
            checks = []
            try:
                for spec in submission.specs:
                    _program, verdict = self.concord.verify_policy(spec)
                    checks.append(verdict.checks[1])
            except BPFError as exc:
                self._reject(record, str(exc), f"verifier rejected: {exc}")
                raise
            cause = f"verifier accepted {len(checks)} program(s): " + "; ".join(checks)
        else:
            cause = "no program to verify (livepatch-only submission)"
        record.transition(PolicyState.VERIFIED, cause, self.audit, self.kernel.now)
        return record

    def _reject(self, record: PolicyRecord, error: str, cause: str) -> None:
        """Move ``record`` to REJECTED now, keeping ``error`` on it."""
        record.error = error
        record.transition(PolicyState.REJECTED, cause, self.audit, self.kernel.now)

    def rollout(
        self,
        name: str,
        baseline_ns: Optional[int] = None,
        canary_ns: Optional[int] = None,
        check_every_ns: Optional[int] = None,
        canary_locks: Optional[List[str]] = None,
        guard: Optional[Guard] = None,
    ) -> PolicyRecord:
        """Run the canary engine for a VERIFIED record (blocking, in
        simulated time — the caller's workload must already be spawned).

        ``canary_locks`` overrides the engine's sorted-prefix subset with
        an explicit, e.g. placement-aware, one (the fleet planner).
        ``guard`` overrides the daemon's guard for this one rollout (the
        adaptation loop judges its self-proposed culls under a tail +
        fairness composite regardless of the daemon's default)."""
        record = self.status(name)
        try:
            return self._rollout.run(
                record,
                guard if guard is not None else self.guard,
                baseline_ns=baseline_ns if baseline_ns is not None else self.baseline_ns,
                canary_ns=canary_ns if canary_ns is not None else self.canary_ns,
                canary_fraction=self.canary_fraction,
                check_every_ns=(
                    check_every_ns if check_every_ns is not None else self.check_every_ns
                ),
                canary_locks=canary_locks,
            )
        except LockError as exc:
            # A lock-layer refusal (say, a canary lock whose switch is
            # still draining) reaches callers as the error they handle.
            # A refused install has already resolved and audited the record.
            raise ControlPlaneError(f"{name}: rollout failed ({exc})") from exc

    def withdraw(self, client_id: str, name: str) -> PolicyRecord:
        """Client-initiated retirement; tears down whatever is installed."""
        record = self.status(name)
        if record.client_id != client_id:
            raise CapabilityError(
                f"client {client_id!r} may not withdraw {name!r} "
                f"(owned by {record.client_id!r})"
            )
        if record.terminal:
            raise LifecycleError(f"{name}: already terminal ({record.state})")
        self._take_down(record, PolicyState.RETIRED, f"withdrawn by {client_id!r}")
        return record

    # ------------------------------------------------------------------
    # Concord event -> audit bridge, and fail-open auto-rollback
    # ------------------------------------------------------------------
    def _adopt_owner(self, record: PolicyRecord) -> None:
        """Map the submission's name and every spec name to ``record``
        so framework events can be attributed (latest owner wins)."""
        self._spec_owner[record.submission.name] = record
        for spec in record.submission.specs:
            self._spec_owner[spec.name] = record

    def _owners_of(self, event: ConcordEvent) -> List[PolicyRecord]:
        """Which records a framework event is about.

        Most notifications are ``"<policy-name>: ..."``; compose
        findings are ``"<hook>@<lock>: [sev] a+b: ..."`` and name the
        chained policies in the body, so those are matched by scanning
        known spec names.
        """
        prefix = event.message.split(":", 1)[0].strip()
        record = self._spec_owner.get(prefix)
        if record is not None:
            return [record]
        if event.kind.startswith("compose-"):
            seen = []
            for name, rec in self._spec_owner.items():
                if name in event.message and rec not in seen:
                    seen.append(rec)
            return seen
        return []

    def _on_concord_event(self, event: ConcordEvent) -> None:
        """Attach framework notifications to the owning policy record
        (``kind="event"`` — annotation, not a transition), and react to
        breaker trips with an automatic rollback."""
        for record in self._owners_of(event):
            if record.state is None:
                continue
            self._note(record, event.time_ns, f"concord {event.kind}: {event.message}")
            if event.kind == "breaker-tripped" and record.state in (
                PolicyState.CANARY,
                PolicyState.ACTIVE,
            ):
                self._take_down(record, PolicyState.ROLLED_BACK, f"fail-open: {event.message}")

    def _note(self, record: PolicyRecord, time_ns: int, cause: str) -> None:
        """Audit an annotation on ``record``: ``kind="event"``, the
        state unchanged (a framework event or a recovery finding)."""
        state = record.state
        self.audit.append(
            AuditRecord(time_ns, record.name, record.client_id, state, state, cause, "event")
        )

    def _take_down(self, record: PolicyRecord, state: PolicyState, cause: str) -> None:
        """End a live record: tear down whatever it has installed
        (CANARY/ACTIVE), then move it to ``state`` — RETIRED for a
        client's withdrawal, ROLLED_BACK when nobody asked (circuit
        breaker, operator).  Neither is a live state, so the client's
        admission quota slot is released by the transition."""
        if record.state in (PolicyState.CANARY, PolicyState.ACTIVE):
            self._rollout.rollback(record)
        record.transition(state, cause, self.audit, self.kernel.now)

    def force_rollback(self, name: str, cause: str) -> PolicyRecord:
        """Operator-initiated rollback of an installed policy.

        The fleet coordinator uses this to revert already-patched
        kernels when a later wave breaches: unlike :meth:`withdraw` it
        is not bound to the owning client, and unlike the breaker path
        it carries the caller's cause into the audit trail.
        """
        record = self.status(name)
        if record.state not in (PolicyState.CANARY, PolicyState.ACTIVE):
            raise LifecycleError(
                f"{name}: force_rollback needs CANARY or ACTIVE, record is {record.state}"
            )
        self._take_down(record, PolicyState.ROLLED_BACK, cause)
        return record

    def detach(self) -> None:
        """Stop observing the framework and the audit log.

        The drill uses this to model the daemon process dying: the
        kernel (and everything installed in it) lives on, but nobody is
        journaling, bridging events, or reacting to breaker trips until
        a new daemon takes over.
        """
        self.concord.unsubscribe(self._on_concord_event)
        if self._journal_transition in self.audit.listeners:
            self.audit.listeners.remove(self._journal_transition)
        self._detached = True

    # ------------------------------------------------------------------
    # Crash-safe persistence
    # ------------------------------------------------------------------
    def _serialize_submission(self, submission: PolicySubmission, client_id: str) -> Dict:
        return {
            "kind": "submission",
            "ts": self.kernel.now,
            "policy": submission.name,
            "client": client_id,
            "lock_selector": submission.lock_selector,
            "impl_name": submission.impl_name,
            "has_impl": submission.impl_factory is not None,
            "specs": [
                {
                    "name": spec.name,
                    "hook": spec.hook,
                    "source": spec.source,
                    "lock_selector": spec.lock_selector,
                    "combiner": spec.combiner,
                    "exclusive": spec.exclusive,
                    "priority": spec.priority,
                    "maps": sorted(spec.maps),
                }
                for spec in submission.specs
            ],
        }

    def _journal_transition(self, rec: AuditRecord) -> None:
        """AuditLog listener: persist every genuine transition, enriched
        with the record's rollout artifacts at that instant."""
        if self._replaying or rec.kind != "transition" or self.journal is None:
            return
        entry = {
            "kind": "transition",
            "ts": rec.time_ns,
            "policy": rec.policy,
            "client": rec.client,
            "frm": rec.frm.name if rec.frm is not None else None,
            "to": rec.to.name,
            "cause": rec.cause,
        }
        record = self.records.get(rec.policy)
        if record is not None:
            entry["target_locks"] = list(record.target_locks)
            entry["canary_locks"] = list(record.canary_locks)
            entry["patches"] = [
                [patch.name, [op.lock_name for op in patch.ops]]
                for patch in record.patches
            ]
            if record.verdict is not None and record.verdict.attributed:
                entry["breaches"] = [b.journal_fields() for b in record.verdict.attributed]
        self.journal.append(entry)

    def _rebuild_submission(self, entry: Dict) -> Tuple[PolicySubmission, Optional[str]]:
        """Reconstruct a submission from its journal entry.

        Returns ``(submission, problem)`` — ``problem`` names what could
        not be restored (a lost impl factory), which recovery resolves
        fail-open.
        """
        specs = []
        shared_maps: Dict[str, HashMap] = {}
        for spec_entry in entry["specs"]:
            maps = {
                map_name: shared_maps.setdefault(
                    map_name,
                    HashMap(f"{entry['policy']}.{map_name}", max_entries=65536),
                )
                for map_name in spec_entry["maps"]
            }
            specs.append(
                PolicySpec(
                    name=spec_entry["name"],
                    hook=spec_entry["hook"],
                    source=spec_entry["source"],
                    maps=maps,
                    lock_selector=spec_entry["lock_selector"],
                    combiner=spec_entry["combiner"],
                    exclusive=spec_entry["exclusive"],
                    priority=spec_entry["priority"],
                )
            )
        impl_factory = None
        problem = None
        if entry["has_impl"]:
            impl_factory = self.impl_registry.get(entry["impl_name"])
            if impl_factory is None:
                impl_factory = _unrecoverable_impl
                problem = (
                    f"impl factory {entry['impl_name']!r} is not in the "
                    f"new daemon's impl_registry"
                )
        submission = PolicySubmission(
            specs=tuple(specs) if specs else None,
            impl_factory=impl_factory,
            name=entry["policy"],
            lock_selector=entry["lock_selector"],
            impl_name=entry["impl_name"],
        )
        return submission, problem

    def _with_retries(self, fn):
        """Run ``fn`` up to :data:`RECOVERY_ATTEMPTS` times; between
        tries the engine advances by an exponentially growing backoff
        (transient faults — verifier flakes, pin I/O errors — get time
        to clear)."""
        return retry(
            fn,
            RECOVERY_ATTEMPTS,
            (BPFError,),
            lambda n: self.kernel.run(
                until=self.kernel.now + RECOVERY_BACKOFF_NS * (2 ** (n - 1))
            ),
        )

    def recover(self) -> Dict[str, object]:
        """Rebuild daemon state from the journal after a crash.

        Two phases:

        1. **Replay** — re-register clients, reconstruct submissions and
           records, and re-walk every journaled transition at its
           original timestamp (audited with a ``replayed:`` prefix, not
           re-journaled).
        2. **Reconcile** — make the kernel match the journal's final
           word, per record state: mid-flight ``SUBMITTED`` is rejected;
           ``VERIFIED`` is re-verified (with retries); ``CANARY`` is torn
           down and ROLLED_BACK (a canary nobody is watching must not
           keep running); ``ACTIVE`` policies are re-verified, re-pinned
           and re-attached — same hook programs, same lock impls — with
           retries, or rolled back fail-open if their implementation
           factory did not survive the restart.  Finally loaded policies
           no live record owns (crash debris: the dead rollout's
           profiler programs) are swept.

        Returns a summary dict; raises :class:`ControlPlaneError` if the
        daemon already has records or has no journal.
        """
        if self.journal is None:
            raise ControlPlaneError("recover() needs a journal")
        if self.records:
            raise ControlPlaneError(
                "recover() must run on a fresh daemon, before any submissions"
            )
        entries = self.journal.entries()
        summary = {
            "replayed": 0,
            "reattached": [],
            "rolled_back": [],
            "rejected": [],
            "swept": [],
        }
        problems: Dict[str, str] = {}
        journal_patches: Dict[str, List] = {}

        # -- phase 1: replay ------------------------------------------
        self._replaying = True
        try:
            for entry in entries:
                kind = entry.get("kind")
                if kind == "client":
                    if entry["client"] not in self.admission.clients():
                        self.admission.register(
                            entry["client"],
                            entry["allowed_selectors"],
                            entry["max_live_policies"],
                            entry["may_switch_impl"],
                        )
                elif kind == "submission":
                    submission, problem = self._rebuild_submission(entry)
                    record = PolicyRecord(submission, entry["client"], entry["ts"])
                    self.records[submission.name] = record
                    self._adopt_owner(record)
                    if problem is not None:
                        problems[submission.name] = problem
                elif kind == "transition":
                    record = self.records.get(entry["policy"])
                    if record is None:
                        continue  # torn journal lost the submission line
                    record.transition(
                        PolicyState[entry["to"]],
                        f"replayed: {entry['cause']}",
                        self.audit,
                        entry["ts"],
                    )
                    summary["replayed"] += 1
                    record.target_locks = list(entry.get("target_locks", record.target_locks))
                    record.canary_locks = list(entry.get("canary_locks", record.canary_locks))
                    if "patches" in entry:
                        journal_patches[record.name] = entry["patches"]
        finally:
            self._replaying = False

        # -- phase 2: reconcile ---------------------------------------
        for record in sorted(self.records.values(), key=lambda r: r.created_ns):
            patches = journal_patches.get(record.name, [])
            if record.state is PolicyState.SUBMITTED:
                error = "daemon crashed before verification completed"
                self._reject(record, error, f"recovery: {error}; resubmit")
                summary["rejected"].append(record.name)
            elif record.state is PolicyState.VERIFIED:
                try:
                    for spec in record.submission.specs:
                        self._with_retries(lambda s=spec: self.concord.verify_policy(s))
                    self._note(
                        record,
                        self.kernel.now,
                        "recovery: re-verified, still eligible for rollout",
                    )
                except BPFError as exc:
                    self._reject(record, str(exc), f"recovery: re-verification failed ({exc})")
                    summary["rejected"].append(record.name)
            elif record.state in (PolicyState.CANARY, PolicyState.ACTIVE):
                error = None
                if record.state is PolicyState.CANARY:
                    cause = (
                        "daemon crashed mid-canary; an unwatched canary "
                        "must not keep running"
                    )
                elif record.name in problems:
                    error = problems[record.name]
                    cause = f"{error}; rolled back fail-open"
                else:
                    try:
                        self._recover_active(record, patches)
                    except BPFError as exc:
                        error = str(exc)
                        cause = f"could not re-attach ({exc}); rolled back fail-open"
                    else:
                        summary["reattached"].append(record.name)
                        continue
                self._fail_open(record, patches, f"recovery: {cause}", error)
                summary["rolled_back"].append(record.name)

        # -- phase 3: sweep crash debris ------------------------------
        expected = set()
        for record in self.records.values():
            if record.live:
                expected.update(spec.name for spec in record.submission.specs)
        for name in sorted(self.concord.policies):
            if name not in expected:
                self.concord.unload_policy(name)
                summary["swept"].append(name)
        return summary

    def _fail_open(
        self, record: PolicyRecord, patch_entries: List, cause: str, error: Optional[str]
    ) -> None:
        """Roll back what recovery cannot keep — a crashed canary, an
        ACTIVE policy whose impl factory was lost or that would not
        re-attach: unload its hook programs (idempotent), revert every
        journaled livepatch still active, and move it to ROLLED_BACK."""
        for spec in record.submission.specs:
            self.concord.unload_policy(spec.name)
        patcher = self.kernel.patcher
        for patch_name, _locks in reversed(list(patch_entries)):
            if patch_name in patcher.active:
                patcher.revert(patch_name)
        if error is not None:
            record.error = error
        record.transition(PolicyState.ROLLED_BACK, cause, self.audit, self.kernel.now)

    def _recover_active(self, record: PolicyRecord, patch_entries: List) -> None:
        """Bring an ACTIVE record's installation back: every hook program
        verified and attached to every target lock, every journaled impl
        switch either re-adopted (the kernel survived) or re-applied."""
        targets = record.target_locks or self.kernel.locks.select_names(
            record.submission.lock_selector
        )
        record.target_locks = targets
        fixed = []
        for spec in record.submission.specs:
            loaded = self.concord.policies.get(spec.name)
            if loaded is None:
                self._with_retries(
                    lambda s=spec: self.concord.load_policy(s, targets=targets)
                )
                fixed.append(f"re-loaded {spec.name}")
            else:
                self._with_retries(lambda s=spec: self.concord.verify_policy(s))
                missing = [t for t in targets if t not in loaded.attached_locks]
                if missing:
                    self.concord.attach_policy(spec.name, missing)
                    fixed.append(f"re-attached {spec.name} to {len(missing)} lock(s)")
        patcher = self.kernel.patcher
        if record.submission.impl_factory is not None:
            for patch_name, lock_names in patch_entries:
                patch = patcher.active.get(patch_name)
                if patch is not None:
                    record.patches.append(patch)  # survived the crash
                else:
                    for lock_name in lock_names:
                        record.patches.append(
                            self.concord.switch_lock(
                                lock_name, record.submission.impl_factory
                            )
                        )
                    fixed.append(f"re-applied impl switch on {', '.join(lock_names)}")
        self._note(
            record,
            self.kernel.now,
            "recovery: ACTIVE installation verified ("
            + ("; ".join(fixed) if fixed else "kernel state intact")
            + ")",
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, object]:
        """Liveness check: raise if this daemon process is gone.

        A detached daemon models a dead ``concordd`` process — the
        kernel lives on but nobody answers.  The health monitor treats
        the raise as "daemon unresponsive"; the returned snapshot is
        what a real ping endpoint would report.
        """
        if self._detached:
            raise ControlPlaneError("daemon is detached (process dead)")
        info: Dict[str, object] = {"now": self.kernel.now, "records": len(self.records)}
        group = getattr(self.journal, "group", None)
        if group is not None:
            # Journaling through a replica group: surface its health
            # (leader, lease epoch, commit index, per-site state) so a
            # ping shows replication status without a separate endpoint.
            info["replication"] = group.health()
        return info

    def status(self, name: str) -> PolicyRecord:
        try:
            return self.records[name]
        except KeyError:
            raise LifecycleError(f"no policy named {name!r} was ever submitted") from None

    def policies(self, client_id: Optional[str] = None) -> List[PolicyRecord]:
        return [
            record
            for record in sorted(self.records.values(), key=lambda r: r.created_ns)
            if client_id is None or record.client_id == client_id
        ]

    def watch(self, client_id: str) -> Tuple[AuditRecord, ...]:
        """The audit trail for one client's policies (their 'events')."""
        return self.audit.for_client(client_id)

    def describe(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {}
        for record in self.records.values():
            key = record.state.name if record.state else "NEW"
            by_state[key] = by_state.get(key, 0) + 1
        return {
            "clients": self.admission.clients(),
            "policies": by_state,
            "audit_records": len(self.audit),
        }
