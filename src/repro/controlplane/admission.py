"""Admission control: who may touch which locks, and with what.

The paper trusts "privileged userspace"; a control plane serving many
tenants cannot.  Before a submission is verified, the admission
controller enforces three gates, in this order:

* **capabilities** — each client is registered with a set of lock-name
  globs it may target; a submission whose selector reaches any lock
  outside that set is denied (:class:`CapabilityError`), as is an
  implementation switch from a client without the switch capability;
* **quotas** — a per-client ceiling on live policies (states SUBMITTED
  through ACTIVE), so one tenant cannot exhaust hook chains or bpffs
  (:class:`QuotaError`);
* **conflicts** — each spec must compose, under §6's one rule
  (:func:`repro.concord.policy.conflict`: neither is exclusive and the
  combiners agree), with every spec it would share a (hook, lock) chain
  with: the bundle's earlier specs, the live chain on each target lock,
  and other clients' *in-flight* submissions that overlap on (hook,
  lock) — two canaries racing for the same slot is exactly the kind of
  conflict the kernel-side check would only catch after the first one
  won (:class:`SubmissionConflictError`).

Denials are typed, carry the offending locks, and leave an audit trail
(the daemon transitions the record to REJECTED with the denial cause).
"""

from __future__ import annotations

import fnmatch
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from ..concord.framework import Concord
from ..concord.policy import PolicySpec, conflict
from ..faults import fault_point
from .lifecycle import ControlPlaneError, PolicyRecord, PolicyState

__all__ = [
    "AdmissionError",
    "CapabilityError",
    "QuotaError",
    "SubmissionConflictError",
    "ClientCapabilities",
    "AdmissionController",
]


class AdmissionError(ControlPlaneError):
    """A submission was denied admission."""


class CapabilityError(AdmissionError):
    """The client lacks the capability the submission needs."""


class QuotaError(AdmissionError):
    """The client's live-policy quota is exhausted."""


class SubmissionConflictError(AdmissionError):
    """The submission conflicts with a live policy or another in-flight
    submission on some (hook, lock) slot."""


class ClientCapabilities(NamedTuple):
    """What one registered client is allowed to do."""

    client_id: str
    #: lock-name globs this client may target
    allowed_selectors: Tuple[str, ...]
    #: ceiling on policies in LIVE_STATES at once
    max_live_policies: int
    #: may the client's submissions switch lock implementations?
    may_switch_impl: bool

    def covers(self, lock_name: str) -> bool:
        return any(
            fnmatch.fnmatchcase(lock_name, pattern) for pattern in self.allowed_selectors
        )


#: States of a record whose specs may still reach the kernel's chains.
_IN_FLIGHT = (PolicyState.SUBMITTED, PolicyState.VERIFIED, PolicyState.CANARY)


class AdmissionController:
    """Stateless checks over registered capabilities + daemon records."""

    def __init__(self) -> None:
        self._clients: Dict[str, ClientCapabilities] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        client_id: str,
        allowed_selectors: Iterable[str] = ("*",),
        max_live_policies: int = 4,
        may_switch_impl: bool = True,
    ) -> ClientCapabilities:
        if client_id in self._clients:
            raise AdmissionError(f"client {client_id!r} is already registered")
        caps = ClientCapabilities(
            client_id, tuple(allowed_selectors), max_live_policies, may_switch_impl
        )
        self._clients[client_id] = caps
        return caps

    def client(self, client_id: str) -> ClientCapabilities:
        try:
            return self._clients[client_id]
        except KeyError:
            raise CapabilityError(f"client {client_id!r} is not registered") from None

    def clients(self) -> List[str]:
        return sorted(self._clients)

    # ------------------------------------------------------------------
    def admit(
        self,
        concord: Concord,
        records: Iterable[PolicyRecord],
        record: PolicyRecord,
    ) -> List[str]:
        """Run every gate for ``record``; returns the resolved target
        lock names on success, raises a typed denial otherwise."""
        # An injected fault here is a spurious denial — the daemon must
        # resolve it exactly like a real one (REJECTED, audited, quota
        # untouched), which is what the chaos suite asserts.
        fault_point(
            "controlplane.admission.decision",
            default_exc=AdmissionError,
            policy=record.name,
            client=record.client_id,
        )
        caps = self.client(record.client_id)
        submission = record.submission

        targets = concord.kernel.locks.select_names(submission.lock_selector)
        if not targets:
            raise AdmissionError(
                f"{submission.name}: selector {submission.lock_selector!r} "
                f"matches no registered locks"
            )

        uncovered = [name for name in targets if not caps.covers(name)]
        if uncovered:
            raise CapabilityError(
                f"{submission.name}: client {caps.client_id!r} may not touch "
                f"{', '.join(uncovered[:5])}"
                + ("…" if len(uncovered) > 5 else "")
                + f" (allowed: {', '.join(caps.allowed_selectors)})"
            )
        if submission.impl_factory is not None and not caps.may_switch_impl:
            raise CapabilityError(
                f"{submission.name}: client {caps.client_id!r} may not switch "
                f"lock implementations"
            )

        live = [
            r
            for r in records
            if r is not record and r.client_id == caps.client_id and r.live
        ]
        if len(live) >= caps.max_live_policies:
            raise QuotaError(
                f"{submission.name}: client {caps.client_id!r} already has "
                f"{len(live)} live policies (quota {caps.max_live_policies})"
            )

        for spec in submission.specs:
            for rival, whose, lock_name in _rivals(concord, records, record, spec, targets):
                reason = conflict(rival, spec)
                if reason is not None:
                    raise SubmissionConflictError(
                        f"policy {spec.name!r} conflicts with {whose} {rival.name!r} "
                        f"on {spec.hook}@{lock_name}: {reason}"
                    )
        return targets


def _rivals(
    concord: Concord,
    records: Iterable[PolicyRecord],
    record: PolicyRecord,
    spec: PolicySpec,
    targets: List[str],
) -> Iterator[Tuple[PolicySpec, str, str]]:
    """Every spec ``spec`` would share its hook's chain with, as
    ``(rival, whose, lock)``: the bundle's earlier specs, the live chain
    on each target lock, and the specs of each in-flight submission
    whose selector overlaps the targets."""
    for earlier in record.submission.specs:
        if earlier is spec:
            break
        if earlier.hook == spec.hook:
            yield earlier, "bundled", targets[0]
    for lock_name in targets:
        for loaded in concord.chain(lock_name, spec.hook):
            yield loaded.spec, "live", lock_name
    target_set = set(targets)
    for other in records:
        if other is record or other.state not in _IN_FLIGHT:
            continue
        rivals = [s for s in other.submission.specs if s.hook == spec.hook]
        if not rivals:
            continue
        overlap = target_set.intersection(
            concord.kernel.locks.select_names(other.submission.lock_selector)
        )
        if overlap:
            for rival in rivals:
                yield rival, f"{other.client_id}'s in-flight", min(overlap)
