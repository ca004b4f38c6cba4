"""Policy lifecycle: states, legal transitions, and the audit log.

The paper's pipeline (specify → verify → notify → store → patch) is
fire-and-forget: once :meth:`Concord.load_policy` returns, the policy is
live everywhere and nothing remembers why.  ``concordd`` wraps every
submission in an explicit state machine::

                      ┌──────────► REJECTED
                      │  (admission/verifier denial)
    SUBMITTED ──► VERIFIED ──► CANARY ──► ACTIVE ──► RETIRED
                      │   │       │           │         ▲
                      │   │       ▼           ▼         │
                      │   └──► ROLLED_BACK ◄──┘         │
                      │  (SLO guard / watchdog /        │
                      │   circuit breaker / recovery)   │
                      └─────────────────────────────────┘
                              (withdrawn before rollout)

Every transition is appended — with its cause, timestamp, and owning
client — to an append-only :class:`AuditLog`, so "why is this policy not
running?" always has an answer.  Illegal transitions raise
:class:`LifecycleError`; terminal states (``REJECTED``, ``ROLLED_BACK``,
``RETIRED``) have no exits.  ``VERIFIED → ROLLED_BACK`` covers a canary
install that failed partway (everything applied was unwound);
``ACTIVE → ROLLED_BACK`` covers fail-open degradation: the runtime
circuit breaker (or crash recovery) detached a live policy without the
owning client asking.

Beyond transitions, the log accepts ``kind="event"`` records — Concord
framework notifications bridged onto the owning policy — which show up
in :meth:`AuditLog.for_policy` but never in :meth:`AuditLog.history`
(the state *sequence* stays pure).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..concord.policy import PolicySpec
from ..locks.base import Lock

__all__ = [
    "PolicyState",
    "TRANSITIONS",
    "TERMINAL_STATES",
    "LIVE_STATES",
    "ControlPlaneError",
    "LifecycleError",
    "AuditRecord",
    "AuditLog",
    "PolicySubmission",
    "PolicyRecord",
]


class ControlPlaneError(Exception):
    """Base class for concordd errors (admission, lifecycle, rollout)."""


class LifecycleError(ControlPlaneError):
    """An illegal state transition was attempted."""


class PolicyState(enum.Enum):
    SUBMITTED = "submitted"
    VERIFIED = "verified"
    CANARY = "canary"
    ACTIVE = "active"
    ROLLED_BACK = "rolled_back"
    REJECTED = "rejected"
    RETIRED = "retired"

    def __str__(self) -> str:  # audit-log friendliness
        return self.name


#: Legal transitions; anything absent raises :class:`LifecycleError`.
TRANSITIONS = {
    PolicyState.SUBMITTED: (PolicyState.VERIFIED, PolicyState.REJECTED),
    PolicyState.VERIFIED: (
        PolicyState.CANARY,
        PolicyState.RETIRED,
        PolicyState.ROLLED_BACK,  # canary install failed; unwound
    ),
    PolicyState.CANARY: (
        PolicyState.ACTIVE,
        PolicyState.ROLLED_BACK,
        PolicyState.RETIRED,
    ),
    # ACTIVE -> ROLLED_BACK is the fail-open path: circuit breaker or
    # crash recovery detached the policy without a client withdraw.
    PolicyState.ACTIVE: (PolicyState.RETIRED, PolicyState.ROLLED_BACK),
    PolicyState.ROLLED_BACK: (),
    PolicyState.REJECTED: (),
    PolicyState.RETIRED: (),
}

TERMINAL_STATES = tuple(state for state, nexts in TRANSITIONS.items() if not nexts)

#: States that count against a client's quota (the policy occupies, or
#: is about to occupy, kernel resources).
LIVE_STATES = (
    PolicyState.SUBMITTED,
    PolicyState.VERIFIED,
    PolicyState.CANARY,
    PolicyState.ACTIVE,
)


class AuditRecord(NamedTuple):
    """One audit-log entry: who moved which policy where, and why.

    ``kind`` distinguishes state-machine ``"transition"`` records from
    bridged framework ``"event"`` records (verify-failed, compose-warn,
    breaker trips) that annotate a policy without moving it; event
    records carry ``frm == to`` (the state at the time).
    """

    time_ns: int
    policy: str
    client: str
    frm: Optional[PolicyState]
    to: PolicyState
    cause: str
    kind: str = "transition"

    def format(self) -> str:
        if self.kind != "transition":
            state = self.to.name if self.to is not None else "-"
            return f"{self.time_ns:>12}ns  {self.policy:<22} {('[' + state + ']'):>26} {self.cause}"
        frm = self.frm.name if self.frm is not None else "-"
        return f"{self.time_ns:>12}ns  {self.policy:<22} {frm:>11} -> {self.to.name:<11} {self.cause}"


class AuditLog:
    """Append-only transition history for every policy the daemon saw."""

    def __init__(self) -> None:
        self._records: List[AuditRecord] = []
        #: called with each freshly appended record (journal, bridges)
        self.listeners: List[Callable[[AuditRecord], None]] = []

    def append(self, record: AuditRecord) -> None:
        self._records.append(record)
        for listener in list(self.listeners):
            listener(record)

    @property
    def records(self) -> Tuple[AuditRecord, ...]:
        return tuple(self._records)

    def for_policy(self, policy: str) -> Tuple[AuditRecord, ...]:
        return tuple(r for r in self._records if r.policy == policy)

    def for_client(self, client: str) -> Tuple[AuditRecord, ...]:
        return tuple(r for r in self._records if r.client == client)

    def history(self, policy: str) -> List[PolicyState]:
        """The state sequence one policy walked, in order.

        Only genuine transitions: bridged event records never appear
        here, so the sequence stays a state-machine trace.
        """
        return [
            r.to
            for r in self._records
            if r.policy == policy and r.kind == "transition"
        ]

    def format(self) -> str:
        return "\n".join(r.format() for r in self._records)

    def __len__(self) -> int:
        return len(self._records)


class PolicySubmission:
    """What a client hands to concordd: one or more hook programs, a
    lock implementation switch, or both, aimed at one lock selector.

    Real policies are usually *bundles* — the profiler itself is four
    programs sharing maps — so a submission carries a tuple of specs
    that roll out (and roll back) as one unit.

    Args:
        spec: a single :class:`PolicySpec` (shorthand for ``specs``).
        specs: the bundle of :class:`PolicySpec` objects; all must share
            one ``lock_selector``.
        impl_factory: optional ``old_impl -> new_impl`` callable (the
            livepatch side); applied per matched lock with drain
            semantics and reverted on rollback.
        name: submission name; defaults to the first spec's name.
        lock_selector: defaults to the specs' common selector.
        impl_name: human label for the implementation switch (audit log).
    """

    def __init__(
        self,
        spec: Optional[PolicySpec] = None,
        specs: Optional[Tuple[PolicySpec, ...]] = None,
        impl_factory: Optional[Callable[[Lock], Lock]] = None,
        name: Optional[str] = None,
        lock_selector: Optional[str] = None,
        impl_name: str = "",
    ) -> None:
        if spec is not None and specs is not None:
            raise ValueError("pass spec or specs, not both")
        bundle = tuple(specs) if specs is not None else ((spec,) if spec is not None else ())
        if not bundle and impl_factory is None:
            raise ValueError("a submission needs at least one policy spec, an impl switch, or both")
        if bundle:
            selectors = {s.lock_selector for s in bundle}
            if len(selectors) != 1:
                raise ValueError(f"bundle specs disagree on lock_selector: {sorted(selectors)}")
            names = [s.name for s in bundle]
            if len(set(names)) != len(names):
                raise ValueError("bundle specs must have unique names")
            name = name or bundle[0].name
            lock_selector = lock_selector or bundle[0].lock_selector
            if lock_selector != bundle[0].lock_selector:
                raise ValueError(
                    f"submission selector {lock_selector!r} disagrees with "
                    f"spec selector {bundle[0].lock_selector!r}"
                )
        if name is None or lock_selector is None:
            raise ValueError("impl-only submissions need an explicit name and lock_selector")
        self.specs = bundle
        self.impl_factory = impl_factory
        self.impl_name = impl_name or (getattr(impl_factory, "__name__", "") if impl_factory else "")
        self.name = name
        self.lock_selector = lock_selector

    def describe(self) -> str:
        parts = [f"{s.hook} program" for s in self.specs]
        if self.impl_factory is not None:
            parts.append(f"impl switch{(' to ' + self.impl_name) if self.impl_name else ''}")
        return f"{self.name}: {' + '.join(parts)} on {self.lock_selector!r}"

    def __repr__(self) -> str:
        return f"PolicySubmission({self.describe()})"


class PolicyRecord:
    """concordd's per-submission bookkeeping: current state, rollout
    artifacts, and the handle everything downstream hangs off."""

    def __init__(self, submission: PolicySubmission, client_id: str, now_ns: int) -> None:
        self.submission = submission
        self.name = submission.name
        self.client_id = client_id
        self.created_ns = now_ns
        self.state: Optional[PolicyState] = None
        #: verified footprint (filled by the daemon after verification;
        #: the admission budget gate charges these against the kernel)
        self.insn_counts: Dict[str, int] = {}
        self.pinned_bytes: int = 0
        #: canary rollout artifacts (filled by the rollout engine)
        self.target_locks: List[str] = []
        self.canary_locks: List[str] = []
        self.patches: List[object] = []  # LivePatch per canary impl switch
        self.baseline_report = None
        self.canary_report = None
        self.verdict = None  # final GuardVerdict
        self.error: Optional[str] = None

    def transition(self, to: PolicyState, cause: str, audit: AuditLog, now_ns: int) -> None:
        """Move to ``to``, enforcing :data:`TRANSITIONS` and auditing."""
        if self.state is None:
            if to is not PolicyState.SUBMITTED:
                raise LifecycleError(f"{self.name}: first state must be SUBMITTED, not {to}")
        elif to not in TRANSITIONS[self.state]:
            raise LifecycleError(
                f"{self.name}: illegal transition {self.state} -> {to} "
                f"(legal: {', '.join(s.name for s in TRANSITIONS[self.state]) or 'none'})"
            )
        frm = self.state
        self.state = to
        audit.append(AuditRecord(now_ns, self.name, self.client_id, frm, to, cause))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def live(self) -> bool:
        return self.state in LIVE_STATES

    def __repr__(self) -> str:
        state = self.state.name if self.state else "NEW"
        return f"PolicyRecord({self.name!r}, client={self.client_id!r}, {state})"
