"""``concordd`` — a policy control plane above :mod:`repro.concord`.

The framework answers *how* a policy reaches a kernel lock (verify →
store → livepatch); this package answers *whether it should*, *how it
rolls out*, and *when it must be pulled back*:

* :mod:`.lifecycle` — the policy state machine and append-only audit log;
* :mod:`.admission` — per-client capabilities, quotas, conflict gates;
* :mod:`.guards` — the guard family: SLO averages, tail-latency
  quantiles, per-socket fairness, composition, fleet pooling;
* :mod:`.canary` — subset install, watch windows, promote/rollback;
* :mod:`.journal` — the crash-safe policy journal (append-only JSONL);
* :mod:`.daemon` — :class:`Concordd`, tying it together per kernel,
  including :meth:`Concordd.recover` (journal replay after a crash).

Typical session::

    from repro.controlplane import Concordd, PolicySubmission

    daemon = Concordd(concord)
    daemon.register_client("svc-a", allowed_selectors=("user.svc.*",))
    daemon.submit("svc-a", PolicySubmission(spec=make_numa_policy(...)))
    ... spawn workload ...
    record = daemon.rollout("numa-aware", check_every_ns=100_000)
    assert record.state in (PolicyState.ACTIVE, PolicyState.ROLLED_BACK)
    print(daemon.audit.format())
"""

from .admission import (
    AdmissionController,
    AdmissionError,
    CapabilityError,
    ClientCapabilities,
    QuotaError,
    SubmissionConflictError,
)
from .canary import CanaryRollout, DEFAULT_MAX_SNAPSHOT_STALLS
from .daemon import Concordd
from .journal import BPFFS_JOURNAL_PATH, JournalError, PolicyJournal
from .lifecycle import (
    AuditLog,
    AuditRecord,
    ControlPlaneError,
    LifecycleError,
    PolicyRecord,
    PolicyState,
    PolicySubmission,
    TRANSITIONS,
)
from .adaptive import (
    AdaptationDecision,
    AdaptationError,
    AdaptationLoop,
    CollapseDetector,
    CollapseSignal,
    culling_impl_factory,
    default_cull_guard,
)
from .guards import (
    AGGREGATE,
    AllOf,
    AnyOf,
    Breach,
    FairnessGuard,
    Guard,
    GuardVerdict,
    SLOGuard,
    TailWaitGuard,
    pool_reports,
)

__all__ = [
    "AdaptationDecision",
    "AdaptationError",
    "AdaptationLoop",
    "CollapseDetector",
    "CollapseSignal",
    "culling_impl_factory",
    "default_cull_guard",
    "AdmissionController",
    "AdmissionError",
    "CapabilityError",
    "ClientCapabilities",
    "QuotaError",
    "SubmissionConflictError",
    "CanaryRollout",
    "DEFAULT_MAX_SNAPSHOT_STALLS",
    "Concordd",
    "BPFFS_JOURNAL_PATH",
    "JournalError",
    "PolicyJournal",
    "AuditLog",
    "AuditRecord",
    "ControlPlaneError",
    "LifecycleError",
    "PolicyRecord",
    "PolicyState",
    "PolicySubmission",
    "TRANSITIONS",
    "AGGREGATE",
    "AllOf",
    "AnyOf",
    "Breach",
    "FairnessGuard",
    "Guard",
    "GuardVerdict",
    "SLOGuard",
    "TailWaitGuard",
    "pool_reports",
]
