"""Replicated control plane: multi-site policy store with fenced failover.

Each fleet member's policy journal — the durable record its daemon and
the fleet coordinator recover from — was a single point of failure.
This package replicates it across N :class:`ReplicaSite`\\ s with
available-copies semantics (after RepCRec):

* **quorum writes** — an append commits when a majority of the full
  membership acks; a failed append commits nothing anywhere
  (:class:`NoQuorum`);
* **read-your-writes reads** — served by the leader, whose log covers
  the commit index by the election invariant;
* **gated recovery** — a site recovering after missing writes acks new
  writes immediately but serves reads only after the first committed
  write lands post-recovery (:class:`SiteUnreadable` until then);
* **fenced leadership** — the group's lease epoch is bumped by every
  failover and fenced forward by member restarts, so a deposed leader
  or stale coordinator gets :class:`StaleLeaderFenced` instead of
  forking history.

:class:`ReplicatedJournal` fronts a group with the ``PolicyJournal``
API so daemons and coordinators replicate without knowing it, and
:class:`SerializationLedger` adds the commit-time first-committer-wins
check that keeps concurrent fleet rollouts over overlapping locks from
both committing (:class:`SerializationConflict` aborts exactly one).
"""

from .group import LeaderLease, NoQuorum, ReplicaGroup
from .journal import ReplicatedJournal
from .site import (
    ReplicaSite,
    ReplicationError,
    SiteCorrupt,
    SiteDown,
    SiteFault,
    SiteState,
    SiteUnreadable,
    StaleLeaderFenced,
)
from .txn import (
    RolloutTransaction,
    SerializationConflict,
    SerializationLedger,
    TxnStatus,
)

__all__ = [
    "LeaderLease",
    "NoQuorum",
    "ReplicaGroup",
    "ReplicaSite",
    "ReplicatedJournal",
    "ReplicationError",
    "RolloutTransaction",
    "SerializationConflict",
    "SerializationLedger",
    "SiteCorrupt",
    "SiteDown",
    "SiteFault",
    "SiteState",
    "SiteUnreadable",
    "StaleLeaderFenced",
    "TxnStatus",
]
