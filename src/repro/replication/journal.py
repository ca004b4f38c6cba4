"""The replicated policy journal: same API, quorum durability.

:class:`ReplicatedJournal` fronts a :class:`~repro.replication.group.\
ReplicaGroup` with the :class:`~repro.controlplane.journal.PolicyJournal`
interface, so a member daemon (``Concordd(journal=...)``) and the fleet
coordinator journal through replication without knowing it: ``append``
becomes a quorum write, ``entries`` a leader read, and every replication
failure surfaces as the :class:`JournalError` subtree those callers
already tolerate.

The existing journal fault sites still fire — ``controlplane.journal.\
append`` before the write and ``controlplane.journal.fsync`` between the
quorum commit and the caller seeing success — so the fsync-gap crash
model (entry durable, caller told otherwise) holds for the replicated
store too, now meaning "committed on a quorum, caller told otherwise".
Replay must tolerate the same double-report either way.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..controlplane.journal import JournalError, PolicyJournal
from ..faults import SITE_JOURNAL_APPEND, SITE_JOURNAL_FSYNC, fault_point
from .group import ReplicaGroup

__all__ = ["ReplicatedJournal"]


class ReplicatedJournal(PolicyJournal):
    """A :class:`PolicyJournal` whose backing store is a replica group
    (``group``).  Writes follow the current leader across failovers; a
    writer that must prove leadership continuity presents a captured
    lease to :meth:`ReplicaGroup.append` itself."""

    def __init__(self, group: ReplicaGroup) -> None:
        super().__init__(path=None)
        self.group = group

    # ------------------------------------------------------------------
    def append(self, entry: Dict[str, Any]) -> None:
        if "kind" not in entry:
            raise JournalError("journal entries need a 'kind'")
        fault_point(
            SITE_JOURNAL_APPEND,
            default_exc=JournalError,
            kind=entry.get("kind"),
            policy=entry.get("policy") or entry.get("rollout"),
        )
        self.group.append(entry)
        fault_point(
            SITE_JOURNAL_FSYNC,
            default_exc=JournalError,
            kind=entry.get("kind"),
        )

    def entries(self) -> List[Dict[str, Any]]:
        return self.group.entries()

    def compact(self) -> Dict[str, int]:
        """Fold the committed prefix into a snapshot on every live site."""
        return self.group.compact()

    def close(self) -> None:  # nothing to close; sites are the store
        return None

    def __repr__(self) -> str:
        return (
            f"ReplicatedJournal({self.group.name!r}, "
            f"{self.group.commit_index} committed, "
            f"leader {self.group.leader.name})"
        )
