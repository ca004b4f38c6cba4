"""Commit-time serialization check for concurrent fleet rollouts.

Two coordinators rolling out different policies over overlapping lock
sets are two transactions writing the same variables: letting both
commit would leave the fleet's policy state dependent on interleaving
(which daemon's patch landed last on which lock) — exactly the
conflicting-write anomaly snapshot isolation admits.  Following the
RepCRec-SSI model, the ledger checks serializability **at commit time**.
A rollout reads and rewrites the policy state of every lock in its
footprint, so two concurrent rollouts over overlapping footprints have
no serial order, and the first committer wins: a transaction that
another one with an overlapping footprint committed inside its window
is aborted — cleanly, with a journaled ``txn-abort`` entry naming the
conflict — and the earlier commit stands.

The ledger is deliberately storage-agnostic: give it a journal (ideally
a :class:`~repro.replication.journal.ReplicatedJournal`) and every
begin/commit/abort is persisted; give it none and it still serializes,
it just leaves the journaling to its caller (the coordinator journals a
``serialization-conflict`` fleet event either way).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Optional

from .site import ReplicationError

__all__ = [
    "RolloutTransaction",
    "SerializationConflict",
    "SerializationLedger",
    "TxnStatus",
]


class SerializationConflict(ReplicationError):
    """A concurrent transaction over an overlapping footprint committed
    first; this one is aborted, the earlier committer stands."""


class TxnStatus(enum.Enum):
    OPEN = "open"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __str__(self) -> str:
        return self.name


class RolloutTransaction:
    """One rollout's footprint in the ledger."""

    def __init__(self, txn_id: str, locks: FrozenSet[str], begin_seq: int) -> None:
        self.txn_id = txn_id
        self.locks = locks
        self.begin_seq = begin_seq
        self.commit_seq: Optional[int] = None
        self.status = TxnStatus.OPEN
        self.abort_cause: Optional[str] = None

    def __repr__(self) -> str:
        return (
            f"RolloutTransaction({self.txn_id!r}, {self.status}, "
            f"{len(self.locks)} locks)"
        )


class SerializationLedger:
    """The fleet-wide transaction registry rollouts commit through."""

    def __init__(self, journal=None) -> None:
        self.journal = journal
        self._seq = 0
        self.transactions: Dict[str, RolloutTransaction] = {}

    # ------------------------------------------------------------------
    def begin(self, txn_id: str, locks: Iterable[str]) -> RolloutTransaction:
        """Open a transaction over a lock footprint: the locks whose
        placements and policies the rollout reads and rewrites."""
        existing = self.transactions.get(txn_id)
        if existing is not None and existing.status is TxnStatus.OPEN:
            raise ReplicationError(f"transaction {txn_id!r} is already open")
        self._seq += 1
        txn = RolloutTransaction(txn_id, frozenset(locks), begin_seq=self._seq)
        self.transactions[txn_id] = txn
        self._journal("txn-begin", txn)
        return txn

    def commit(self, txn: RolloutTransaction) -> RolloutTransaction:
        """Commit, or abort with :class:`SerializationConflict` if a
        transaction over an overlapping footprint committed inside this
        one's window (first committer wins)."""
        if txn.status is not TxnStatus.OPEN:
            raise ReplicationError(
                f"transaction {txn.txn_id!r} is {txn.status}, not open"
            )
        winner = max(
            (
                other.txn_id
                for other in self.transactions.values()
                if other.status is TxnStatus.COMMITTED
                and other.commit_seq > txn.begin_seq
                and other.locks & txn.locks
            ),
            default=None,
        )
        if winner is not None:
            # The two overlapping writers order each other both ways: a
            # cycle in the serialization graph.
            cause = (
                f"serialization graph cycle {txn.txn_id} -> {winner} -> {txn.txn_id} "
                f"(concurrent rollouts over overlapping locks)"
            )
            txn.status = TxnStatus.ABORTED
            txn.abort_cause = cause
            self._journal("txn-abort", txn, cause=cause)
            raise SerializationConflict(f"{txn.txn_id}: {cause}")
        self._seq += 1
        txn.commit_seq = self._seq
        txn.status = TxnStatus.COMMITTED
        self._journal("txn-commit", txn)
        return txn

    def abort(self, txn: RolloutTransaction, cause: str = "") -> None:
        """Abort an open transaction (rollout halted for its own
        reasons); idempotent on already-finished transactions."""
        if txn.status is not TxnStatus.OPEN:
            return
        txn.status = TxnStatus.ABORTED
        txn.abort_cause = cause or "aborted"
        self._journal("txn-abort", txn, cause=txn.abort_cause)

    # ------------------------------------------------------------------
    def committed(self) -> List[RolloutTransaction]:
        return [
            t for t in self.transactions.values() if t.status is TxnStatus.COMMITTED
        ]

    def _journal(self, event: str, txn: RolloutTransaction, **extra) -> None:
        if self.journal is None:
            return
        entry = {
            "kind": "replication",
            "event": event,
            "txn": txn.txn_id,
            "locks": sorted(txn.locks),
        }
        entry.update(extra)
        try:
            self.journal.append(entry)
        except Exception:
            # Best-effort, like every non-anchor fleet append: the
            # coordinator journals the conflict verdict independently.
            pass
