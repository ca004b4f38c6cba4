"""One replica site: the durable shard a :class:`ReplicaGroup` writes to.

A site models the storage node behind one copy of a member's policy
journal.  Its life is a three-state machine —

``UP`` — serving reads and acking writes;
``DOWN`` — killed; it misses every write until recovered;
``RECOVERING`` — back up for *writes* but refusing *reads*.

The read refusal is the available-copies recovery rule (RepCRec's):
replicated state at a recovered site is stale until proven otherwise,
and the proof is the first **committed** write that lands post-recovery
— the catch-up shipped with that write brings the site's log level with
the group, so only then may it serve reads.  A site's log itself is
durable (a killed site loses availability, not disk), which is what
makes "no lost committed acks" possible: every committed entry lives on
a quorum of logs and survives any single site death.

Fault sites (``replication.site.*``) bracket each operation so chaos
plans can kill a site mid-append, mid-read, or mid-catch-up; the group
treats an injected :class:`SiteFault` as that site dying under the
operation.

**Integrity.**  A site's log holds *framed* records (the same v2
CRC32 + sequence envelope file journals use), and the
``storage.corrupt.line`` fault site can silently flip a byte of a
stored record at append time.  Reads decode and verify; a record that
fails its checksum raises :class:`SiteCorrupt` — deliberately *not* a
:class:`SiteFault`, because the right response to detected rot is not
"mark the site dead" but "rebuild this copy from quorum peers"
(:meth:`ReplicaGroup.repair_site`).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional

from ..controlplane.journal import JournalError
from ..faults import (
    SITE_REPLICATION_APPEND,
    SITE_REPLICATION_READ,
    SITE_STORAGE_CORRUPT_LINE,
    fault_point,
)
from ..storage.record import encode_record, entries_digest, maybe_corrupt
from ..storage.snapshot import fold_entries, read_copy

__all__ = [
    "ReplicaSite",
    "ReplicationError",
    "SiteCorrupt",
    "SiteDown",
    "SiteFault",
    "SiteState",
    "SiteUnreadable",
    "StaleLeaderFenced",
]


class ReplicationError(JournalError):
    """Base of the replication layer's typed failures.

    Subclassing :class:`~repro.controlplane.journal.JournalError` is the
    integration contract: everything that already tolerates a journal
    shard failing (the daemon's submit path, the coordinator's
    best-effort appends) tolerates a replica group losing quorum the
    same way, with no new except-clauses.
    """


class SiteFault(ReplicationError):
    """Injected at a ``replication.site.*`` fault point: the site died
    under the operation.  The group converts it into a site failure
    (mark DOWN, fail over if it was the leader) rather than letting it
    escape to the journal's caller."""


class SiteDown(ReplicationError):
    """The site is DOWN; it can neither ack writes nor serve reads."""


class SiteUnreadable(ReplicationError):
    """The site recovered after missing writes and no committed write
    has landed since — its replicated state may be stale, so reads are
    refused (the available-copies recovery rule)."""


class SiteCorrupt(ReplicationError):
    """A stored record (or the site's snapshot base) failed checksum or
    sequence validation: silent rot, detected at read or scrub time.
    Not a :class:`SiteFault` — the site is alive and the remedy is a
    quorum-peer rebuild of this one copy, not a failover away from it."""


class StaleLeaderFenced(ReplicationError):
    """A write carried a lease epoch older than one this site has
    already accepted: a deposed leader (or a coordinator fenced out by
    a member restart) is still trying to write.  The replication-layer
    twin of :class:`~repro.fleet.health.EpochFenced` — same monotonic
    epoch counter, same verdict: never retried, the writer must
    re-acquire the lease."""


class SiteState(enum.Enum):
    UP = "up"
    DOWN = "down"
    RECOVERING = "recovering"

    def __str__(self) -> str:
        return self.name


class ReplicaSite:
    """One durable copy of a member's replicated journal."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = SiteState.UP
        #: False from recovery until the first post-recovery committed
        #: write lands (True for a site that never failed).
        self.readable = True
        #: seq -> framed record line (v2 envelope).  Durable: survives
        #: failure.
        self.log: Dict[int, str] = {}
        #: Compacted prefix: a checksummed snapshot blob folding every
        #: entry up to ``base_seq`` (None until the group compacts).
        self.base: Optional[str] = None
        self.base_seq = 0
        #: Verdict of the most recent scrub pass over this copy
        #: ("ok", "corrupt: ...", "repaired from ...", or None).
        self.last_scrub: Optional[str] = None
        #: Highest seq this site knows to be committed.
        self.commit_index = 0
        #: Highest lease epoch accepted; older writers are fenced.
        self.lease_epoch_seen = 0
        #: Why the site went DOWN ("" while UP): operator/debug text.
        self.down_cause = ""
        #: True when DOWN means *partitioned* — the site is unreachable
        #: but its log is intact and current up to the cut, as opposed
        #: to failed (process dead or storage rotten).  Repair planning
        #: reads this: a partitioned site needs catch-up after heal,
        #: not a quorum rebuild.
        self.down_partitioned = False

    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        return max(self.base_seq, max(self.log) if self.log else 0)

    def append(self, seq: int, entry: Dict[str, Any], lease_epoch: int) -> None:
        """Tentatively store one entry (the ack half of a quorum write).

        The record is framed (CRC32 + seq) before it hits the log; the
        ``storage.corrupt.line`` fault site may flip one byte of the
        framed bytes on the way down, and the append still acks —
        silent rot, caught by the next read or scrub of this copy.
        """
        if self.state is SiteState.DOWN:
            raise SiteDown(f"replica site {self.name} is down")
        if lease_epoch < self.lease_epoch_seen:
            raise StaleLeaderFenced(
                f"site {self.name}: write carries lease epoch {lease_epoch} "
                f"but epoch {self.lease_epoch_seen} was already accepted"
            )
        fault_point(
            SITE_REPLICATION_APPEND,
            default_exc=SiteFault,
            replica=self.name,
            seq=seq,
        )
        self.lease_epoch_seen = lease_epoch
        self.log[seq] = maybe_corrupt(
            SITE_STORAGE_CORRUPT_LINE,
            encode_record(seq, entry),
            salt=seq,
            replica=self.name,
        )

    def entry(self, seq: int) -> Dict[str, Any]:
        """Decode and verify the record stored at ``seq``."""
        return self._verified(None, [seq])[0]

    def committed_entries(self, commit_index: int) -> List[Dict[str, Any]]:
        """The verified committed prefix: snapshot base + log entries in
        ``(base_seq, commit_index]``.  Ungated — scrub and repair must
        read a copy regardless of its read-gate state; :meth:`read` is
        the gated public path."""
        return self._verified(
            self.base,
            [seq for seq in sorted(self.log) if self.base_seq < seq <= commit_index],
        )

    def digest(self, commit_index: int) -> int:
        """Content digest of the committed prefix, folded first: folding
        is deterministic and idempotent, so a copy holding a compaction
        snapshot and one still holding the raw records it folded digest
        identically (a difference folding erases is, by the fold's
        contract, invisible to replay)."""
        return entries_digest(fold_entries(self.committed_entries(commit_index)))

    def _verified(self, base: Optional[str], seqs: List[int]) -> List[Dict[str, Any]]:
        copy = read_copy(base, [(seq, self.log[seq]) for seq in seqs], keyed=True)
        if copy.violations:
            bad = copy.violations[0]
            if bad.kind == "snapshot":
                problem = f"snapshot base is corrupt: {bad.detail}"
            elif bad.kind == "record":
                problem = f"record at seq {bad.position} is corrupt: {bad.detail}"
            else:
                problem = f"record at seq {bad.position} claims seq {bad.seq}"
            raise SiteCorrupt(f"site {self.name}: {problem}")
        return copy.entries

    def install_snapshot(self, blob: str, last_seq: int) -> None:
        """Replace the prefix up to ``last_seq`` with a compacted base.
        The blob is stored as given — if compaction's write to this copy
        was rot-injected, this copy keeps the rotten bytes and the next
        scrub finds them."""
        self.base = blob
        self.base_seq = last_seq
        for seq in [q for q in self.log if q <= last_seq]:
            del self.log[seq]
        self.mark_committed(last_seq)

    def mark_committed(self, seq: int) -> None:
        self.commit_index = max(self.commit_index, seq)

    def read(self, commit_index: int) -> List[Dict[str, Any]]:
        """Committed entries in sequence order, up to ``commit_index``.

        Refused while DOWN, and refused while RECOVERING-but-unreadable
        — the caller (group or a direct site read in tests/tools) must
        go to a site whose state is proven current.  Every record is
        checksum-verified on the way out; rot raises
        :class:`SiteCorrupt`.
        """
        if self.state is SiteState.DOWN:
            raise SiteDown(f"replica site {self.name} is down")
        if not self.readable:
            raise SiteUnreadable(
                f"replica site {self.name} recovered after missing writes; "
                f"reads refused until a post-recovery write commits"
            )
        fault_point(
            SITE_REPLICATION_READ,
            default_exc=SiteFault,
            replica=self.name,
        )
        return self.committed_entries(commit_index)

    # ------------------------------------------------------------------
    def fail(self, cause: str = "", partitioned: bool = False) -> None:
        """Kill the site: availability gone, log (disk) retained.

        ``partitioned=True`` records that the outage is a network cut,
        not a dead process — the distinction :meth:`ReplicaGroup.health`
        surfaces so an operator (or repair planner) knows whether the
        copy needs catch-up or a rebuild."""
        self.state = SiteState.DOWN
        self.readable = False
        self.down_cause = cause
        self.down_partitioned = partitioned

    def recover(self) -> None:
        """Bring a DOWN site back: writable immediately, readable only
        after the first post-recovery committed write catches it up."""
        if self.state is not SiteState.DOWN:
            return
        self.state = SiteState.RECOVERING
        self.readable = False
        self.down_cause = ""
        self.down_partitioned = False

    def describe(self) -> str:
        gate = "readable" if self.readable else "read-gated"
        stored = len(self.log)
        if self.base is not None:
            stored = f"{stored}+snap@{self.base_seq}"
        row = (
            f"{self.name}: {self.state} ({gate}, {stored} entries, "
            f"commit {self.commit_index}, lease {self.lease_epoch_seen})"
        )
        if self.down_partitioned:
            row += " [partitioned, log intact]"
        if self.last_scrub is not None:
            row += f" [scrub: {self.last_scrub}]"
        return row

    def __repr__(self) -> str:
        return f"ReplicaSite({self.describe()})"
