"""Crash-safe persistence for the control plane: the policy journal.

An **append-only JSON-lines journal** of everything a restarted daemon
needs to resume: client registrations, submissions (specs serialized
down to source + map names), and every :class:`PolicyRecord` transition
with its rollout artifacts (target/canary locks, livepatch names).  The
canonical location is ``<bpffs>/concord/journal.jsonl`` — pinned state
and the journal that explains it live under the same root — which the
simulation maps to a host path (or to memory for tests).

Integrity: every line is framed by :mod:`repro.storage.record` — a v2
envelope carrying a CRC32 and a monotonic sequence number — so replay
distinguishes a torn write from silent rot.  :meth:`compact`
folds the whole committed log into a checksummed snapshot beside the
file (``<path>.snapshot``) and truncates the log; replay then walks
snapshot + tail and reconstructs exactly what the uncompacted log
would have.

Crash model: each entry is one line, flushed (and fsynced when backed
by a real file) before :meth:`append` returns, so a crash can lose at
most the entry being written.  :meth:`entries` therefore tolerates a
truncated or corrupt *final* line — that is exactly the artifact a
mid-write crash leaves — but treats corruption anywhere else as
:class:`JournalCorruption`: beyond the crash model, report it (physical
line, shard path, owning member) rather than guess.  :meth:`salvage` is
the deliberate, best-effort answer for an unreplicated shard: keep the
valid prefix, set the rotten suffix aside as ``<path>.corrupt``, and
let the fleet layer book what was stranded as revert debt.

What is deliberately **not** journaled: profiler reports and SLO
verdicts (reproducible measurements, not state), and implementation
*factories* (code does not survive a process; recovery rebuilds them
from ``impl_name`` via the daemon's ``impl_registry``).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from ..faults import (
    SITE_STORAGE_CORRUPT_LINE,
    SITE_STORAGE_CORRUPT_SNAPSHOT,
    fault_point,
)
from ..storage.record import canonical, encode_record, maybe_corrupt
from ..storage.snapshot import (
    Violation,
    encode_snapshot,
    fold_entries,
    read_copy,
    write_snapshot_file,
)

__all__ = [
    "PolicyJournal",
    "JournalError",
    "JournalCorruption",
    "BPFFS_JOURNAL_PATH",
    "append_best_effort",
]

#: Where the journal conceptually lives in the simulated kernel.
BPFFS_JOURNAL_PATH = "/sys/fs/bpf/concord/journal.jsonl"


class JournalError(Exception):
    """The journal file is unreadable or corrupt beyond the crash model."""


def append_best_effort(journal, entry: Dict[str, Any]) -> None:
    """Append ``entry`` to ``journal`` (if any), swallowing
    :class:`JournalError`.

    For writes whose loss can only cost history, never correctness: the
    fleet journal (a lost entry downgrades resume into unwind), the
    adaptation loop's decisions (the daemons' own recovery carries the
    no-unjudged-cull invariant) and the scrubber's verdicts."""
    if journal is None:
        return
    try:
        journal.append(entry)
    except JournalError:
        pass


class JournalCorruption(JournalError):
    """Corruption that is provably not a torn write: a mangled mid-file
    line, a checksum mismatch, a sequence regression, or a rotten
    snapshot.  Carries enough context to act on — the physical line, the
    shard path, and (in fleet context) the owning member — because the
    fleet layer's answer is targeted (quarantine *this* shard, salvage
    *this* prefix), not a stack trace."""

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        line: Optional[int] = None,
        member: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line = line
        self.member = member


class PolicyJournal:
    """Append-only JSONL store; file-backed or in-memory.

    Args:
        path: host filesystem path.  ``None`` keeps the journal in
            memory — same API, no crash safety, handy for tests.  The
            file is opened in append mode, so constructing a journal on
            an existing path *continues* it (that is what a restarted
            daemon does before calling ``recover()``).
        member: optional owning fleet-member name, stamped into
            corruption errors so a fleet operator knows *whose* shard
            rotted (:class:`FleetMember` sets it on registration).
    """

    def __init__(self, path: Optional[str] = None, member: Optional[str] = None) -> None:
        self.path = path
        self.member = member
        self._memory: List[Dict[str, Any]] = []
        self._fh = None
        #: The entries as this object last read or appended them, in the
        #: writer's key order (a stored record sorts its keys).  Only a
        #: key-order memo: :meth:`entries` reads the disk on every call
        #: and serves these only while the disk holds the same entries.
        self._as_written: Optional[List[Dict[str, Any]]] = None
        #: The next sequence number to claim; 0 until a file-backed
        #: journal has read the file's high-water mark.
        self._next_seq = 1 if path is None else 0
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._trim_torn_tail()
            self._fh = open(path, "a", encoding="utf-8")

    @property
    def snapshot_path(self) -> Optional[str]:
        """Where :meth:`compact` seals the folded prefix."""
        return None if self.path is None else self.path + ".snapshot"

    def _trim_torn_tail(self) -> None:
        """Truncate a non-newline-terminated final line before appending.

        A crash between write and newline leaves a torn tail.  Replay
        alone would tolerate it — but a *restarted* daemon appends first
        (this constructor opens in append mode), and gluing a fresh
        entry onto the fragment forges a corrupt **mid-file** line,
        which replay correctly refuses as beyond the crash model.  So
        the torn fragment is cut at open time, back to the last newline
        (or to empty, if no complete line ever made it out) — found by
        scanning backwards from the end, block by block; a torn tail is
        one short line, so this reads one block, not the whole file.
        """
        if self.path is None or not os.path.exists(self.path):
            return
        size = os.path.getsize(self.path)
        if size == 0:
            return
        keep = 0
        with open(self.path, "rb") as fh:
            fh.seek(size - 1)
            if fh.read(1) == b"\n":
                return
            pos = size - 1  # bytes [pos, size) are known newline-free
            block = 4096
            while pos > 0:
                start = max(0, pos - block)
                fh.seek(start)
                cut = fh.read(pos - start).rfind(b"\n")
                if cut != -1:
                    keep = start + cut + 1
                    break
                pos = start
        with open(self.path, "r+b") as fh:
            fh.truncate(keep)

    # ------------------------------------------------------------------
    def append(self, entry: Dict[str, Any]) -> None:
        """Durably append one checksummed entry (flush + fsync).

        Two fault sites bracket the durability boundary:
        ``controlplane.journal.append`` fires *before* anything is
        written (the entry is lost), ``controlplane.journal.fsync``
        fires after the write but before it is durable (the entry is on
        disk yet the caller sees a failure — the classic fsync-gap
        double-report a recovery replay must tolerate).  A third,
        ``storage.corrupt.line``, is different in kind: it flips one
        byte of the framed line *after* the checksum was computed and
        the append still succeeds — silent media rot, the scrubber's
        problem to find.
        """
        if "kind" not in entry:
            raise JournalError("journal entries need a 'kind'")
        fault_point(
            "controlplane.journal.append",
            default_exc=JournalError,
            kind=entry.get("kind"),
            policy=entry.get("policy") or entry.get("rollout"),
        )
        if self.path is not None:
            if self._fh is None:  # reopened after close()
                self._trim_torn_tail()
                self._fh = open(self.path, "a", encoding="utf-8")
            seq = self._claim_seq()
            line = encode_record(seq, entry)
            written = maybe_corrupt(
                SITE_STORAGE_CORRUPT_LINE,
                line,
                salt=seq,
                path=self.path,
                kind=entry.get("kind"),
            )
            self._fh.write(written + "\n")
            self._fh.flush()
            fault_point(
                "controlplane.journal.fsync",
                default_exc=JournalError,
                kind=entry.get("kind"),
            )
            os.fsync(self._fh.fileno())
            if self._as_written is not None:
                self._as_written.append(dict(entry))
        else:
            self._claim_seq()
            self._memory.append(dict(entry))
            fault_point(
                "controlplane.journal.fsync",
                default_exc=JournalError,
                kind=entry.get("kind"),
            )

    def entries(self) -> List[Dict[str, Any]]:
        """Every journaled entry, oldest first (snapshot, then log).

        A file-backed journal reads the disk on every call, so rot or an
        external append is seen by the object that wrote the file as by
        a fresh reader, and moves the next sequence number past whatever
        it read; entries this object wrote keep their key order while
        the disk still holds them unchanged.  A corrupt/truncated
        *last* line (the mid-write-crash artifact) is dropped;
        corruption elsewhere — a mangled mid-file line, a checksum or
        sequence violation, a rotten snapshot — raises
        :class:`JournalCorruption`.
        """
        fault_point(
            "controlplane.journal.replay",
            default_exc=JournalError,
            path=self.path or "<memory>",
        )
        if self.path is None:
            return [dict(entry) for entry in self._memory]
        stored = self._load()
        if self._as_written is None or canonical(self._as_written) != canonical(stored):
            self._as_written = stored
        return [dict(entry) for entry in self._as_written]

    def _claim_seq(self) -> int:
        if not self._next_seq:
            self._as_written = self._load()
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def stored(self) -> Tuple[Optional[str], List[Tuple[int, str]], bool]:
        """What is on disk: the snapshot blob (or ``None``), the log's
        non-blank lines numbered physically from 1, and whether the
        final line lacks its newline.  Both files are read as bytes and
        decoded with ``errors="replace"``, so a byte that is not UTF-8
        is rot for the checksums to find, not a crash.
        """
        if self._fh is not None:
            self._fh.flush()
        blob = None
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, "rb") as fh:
                blob = fh.read().decode("utf-8", errors="replace")
        data = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                data = fh.read()
        decoded = (raw.decode("utf-8", errors="replace") for raw in data.split(b"\n"))
        lines = [(n, line) for n, line in enumerate(decoded, start=1) if line.strip()]
        return blob, lines, bool(data) and not data.endswith(b"\n")

    def _load(self) -> List[Dict[str, Any]]:
        """Parse snapshot + log from disk and move the next sequence
        number past the last one stored."""
        blob, lines, _ = self.stored()
        copy = read_copy(blob, lines, keyed=False)
        if copy.violations:
            bad = copy.violations[0]
            if bad.kind != "record" or bad.position != lines[-1][0]:
                raise self._corruption(bad)
            # A corrupt final line is a torn write; everything before it holds.
        self._next_seq = max(self._next_seq, copy.last_seq + 1)
        return copy.entries

    def _corruption(self, bad: Violation) -> JournalCorruption:
        tag = f" (member {self.member})" if self.member else ""
        if bad.kind == "snapshot":
            return JournalCorruption(
                f"{self.snapshot_path}: corrupt snapshot{tag}: {bad.detail}",
                path=self.snapshot_path,
                member=self.member,
            )
        if bad.kind == "record":
            where = "corrupt journal line"
            why = "not the final line — this is not a torn write"
        else:
            where, why = "journal line", "not a torn write — sequence numbers only grow"
        return JournalCorruption(
            f"{self.path}: {where} {bad.position}{tag}: {bad.detail} ({why})",
            path=self.path,
            line=bad.position,
            member=self.member,
        )

    # ------------------------------------------------------------------
    # Compaction & salvage
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Fold the whole journaled prefix into a checksummed snapshot
        and truncate the log.

        Everything appended to an unreplicated journal is committed by
        definition, so the fold covers the full current view (existing
        snapshot + log).  The snapshot is written atomically (temp +
        fsync + rename) before the log is truncated, so a crash at any
        point leaves a replayable store.  Sequence numbers keep counting
        across compactions — the snapshot records the high-water mark.
        """
        before = self.entries()  # refuses (raises) on a corrupt store
        folded = fold_entries(before)
        if self.path is None:
            self._memory = [dict(entry) for entry in folded]
            return {"before": len(before), "after": len(folded)}
        last_seq = self._next_seq - 1
        blob = encode_snapshot(folded, last_seq)
        blob = maybe_corrupt(
            SITE_STORAGE_CORRUPT_SNAPSHOT,
            blob,
            salt=last_seq,
            path=self.snapshot_path,
        )
        write_snapshot_file(self.snapshot_path, blob)
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass  # the log's content now lives in the snapshot
        self._fh = open(self.path, "a", encoding="utf-8")
        self._as_written = [dict(entry) for entry in folded]
        return {"before": len(before), "after": len(folded), "last_seq": last_seq}

    def salvage(self) -> Dict[str, Any]:
        """Best-effort recovery of a corrupt shard's valid prefix.

        Everything up to the first integrity violation is kept; the
        rotten suffix is set aside as ``<path>.corrupt`` (evidence, not
        deleted), and a corrupt snapshot likewise.  This is a deliberate
        data-loss admission — the caller (the fleet coordinator) owes
        the stranded state a revert-debt booking; the journal's own job
        is only to make the loss explicit and the survivor replayable.
        """
        if self.path is None:
            return {"kept": len(self._memory), "dropped": 0, "snapshot_ok": True}
        self.close()
        report: Dict[str, Any] = {
            "kept": 0,
            "dropped": 0,
            "snapshot_ok": True,
            "line": None,
        }
        blob, lines, _ = self.stored()
        copy = read_copy(blob, lines, keyed=False)
        if copy.violations and copy.violations[0].kind == "snapshot":
            report["snapshot_ok"] = False
            os.replace(self.snapshot_path, self.snapshot_path + ".corrupt")
            copy = read_copy(None, lines, keyed=False)
        if copy.violations:
            bad_line = copy.violations[0].position
            report["line"] = bad_line
            report["dropped"] = sum(1 for lineno, _ in lines if lineno >= bad_line)
            os.replace(self.path, self.path + ".corrupt")
            with open(self.path, "w", encoding="utf-8") as fh:
                for lineno, line in lines:
                    if lineno < bad_line:
                        fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        self._fh = open(self.path, "a", encoding="utf-8")
        self._as_written = copy.entries
        self._next_seq = copy.last_seq + 1
        report["kept"] = len(copy.entries)
        return report

    def heartbeat(self, ts: int, **extra: Any) -> None:
        """Append a liveness marker — the health monitor's "journal shard
        still appendable" probe.

        A heartbeat is deliberately contentless: recovery replay ignores
        unknown kinds, and compaction coalesces heartbeats down to the
        last one per member, so a journal full of heartbeats recovers
        exactly like an empty one.  The ``fleet.health.heartbeat`` site
        models the shard's storage going dark independently of the
        daemon.
        """
        fault_point(
            "fleet.health.heartbeat",
            default_exc=JournalError,
            path=self.path or "<memory>",
        )
        self.append({"kind": "heartbeat", "ts": ts, **extra})

    # ------------------------------------------------------------------
    def last_transition(self, policy: str) -> Optional[Dict[str, Any]]:
        """The most recent transition entry for ``policy``, or None."""
        found = None
        for entry in self.entries():
            if entry.get("kind") == "transition" and entry.get("policy") == policy:
                found = entry
        return found

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self.entries())

    def __repr__(self) -> str:
        # Names the store only: counting entries would replay it.
        where = self.path if self.path is not None else "<memory>"
        return f"PolicyJournal({where!r})"
