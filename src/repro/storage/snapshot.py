"""Checkpoint snapshots: fold a committed journal prefix, checksummed.

A journal that is never truncated grows without bound — heartbeats
alone make that acute at fleet scale.  Compaction folds the committed
prefix into a **semantics-preserving** entry list (:func:`fold_entries`)
and seals it in a checksummed snapshot blob; recovery then replays
snapshot + log tail and reconstructs exactly the state replaying the
uncompacted log would have.

What folding keeps, per entry kind (everything replay still needs):

* ``client`` — the first registration per client id (replay dedups);
* ``submission``/``transition`` — only the *latest* submission per
  policy name plus the transitions that followed it, in order (replay
  overwrites earlier records for a reused name, so the dropped history
  was unreachable anyway; the surviving chain replays every legal
  transition the record actually took);
* ``heartbeat`` — the last one per member (liveness is a high-water
  mark, not a history);
* ``fleet`` — the tail from the most recent ``plan`` anchor onward
  (:func:`rollout_window`, the same window
  :meth:`FleetCoordinator.recover` scans), plus any ``revert-debt``
  raised before the anchor and not yet drained before it — outstanding
  debt must survive compaction or a quarantined member's revert would
  be forgotten;
* anything else — preserved verbatim, in order (unknown kinds are
  replay no-ops today, but compaction must not bet on that).

The snapshot blob is one canonical-JSON document with a CRC32 over its
payload; a flipped byte anywhere fails :func:`decode_snapshot` with
:class:`SnapshotCorruption`.  File-backed journals write it atomically
(temp file + fsync + rename), so a crash mid-compaction leaves either
the old snapshot or the new one, never a torn hybrid.

:func:`read_copy` is the one reader of a stored copy — a snapshot base
plus framed records, from a journal file or a replica site — and the
one place that decides how far its bytes can be trusted.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .record import RecordCorruption, canonical, decode_record

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotCorruption",
    "StoredCopy",
    "Violation",
    "decode_snapshot",
    "encode_snapshot",
    "fold_entries",
    "outstanding_debt",
    "read_copy",
    "rollout_window",
    "write_snapshot_file",
]

SNAPSHOT_VERSION = 1


class SnapshotCorruption(ValueError):
    """A snapshot blob failed validation (bad JSON, mangled envelope,
    or checksum mismatch)."""


# ----------------------------------------------------------------------
# Folding
# ----------------------------------------------------------------------
def fold_entries(entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Fold a committed entry prefix into its minimal replay-equivalent."""
    clients: List[Dict[str, Any]] = []
    seen_clients = set()
    #: policy name -> entry block (submission + subsequent transitions).
    #: A re-submission resets the block: replay overwrites the record.
    policy_order: List[str] = []
    policies: Dict[str, List[Dict[str, Any]]] = {}
    heartbeat_order: List[Any] = []
    heartbeats: Dict[Any, Dict[str, Any]] = {}
    fleet: List[Dict[str, Any]] = []
    preserved: List[Dict[str, Any]] = []

    for entry in entries:
        kind = entry.get("kind")
        if kind == "client":
            key = entry.get("client")
            if key not in seen_clients:
                seen_clients.add(key)
                clients.append(entry)
        elif kind == "submission":
            name = entry.get("name")
            if name not in policies:
                policy_order.append(name)
            policies[name] = [entry]
        elif kind == "transition":
            name = entry.get("policy")
            if name not in policies:
                # No submission in the prefix (torn history): keep the
                # chain anyway so ``last_transition`` still answers.
                policy_order.append(name)
                policies[name] = []
            policies[name].append(entry)
        elif kind == "heartbeat":
            key = entry.get("member")
            if key not in heartbeats:
                heartbeat_order.append(key)
            heartbeats[key] = entry
        elif kind == "fleet":
            fleet.append(entry)
        else:
            preserved.append(entry)

    folded: List[Dict[str, Any]] = list(clients)
    for name in policy_order:
        folded.extend(policies[name])
    folded.extend(preserved)
    folded.extend(_fold_fleet(fleet))
    folded.extend(heartbeats[key] for key in heartbeat_order)
    return [dict(entry) for entry in folded]


def _fold_fleet(fleet: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Keep the latest rollout's window plus pre-anchor outstanding debt."""
    before, tail = rollout_window(fleet)
    return list(outstanding_debt(before).values()) + tail


def rollout_window(
    fleet: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Split fleet entries at the latest rollout's anchor, the *last*
    ``plan`` entry: ``(before, tail)``, the tail opening with the
    anchor; with no anchor, ``(fleet, [])``.  Compaction keeps the tail,
    and a restarted coordinator recovers the rollout it holds."""
    anchors = [index for index, entry in enumerate(fleet) if entry.get("event") == "plan"]
    cut = anchors[-1] if anchors else len(fleet)
    return fleet[:cut], fleet[cut:]


def outstanding_debt(
    fleet: Iterable[Dict[str, Any]],
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """The ``revert-debt`` entries no later ``debt-drained`` clears,
    keyed by ``(kernel, rollout)``, in booking order; the first booking
    of a key wins until a drain clears it.  Compaction keeps these, and
    a restarted coordinator rebuilds its debt from them."""
    outstanding: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for entry in fleet:
        key = (str(entry.get("kernel")), str(entry.get("rollout")))
        if entry.get("event") == "revert-debt":
            outstanding.setdefault(key, entry)
        elif entry.get("event") == "debt-drained":
            outstanding.pop(key, None)
    return outstanding


# ----------------------------------------------------------------------
# Blob encoding
# ----------------------------------------------------------------------
def encode_snapshot(entries: List[Dict[str, Any]], last_seq: int) -> str:
    """Seal folded entries into one checksummed snapshot blob."""
    payload = {"entries": entries, "last_seq": last_seq}
    crc = zlib.crc32(canonical(payload).encode("utf-8")) & 0xFFFFFFFF
    return canonical({"crc": crc, "s": payload, "v": SNAPSHOT_VERSION})


def decode_snapshot(blob: str) -> Tuple[List[Dict[str, Any]], int]:
    """Validate and unpack a snapshot blob -> ``(entries, last_seq)``."""
    try:
        obj = json.loads(blob)
    except ValueError:
        raise SnapshotCorruption("unparseable snapshot (not JSON)") from None
    if not isinstance(obj, dict) or obj.get("v") != SNAPSHOT_VERSION:
        raise SnapshotCorruption("mangled snapshot envelope")
    payload = obj.get("s")
    if not isinstance(payload, dict):
        raise SnapshotCorruption("mangled snapshot payload")
    crc = zlib.crc32(canonical(payload).encode("utf-8")) & 0xFFFFFFFF
    if obj.get("crc") != crc:
        raise SnapshotCorruption("snapshot checksum mismatch")
    entries = payload.get("entries")
    last_seq = payload.get("last_seq")
    if not isinstance(entries, list) or not isinstance(last_seq, int):
        raise SnapshotCorruption("mangled snapshot payload")
    return [dict(entry) for entry in entries], last_seq


# ----------------------------------------------------------------------
# Reading a stored copy back
# ----------------------------------------------------------------------
class Violation(NamedTuple):
    """One reason a stored copy cannot be trusted from some point on."""

    kind: str  #: "snapshot" | "record" | "sequence"
    position: Optional[int]  #: where the record is stored; None for the snapshot
    detail: str
    seq: Optional[int] = None  #: the seq a decoded record claims


class StoredCopy(NamedTuple):
    """What :func:`read_copy` found."""

    entries: List[Dict[str, Any]]  #: snapshot + records before the first violation
    last_seq: int  #: the seq ``entries`` end at
    verified: int  #: blobs that decoded: the snapshot and each record
    violations: List[Violation]


def read_copy(
    base: Optional[str], records: Iterable[Tuple[int, str]], keyed: bool
) -> StoredCopy:
    """Read back a snapshot ``base`` (or ``None``) plus framed
    ``(position, raw)`` records, in order, and judge them.

    ``keyed`` says what a position is.  For a replica site it is the seq
    the record must claim.  For a file it is a physical line number, and
    each record's seq must advance past every seq verified before it.  Every
    record is read, so a scrub sees every violation, but ``entries`` and
    ``last_seq`` stop at the first one: that prefix is what a reader may
    trust.
    """
    entries: List[Dict[str, Any]] = []
    last_seq = high = verified = 0
    violations: List[Violation] = []
    if base is not None:
        try:
            entries, last_seq = decode_snapshot(base)
            high = last_seq
            verified = 1
        except SnapshotCorruption as exc:
            violations.append(Violation("snapshot", None, str(exc)))
    for position, raw in records:
        try:
            seq, entry = decode_record(raw)
        except RecordCorruption as exc:
            violations.append(Violation("record", position, str(exc)))
            continue
        verified += 1
        if keyed and seq != position:
            detail = f"record claims seq {seq} but is stored at {position}"
        elif not keyed and seq <= high:
            detail = f"seq {seq} does not advance past {high}"
        else:
            high = seq
            if not violations:
                entries.append(entry)
                last_seq = seq
            continue
        violations.append(Violation("sequence", position, detail, seq))
    return StoredCopy(entries, last_seq, verified, violations)


# ----------------------------------------------------------------------
# File backing
# ----------------------------------------------------------------------
def write_snapshot_file(path: str, blob: str) -> None:
    """Atomically persist a snapshot blob (temp + fsync + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
