"""Checksummed record framing for the policy store.

Every durable record — a :class:`~repro.controlplane.journal.\
PolicyJournal` line, a :class:`~repro.replication.site.ReplicaSite` log
entry — is framed as a **v2 envelope**: one canonical-JSON line carrying
the payload, a monotonic sequence number, and a CRC32 computed over
``"<seq>:<canonical payload>"``.  The checksum binds the sequence number
to the payload, so neither a flipped payload byte nor a record replayed
at the wrong position verifies.

v2 is the only format: a line that does not decode as a valid v2
envelope — a bare JSON entry dict included — is corruption, never a
record of some older kind.

Bit-flip fault injection lives here too: :func:`maybe_corrupt` consults
the ``storage.corrupt.*`` sites and, when a rule fires, flips one byte
of the record *after* the checksum was computed — the write still
reports success, modeling silent media rot rather than a failed I/O.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Iterable, List, Tuple

from ..faults import fault_point

__all__ = [
    "RECORD_VERSION",
    "RecordCorruption",
    "canonical",
    "decode_record",
    "encode_record",
    "entries_digest",
    "flip_byte",
    "majority_digest",
    "maybe_corrupt",
    "record_crc",
]

#: The on-disk record format.
RECORD_VERSION = 2


class RecordCorruption(ValueError):
    """A framed record failed validation: unparseable bytes, a mangled
    envelope, a checksum mismatch, or a sequence number that does not
    match its position.  Low-level by design — the journal and the
    replica site convert it into their own typed errors."""


def canonical(payload: Any) -> str:
    """The canonical JSON serialization checksums are computed over.

    ``sort_keys`` plus tight separators make the round trip
    deterministic: re-serializing a parsed payload reproduces the exact
    bytes the writer checksummed.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def record_crc(seq: int, entry: Dict[str, Any]) -> int:
    return zlib.crc32(f"{seq}:{canonical(entry)}".encode("utf-8")) & 0xFFFFFFFF


def encode_record(seq: int, entry: Dict[str, Any]) -> str:
    """Frame one entry as a v2 checksummed record line (no newline)."""
    return canonical(
        {"crc": record_crc(seq, entry), "d": entry, "seq": seq, "v": RECORD_VERSION}
    )


def decode_record(line: str) -> Tuple[int, Dict[str, Any]]:
    """Parse one record line -> ``(seq, entry)``, validated strictly:
    any deviation from the v2 envelope raises :class:`RecordCorruption`.
    """
    try:
        obj = json.loads(line)
    except ValueError:
        raise RecordCorruption("unparseable record (not JSON)") from None
    if not isinstance(obj, dict):
        raise RecordCorruption("record is not a JSON object")
    seq = obj.get("seq")
    entry = obj.get("d")
    if (
        obj.get("v") != RECORD_VERSION
        or not isinstance(seq, int)
        or isinstance(seq, bool)
        or not isinstance(entry, dict)
    ):
        raise RecordCorruption("mangled v2 envelope")
    if obj.get("crc") != record_crc(seq, entry):
        raise RecordCorruption(f"checksum mismatch at seq {seq}")
    return seq, entry


def entries_digest(entries: Iterable[Dict[str, Any]]) -> int:
    """Content-level rolling CRC32 over decoded entries, in order.

    This is the anti-entropy comparison unit: it digests *payloads*, not
    stored bytes, so two sites holding the same committed prefix agree
    even when one has folded part of it into a snapshot.
    """
    digest = 0
    for entry in entries:
        digest = zlib.crc32(canonical(entry).encode("utf-8"), digest)
    return digest & 0xFFFFFFFF


def majority_digest(digests: Dict[str, int], leader: str) -> int:
    """The digest most copies hold (``digests``: holder name -> digest).
    A tie goes to the leader's copy, then to the copy whose
    lowest-named holder sorts last."""
    held: Dict[int, List[str]] = {}  # digest -> names of the copies holding it
    for name, digest in digests.items():
        held.setdefault(digest, []).append(name)
    return max(held, key=lambda d: (len(held[d]), leader in held[d], min(held[d])))


# ----------------------------------------------------------------------
# Bit-flip injection
# ----------------------------------------------------------------------
class _InjectedBitFlip(Exception):
    """Internal: a ``storage.corrupt.*`` rule fired at this write."""


def flip_byte(data: str, salt: int = 0) -> str:
    """Deterministically corrupt one byte of ``data`` (XOR 0x01).

    The flipped position is derived from ``salt`` (typically the record
    sequence number) so a sampled chaos plan reproduces bit-for-bit.
    XOR 0x01 never produces a newline from any byte canonical JSON
    emits, so a corrupted journal line stays one physical line.
    """
    raw = bytearray(data.encode("utf-8"))
    if not raw:
        return data
    raw[salt % len(raw)] ^= 0x01
    return raw.decode("utf-8", errors="replace")


def maybe_corrupt(site: str, data: str, salt: int = 0, **ctx: Any) -> str:
    """Consult a ``storage.corrupt.*`` fault site; return ``data`` with
    one byte flipped if a rule fires, unchanged otherwise.  The caller
    writes whatever comes back and reports success either way — silent
    corruption is the model."""
    try:
        fault_point(site, default_exc=_InjectedBitFlip, **ctx)
    except _InjectedBitFlip:
        return flip_byte(data, salt)
    return data
