"""Storage integrity: checksummed records, snapshots, scrub, repair.

The journal replay everything above rests on (daemon recovery, fleet
halt-and-revert, quorum commits) used to *trust* its bytes; this
package makes the trust earned:

* :mod:`repro.storage.record` — every durable record framed with a
  CRC32 + monotonic sequence number (the v2 envelope, the only record
  format), plus the ``storage.corrupt.*`` bit-flip injection;
* :mod:`repro.storage.snapshot` — checkpoint/compaction: fold the
  committed prefix into a checksummed snapshot, and :func:`read_copy`,
  the one reader that judges a stored snapshot + records;
* :mod:`repro.storage.scrub` — the :class:`Scrubber`: checksum scrub,
  cross-site anti-entropy digests, and quorum-peer repair.

``scrub`` is imported lazily (it leans on the replication layer, which
itself frames records through this package).
"""

from .record import (
    RECORD_VERSION,
    RecordCorruption,
    canonical,
    decode_record,
    encode_record,
    entries_digest,
    flip_byte,
    maybe_corrupt,
    record_crc,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotCorruption,
    decode_snapshot,
    encode_snapshot,
    fold_entries,
    write_snapshot_file,
)

__all__ = [
    "RECORD_VERSION",
    "RecordCorruption",
    "SNAPSHOT_VERSION",
    "ScrubFinding",
    "ScrubReport",
    "Scrubber",
    "SnapshotCorruption",
    "canonical",
    "decode_record",
    "decode_snapshot",
    "encode_record",
    "encode_snapshot",
    "entries_digest",
    "flip_byte",
    "fold_entries",
    "maybe_corrupt",
    "record_crc",
    "write_snapshot_file",
]


def __getattr__(name):
    if name in ("Scrubber", "ScrubReport", "ScrubFinding"):
        from . import scrub

        return getattr(scrub, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
