"""The scrubber: checksum verification and anti-entropy replica repair.

Checksums only pay off if something *reads* them before the bad copy is
needed.  The :class:`Scrubber` is that reader — the background integrity
pass a real storage system runs on a cadence:

* **checksum scrub** — every framed record of a file-backed journal
  (and its snapshot), or of every replica site's log, is re-verified
  against its CRC32 and its sequence position;
* **anti-entropy** — sites of a replica group additionally compare
  content-level digests of their committed prefixes (the RepCRec-style
  "compare replicas, don't just trust catch-up" pass), so a site whose
  records all verify but *diverged* from its peers is still caught;
* **repair** — a corrupt or diverged site is rebuilt byte-for-byte from
  quorum peers via :meth:`ReplicaGroup.repair_site`; an unreplicated
  journal has no peers, so its findings surface to the caller (the
  health monitor escalates, the coordinator quarantines + salvages).

Scrub results land in three places: the returned :class:`ScrubReport`,
each site's ``last_scrub`` verdict (surfaced by ``ReplicaGroup.health``
/ ``describe``), and — when a fleet journal is wired in — journaled
``scrub-failed`` / ``scrub-repaired`` events, best-effort like every
other fleet journal write.

The ``storage.corrupt.digest`` fault site fires *here*, on the digest
read: it models the scrubber itself mis-reading a copy, which must lead
at worst to a spurious (idempotent) repair, never to damage.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..faults import SITE_STORAGE_CORRUPT_DIGEST, fault_point
from .record import majority_digest
from .snapshot import read_copy

__all__ = ["ScrubFinding", "ScrubReport", "Scrubber"]


class ScrubFinding(NamedTuple):
    """One integrity violation found by a scrub pass."""

    target: str  #: what is rotten: a site name or a journal path
    kind: str  #: "record" | "snapshot" | "sequence" | "digest" | "tail"
    detail: str
    seq: Optional[int] = None  #: sequence number, for site records
    line: Optional[int] = None  #: physical line number, for file journals

    def __str__(self) -> str:
        where = f" seq {self.seq}" if self.seq is not None else ""
        where = f" line {self.line}" if self.line is not None else where
        return f"{self.target}{where}: {self.kind}: {self.detail}"


class ScrubReport(NamedTuple):
    """The outcome of scrubbing one store (a journal or a group)."""

    target: str
    checked: int  #: records whose checksums were verified
    findings: Tuple[ScrubFinding, ...]
    repaired: Tuple[str, ...] = ()  #: site names rebuilt from peers

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def healed(self) -> bool:
        """Every finding's target was repaired."""
        bad = {f.target for f in self.findings}
        return bool(bad) and bad <= set(self.repaired)

    def describe(self) -> str:
        if self.ok:
            return f"scrub {self.target}: ok ({self.checked} records)"
        rows = [f"scrub {self.target}: {len(self.findings)} finding(s)"]
        rows.extend(f"  {finding}" for finding in self.findings)
        if self.repaired:
            rows.append(f"  repaired: {', '.join(self.repaired)}")
        return "\n".join(rows)


class Scrubber:
    """Verify checksums and cross-site digests; repair from quorum.

    Args:
        journal: optional fleet journal for ``scrub-failed`` /
            ``scrub-repaired`` events (best-effort appends).
        repair: rebuild corrupt/diverged sites from quorum peers
            in-place during :meth:`scrub_group`.  Off, the scrubber only
            observes — the operator (or a test) repairs explicitly.
    """

    def __init__(self, journal=None, repair: bool = True) -> None:
        self.journal = journal
        self.repair = repair
        self.scrubs = 0
        self.repairs = 0
        #: target -> most recent report.
        self.last: Dict[str, ScrubReport] = {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def scrub_member(self, member) -> ScrubReport:
        """Scrub whatever store backs one fleet member."""
        if member.replica_group is not None:
            return self.scrub_group(member.replica_group)
        if member.journal is not None and member.journal.path is not None:
            return self.scrub_journal(member.journal)
        return self._done(ScrubReport(target=member.name, checked=0, findings=()))

    # ------------------------------------------------------------------
    # File-backed journals
    # ------------------------------------------------------------------
    def scrub_journal(self, journal) -> ScrubReport:
        """Re-verify every framed line (and the snapshot) of a
        file-backed journal against the raw bytes on disk."""
        path = journal.path
        blob, lines, torn = journal.stored()
        copy = read_copy(blob, lines, keyed=False)
        findings = [
            ScrubFinding(
                target=journal.snapshot_path if v.position is None else path,
                kind=v.kind,
                detail=v.detail,
                line=v.position,
            )
            for v in copy.violations
        ]
        if torn:
            findings.append(
                ScrubFinding(
                    target=path,
                    kind="tail",
                    detail="final line is not newline-terminated (torn write)",
                )
            )
        findings.sort(key=lambda f: f.line or 0)  # snapshot, tail, then by line
        target = path if journal.member is None else f"{path} (member {journal.member})"
        report = ScrubReport(
            target=target, checked=copy.verified, findings=tuple(findings)
        )
        self._journal_verdict(report)
        return self._done(report)

    # ------------------------------------------------------------------
    # Replica groups
    # ------------------------------------------------------------------
    def scrub_group(self, group) -> ScrubReport:
        """Checksum every site's committed records, compare prefix
        digests across sites, repair casualties from quorum peers."""
        from ..replication.site import ReplicationError

        findings: List[ScrubFinding] = []
        checked = 0
        digests: Dict[str, int] = {}
        for site in group.sites:
            site_findings = self._scrub_site(site, group.commit_index)
            checked += sum(1 for seq in site.log if seq <= group.commit_index)
            if site_findings:
                findings.extend(site_findings)
                site.last_scrub = f"corrupt: {site_findings[0].detail}"
                continue
            site.last_scrub = "ok"
            if site.last_seq >= group.commit_index:
                # A complete prefix is comparable; a lagging site is
                # merely behind (catch-up's job), not diverged.
                digests[site.name] = self._digest_read(site, group.commit_index)
        if len(digests) >= 2:  # else there is nothing to compare against
            authoritative = majority_digest(digests, group.leader.name)
            findings.extend(
                ScrubFinding(
                    target=name,
                    kind="digest",
                    detail=(
                        f"committed prefix digest {digests[name]:#010x} diverges "
                        f"from quorum {authoritative:#010x}"
                    ),
                )
                for name in sorted(digests)
                if digests[name] != authoritative
            )

        repaired: List[str] = []
        if self.repair:
            for name in sorted({f.target for f in findings if f.target != group.name}):
                try:
                    group.repair_site(name, cause="scrub")
                except ReplicationError:
                    continue  # no clean quorum peer; the finding stands
                repaired.append(name)
                self.repairs += 1
        report = ScrubReport(
            target=group.name,
            checked=checked,
            findings=tuple(findings),
            repaired=tuple(repaired),
        )
        self._journal_verdict(report)
        return self._done(report)

    def _scrub_site(self, site, commit_index: int) -> List[ScrubFinding]:
        # Records past the commit index are uncommitted residue; election
        # truncates them.
        records = [
            (seq, site.log[seq]) for seq in sorted(site.log) if seq <= commit_index
        ]
        return [
            ScrubFinding(target=site.name, kind=v.kind, detail=v.detail, seq=v.position)
            for v in read_copy(site.base, records, keyed=True).violations
        ]

    def _digest_read(self, site, commit_index: int) -> int:
        """One site's folded committed-prefix digest
        (:meth:`ReplicaSite.digest`), as the scrubber reads it — the
        ``storage.corrupt.digest`` site models this read going bad,
        which must cause at worst a harmless repair."""
        digest = site.digest(commit_index)
        try:
            fault_point(
                SITE_STORAGE_CORRUPT_DIGEST,
                default_exc=_BadDigestRead,
                replica=site.name,
            )
        except _BadDigestRead:
            digest ^= 0x1
        return digest

    # ------------------------------------------------------------------
    def _journal_verdict(self, report: ScrubReport) -> None:
        if report.ok or self.journal is None:
            return
        from ..controlplane.journal import append_best_effort

        append_best_effort(
            self.journal,
            {
                "kind": "fleet",
                "event": "scrub-failed",
                "target": report.target,
                "findings": [str(f) for f in report.findings],
            },
        )
        if report.repaired:
            append_best_effort(
                self.journal,
                {
                    "kind": "fleet",
                    "event": "scrub-repaired",
                    "target": report.target,
                    "sites": list(report.repaired),
                },
            )

    def _done(self, report: ScrubReport) -> ScrubReport:
        self.scrubs += 1
        self.last[report.target] = report
        return report


class _BadDigestRead(Exception):
    """Internal: the digest fault site fired on this read."""
