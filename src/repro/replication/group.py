"""The replica group: quorum writes, fenced leadership, failover.

A :class:`ReplicaGroup` replicates one fleet member's policy journal
across N :class:`~repro.replication.site.ReplicaSite`\\ s with
available-copies semantics:

* **writes** go to every live site and *commit* when a quorum — a
  majority of the full membership — acks; fewer acks roll the tentative
  entry back off the sites that took it and raise :class:`NoQuorum`
  (which is a :class:`~repro.controlplane.journal.JournalError`, so the
  daemon and coordinator degrade exactly as they would for a failed
  journal shard).  Majority-of-membership (not of the momentarily live
  set) is what makes a committed ack durable: any single site death
  still leaves a live copy of every committed entry.
* **reads** are read-your-writes: they are served from the leader,
  whose log covers the commit index by the election invariant, so every
  committed append is visible to the next read through the group.
* **recovery** follows the available-copies rule: a recovered site acks
  writes immediately but serves reads only after the first committed
  write lands post-recovery — the commit ships a catch-up of the
  entries it missed, and only that proves its state current.

**Leadership and fencing.**  The group holds a leader lease with a
monotonic epoch.  Failover (leader site dies) elects the most
up-to-date electable site and bumps the epoch; a member restart or
reinstatement *also* fences the epoch forward (:meth:`fence`, wired
from :meth:`~repro.fleet.manager.FleetMember.restart`), so the lease
rides the same per-member epoch counter the fleet coordinator already
fences rollouts with.  A writer holding a stale lease gets
:class:`~repro.replication.site.StaleLeaderFenced` — the replication
twin of the coordinator's ``EpochFenced`` path — instead of silently
forking history; that is the no-split-brain guarantee.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional

from ..faults import (
    SITE_REPLICATION_CATCHUP,
    SITE_STORAGE_CORRUPT_SNAPSHOT,
    fault_point,
)
from ..netsim import Fabric, NetError
from ..storage.record import majority_digest, maybe_corrupt
from ..storage.snapshot import encode_snapshot, fold_entries
from .site import (
    ReplicaSite,
    ReplicationError,
    SiteCorrupt,
    SiteFault,
    SiteState,
    StaleLeaderFenced,
)

__all__ = ["LeaderLease", "NoQuorum", "ReplicaGroup"]


class NoQuorum(ReplicationError):
    """Fewer live sites acked than a commit requires; the write (or the
    election) is refused and nothing is committed."""


class LeaderLease(NamedTuple):
    """A point-in-time claim on the group's leadership.

    Writers that must prove continuity (a coordinator holding leadership
    across a wave) pass their lease to :meth:`ReplicaGroup.append`; a
    lease whose epoch the group has moved past is fenced, never retried.
    """

    site: str
    epoch: int


class ReplicaGroup:
    """N replica sites + a fenced leader lease for one fleet member.

    Args:
        name: the member (journal shard) this group replicates —
            site names are derived as ``<name>/site<i>``.
        nr_sites: replication factor (3 tolerates any single site death).
        on_failover: optional ``callback(group)`` fired after every
            election that moves leadership — the fleet layer's hook for
            surfacing failovers (journal events, metrics).
        fabric: the :class:`~repro.netsim.Fabric` replication traffic
            traverses — appends and reads as ``<name>`` → ``<site>``,
            catch-up and repair as leader/donor → casualty; a private
            one by default.  A partitioned link marks the site DOWN
            *partitioned* (log intact) rather than failed.
    """

    def __init__(
        self,
        name: str,
        nr_sites: int = 3,
        on_failover: Optional[Callable[["ReplicaGroup"], object]] = None,
        fabric: Optional[Fabric] = None,
    ) -> None:
        if nr_sites < 1:
            raise ReplicationError("a replica group needs at least one site")
        self.name = name
        self.sites: List[ReplicaSite] = [
            ReplicaSite(f"{name}/site{index}") for index in range(nr_sites)
        ]
        self.on_failover = on_failover
        self.fabric = fabric or Fabric()
        self.leader: ReplicaSite = self.sites[0]
        #: Monotonic lease epoch: bumped by every election and fenced
        #: forward by member restarts (:meth:`fence`).
        self.lease_epoch = 1
        self.leader.lease_epoch_seen = self.lease_epoch
        #: Highest committed sequence number (quorum-durable by
        #: construction: every committed seq is on >= quorum logs).
        self.commit_index = 0
        self._next_seq = 1
        self.failovers = 0
        #: Copies rebuilt from quorum peers (:meth:`repair_site`).
        self.repairs = 0

    # ------------------------------------------------------------------
    @property
    def quorum(self) -> int:
        """Majority of the *full* membership."""
        return len(self.sites) // 2 + 1

    def live_sites(self) -> List[ReplicaSite]:
        return [s for s in self.sites if s.state is not SiteState.DOWN]

    def site(self, name: str) -> ReplicaSite:
        for site in self.sites:
            if site.name == name or site.name == f"{self.name}/{name}":
                return site
        raise ReplicationError(f"group {self.name}: no site named {name!r}")

    def lease(self) -> LeaderLease:
        """The current lease — capture it to later prove continuity."""
        return LeaderLease(site=self.leader.name, epoch=self.lease_epoch)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(
        self, entry: Dict[str, Any], lease: Optional[LeaderLease] = None
    ) -> int:
        """Quorum-commit one entry; returns its sequence number.

        A site whose ack fails (injected ``replication.site.append`` /
        ``replication.site.catchup`` fault, or already DOWN) is marked
        failed and simply doesn't count toward the quorum; losing the
        leader mid-append fails over after the commit so the group stays
        serviceable.  Fewer than quorum acks raise :class:`NoQuorum`
        with the tentative entry rolled back off every acker — a failed
        append commits nothing anywhere.
        """
        if lease is not None and lease.epoch < self.lease_epoch:
            raise StaleLeaderFenced(
                f"group {self.name}: lease {lease.epoch} (held via "
                f"{lease.site}) was fenced; current epoch is {self.lease_epoch}"
            )
        if self.leader.state is not SiteState.UP:
            self.elect()
        seq = self._next_seq
        acked: List[ReplicaSite] = []
        for site in self.sites:
            if site.state is SiteState.DOWN:
                continue
            try:
                self._traverse(site, "append")
                self._catch_up(site)
                site.append(seq, entry, self.lease_epoch)
            except SiteFault as exc:
                self._fail_quietly(site, f"died under append: {exc}")
            except NetError as exc:
                self._fail_quietly(
                    site, f"partitioned under append: {exc}", partitioned=True
                )
            else:
                acked.append(site)
        if len(acked) < self.quorum:
            for site in acked:
                site.log.pop(seq, None)
            raise NoQuorum(
                f"group {self.name}: write got {len(acked)}/{self.quorum} "
                f"acks ({len(self.live_sites())} of {len(self.sites)} sites live)"
            )
        self._next_seq = seq + 1
        self.commit_index = seq
        for site in acked:
            site.mark_committed(seq)
            if not site.readable:
                # The available-copies gate lifts: a committed write
                # landed post-recovery (with catch-up), so this site's
                # replicated state is provably current.
                site.state = SiteState.UP
                site.readable = True
        if self.leader.state is not SiteState.UP:
            self.elect()  # the leader died taking this ack; fail over
        return seq

    def _traverse(self, site: ReplicaSite, op: str) -> None:
        """Cross the fabric to ``site``.  Latency is ignored —
        replication time is not modelled here — but a partitioned or
        dropping link raises :class:`NetError` through."""
        self.fabric.deliver(self.name, site.name, op=op)

    def _catch_up(self, site: ReplicaSite) -> None:
        """Ship the committed state ``site`` missed (from the leader,
        whose copy covers the commit index by the election invariant):
        first the leader's snapshot base if ``site`` is behind it, then
        the framed log records — copied byte-for-byte, checksums and
        all, so a catch-up neither launders rot nor introduces it."""
        ship_base = (
            self.leader.base is not None and site.last_seq < self.leader.base_seq
        )
        missing = [
            seq
            for seq in sorted(self.leader.log)
            if seq <= self.commit_index
            and seq not in site.log
            and seq > (self.leader.base_seq if not ship_base else 0)
        ]
        if not ship_base and not missing:
            return
        if site is not self.leader:
            # The shipped state travels leader → casualty, a different
            # edge than the group's own append path.
            self.fabric.deliver(self.leader.name, site.name, op="catch-up")
        fault_point(
            SITE_REPLICATION_CATCHUP,
            default_exc=SiteFault,
            replica=site.name,
            missing=len(missing),
        )
        if ship_base:
            site.install_snapshot(self.leader.base, self.leader.base_seq)
        for seq in missing:
            site.log[seq] = self.leader.log[seq]
        if missing:
            site.mark_committed(missing[-1])

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Every committed entry, oldest first (read-your-writes).

        A read that trips over rot (:class:`SiteCorrupt` — a record
        failing its checksum) heals itself: the leader's copy is rebuilt
        from quorum peers in place and the read retried.  Only when no
        clean peer can vouch for the prefix does the corruption surface,
        as :class:`NoQuorum`.
        """
        for _ in range(3):
            if (
                self.leader.state is not SiteState.UP
                or not self.leader.readable
                or self.leader.last_seq < self.commit_index
            ):
                self.elect()
            try:
                self._traverse(self.leader, "read")
                return self.leader.read(self.commit_index)
            except NetError as exc:
                self._fail_quietly(
                    self.leader,
                    f"partitioned under read: {exc}",
                    partitioned=True,
                )
            except SiteCorrupt:
                try:
                    self.repair_site(self.leader.name, cause="read")
                except ReplicationError as exc:
                    raise NoQuorum(
                        f"group {self.name}: leader copy is corrupt and no "
                        f"clean peer can repair it: {exc}"
                    ) from None
            except SiteFault as exc:
                self._fail_quietly(self.leader, f"died under read: {exc}")
        raise NoQuorum(f"group {self.name}: no readable leader after failover")

    # ------------------------------------------------------------------
    # Failure, election, recovery
    # ------------------------------------------------------------------
    def fail_site(self, name: str, cause: str = "") -> ReplicaSite:
        """Kill one site (operator action, health-monitor verdict, or a
        converted injected fault).  Failing the leader fails over."""
        site = self.site(name)
        if site.state is SiteState.DOWN:
            return site
        site.fail(cause)
        if site is self.leader:
            try:
                self.elect()
            except NoQuorum:
                pass  # no electable site; the next append/read raises
        return site

    def _fail_quietly(
        self, site: ReplicaSite, cause: str, partitioned: bool = False
    ) -> None:
        site.fail(cause, partitioned=partitioned)

    def recover_site(self, name: str) -> ReplicaSite:
        """Bring a DOWN site back RECOVERING: it acks writes again but
        serves no reads until a post-recovery write commits."""
        site = self.site(name)
        site.recover()
        return site

    def repair_site(self, name: str, cause: str = "") -> ReplicaSite:
        """Rebuild one site's committed prefix from quorum peers.

        Anti-entropy repair: every live peer whose copy covers the
        commit index *and* fully verifies (checksums + snapshot base)
        digests its committed prefix; the majority content wins (ties
        break toward the leader, then by site name), and the casualty's
        base + framed records are copied byte-for-byte from a site
        holding that content.  Residue past the commit index is
        discarded with the rot — only committed state has quorum
        backing.  With no clean donor, raises :class:`NoQuorum` and the
        casualty is left untouched (evidence, not a guess).
        """
        site = self.site(name)
        digests: Dict[str, int] = {}
        for peer in self.sites:
            if peer is site or peer.state is SiteState.DOWN:
                continue
            if peer.last_seq < self.commit_index:
                continue  # lagging: cannot vouch for the whole prefix
            try:
                digests[peer.name] = peer.digest(self.commit_index)
            except ReplicationError:
                continue  # rotten itself; cannot donate
        if not digests:
            raise NoQuorum(
                f"group {self.name}: no clean peer to repair {site.name} from"
            )
        winner = majority_digest(digests, self.leader.name)
        if digests.get(self.leader.name) == winner:
            source = self.leader
        else:
            source = self.site(min(n for n, d in digests.items() if d == winner))
        try:
            self.fabric.deliver(source.name, site.name, op="repair")
        except NetError as exc:
            raise NoQuorum(
                f"group {self.name}: repair of {site.name} from "
                f"{source.name} blocked by partition: {exc}"
            ) from exc
        site.base = source.base
        site.base_seq = source.base_seq
        site.log = {
            seq: raw for seq, raw in source.log.items() if seq <= self.commit_index
        }
        site.commit_index = self.commit_index
        site.lease_epoch_seen = max(site.lease_epoch_seen, self.lease_epoch)
        # A freshly copied quorum prefix is proven current by
        # construction — the copy is the catch-up.
        site.state = SiteState.UP
        site.readable = True
        site.last_scrub = f"repaired from {source.name}" + (
            f" ({cause})" if cause else ""
        )
        self.repairs += 1
        return site

    def compact(self, lease: Optional[LeaderLease] = None) -> Dict[str, int]:
        """Fold the committed prefix into a checksummed snapshot and
        install it on every live site, truncating their folded records.

        Fenced like a write: a caller holding a stale lease must not
        compact (its view of the committed prefix may predate a
        failover).  A DOWN site keeps its raw log; the snapshot reaches
        it through catch-up when it recovers.  The
        ``storage.corrupt.snapshot`` fault site fires per *copy*, so an
        injected flip rots one site's base, not every replica of it.
        """
        if lease is not None and lease.epoch < self.lease_epoch:
            raise StaleLeaderFenced(
                f"group {self.name}: compaction under lease {lease.epoch} "
                f"refused; current epoch is {self.lease_epoch}"
            )
        committed = self.entries()
        folded = fold_entries(committed)
        blob = encode_snapshot(folded, self.commit_index)
        for site in self.sites:
            if site.state is SiteState.DOWN:
                continue
            site.install_snapshot(
                maybe_corrupt(
                    SITE_STORAGE_CORRUPT_SNAPSHOT,
                    blob,
                    salt=self.commit_index,
                    replica=site.name,
                ),
                self.commit_index,
            )
        return {
            "before": len(committed),
            "after": len(folded),
            "last_seq": self.commit_index,
        }

    def elect(self) -> ReplicaSite:
        """Elect the most up-to-date electable site and bump the lease.

        Electable: not DOWN, log covering the commit index — such a site
        missed no committed write, so promoting it loses no acked data
        (and the read gate does not apply to it: there is nothing stale
        to serve).  Uncommitted residue beyond the commit index — acks
        for writes that never reached quorum — is truncated; the callers
        of those writes saw the failure.
        """
        candidates = [
            s
            for s in self.sites
            if s.state is not SiteState.DOWN and s.last_seq >= self.commit_index
        ]
        if not candidates:
            raise NoQuorum(
                f"group {self.name}: no electable site covers commit "
                f"index {self.commit_index}"
            )
        new = sorted(
            candidates, key=lambda s: (not s.readable, -s.last_seq, s.name)
        )[0]
        for seq in [q for q in new.log if q > self.commit_index]:
            del new.log[seq]
        new.state = SiteState.UP
        new.readable = True
        moved = new is not self.leader
        self.leader = new
        self.lease_epoch += 1
        new.lease_epoch_seen = max(new.lease_epoch_seen, self.lease_epoch)
        if moved:
            self.failovers += 1
            if self.on_failover is not None:
                self.on_failover(self)
        return new

    def fence(self, epoch: int) -> int:
        """Fence the lease forward to at least ``epoch`` (and past every
        outstanding lease).  Wired from the member's restart/reinstate
        path so the lease epoch rides the per-member fencing epoch: any
        writer holding a pre-restart lease is rejected exactly like a
        coordinator holding a pre-restart rollout epoch."""
        self.lease_epoch = max(self.lease_epoch + 1, epoch)
        self.leader.lease_epoch_seen = max(
            self.leader.lease_epoch_seen, self.lease_epoch
        )
        return self.lease_epoch

    # ------------------------------------------------------------------
    def journal(self):
        """A :class:`~repro.replication.journal.ReplicatedJournal`
        fronting this group (imported lazily: journal depends on group)."""
        from .journal import ReplicatedJournal

        return ReplicatedJournal(self)

    def health(self) -> Dict[str, object]:
        """The snapshot a ping/status endpoint reports.

        Per site this includes replication ``lag`` — how many sequence
        numbers the copy trails the leader's high-water mark — and the
        last scrub verdict, so an operator sees a rotting or straggling
        copy before it matters.
        """
        head = self.leader.last_seq
        return {
            "leader": self.leader.name,
            "lease_epoch": self.lease_epoch,
            "commit_index": self.commit_index,
            "quorum": self.quorum,
            "failovers": self.failovers,
            "repairs": self.repairs,
            "sites": {
                s.name: {
                    "state": s.state.name,
                    "readable": s.readable,
                    "entries": len(s.log),
                    "last_seq": s.last_seq,
                    "lag": max(0, head - s.last_seq),
                    "scrub": s.last_scrub,
                    # A DOWN site splits two ways: partitioned —
                    # unreachable with its log intact, needing catch-up
                    # after heal — versus failed (process dead or
                    # storage rotten), needing recover + quorum repair.
                    "partitioned": s.down_partitioned,
                    "down_cause": s.down_cause,
                }
                for s in self.sites
            },
        }

    def describe(self) -> str:
        rows = [
            f"replica group {self.name}: leader {self.leader.name}, "
            f"lease epoch {self.lease_epoch}, commit {self.commit_index}, "
            f"quorum {self.quorum}/{len(self.sites)}, "
            f"repairs {self.repairs}"
        ]
        head = self.leader.last_seq
        for site in self.sites:
            marker = "*" if site is self.leader else " "
            lag = max(0, head - site.last_seq)
            tail = f" lag={lag}" if lag else ""
            rows.append(f"  {marker} {site.describe()}{tail}")
        return "\n".join(rows)

    def __repr__(self) -> str:
        return (
            f"ReplicaGroup({self.name!r}, {len(self.sites)} sites, "
            f"leader {self.leader.name}, commit {self.commit_index})"
        )
