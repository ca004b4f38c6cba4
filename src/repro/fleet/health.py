"""Fleet health: liveness probes, failure thresholds, and state tracking.

PR 3 gave the fleet a coordinator that survives *its own* crash; this
module is the other half of the failure model — members that stop
answering.  A :class:`HealthMonitor` probes each member the way an
external watchdog would, along three independent axes:

* **daemon responds** — :meth:`Concordd.ping` raises if the member's
  control-plane process is detached/dead;
* **kernel clock advances** — the member's simulated kernel is run
  forward a tiny bounded window; a wedged kernel whose clock cannot
  move fails the probe (the ``fleet.health.probe`` site models the
  probe itself timing out, i.e. a frozen or partitioned member);
* **journal shard appendable** — a heartbeat entry is appended to the
  member's journal (the ``fleet.health.heartbeat`` site models the
  shard's storage going dark while the daemon still answers).

A fourth axis is integrity: when a :class:`~repro.storage.scrub.\
Scrubber` is wired in, :meth:`probe_all` also scrubs each member's
store on a cadence (``scrub_every`` rounds).  A scrub that finds rot
the scrubber could not heal (no quorum peer to repair from — always
the case for an unreplicated shard) counts as a failed probe and walks
the same SUSPECT → DEAD escalation, so persistent corruption reaches
the coordinator's quarantine path through the very ``on_dead`` hook
crash detection already uses.

Consecutive probe failures escalate ``HEALTHY → SUSPECT → DEAD`` at
configurable thresholds; one success resets to HEALTHY.  The monitor
itself only *observes* — acting on a DEAD member (quarantine, revert
debt) is the coordinator's job, wired through the ``on_dead`` callback
so policy stays above mechanism.

:class:`MemberUnreachable` / :class:`EpochFenced` live here too: they
are the vocabulary the coordinator's degraded path speaks, and the
fence is conceptually a health property (a member whose epoch moved is
not the member you planned against, however alive it looks).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

from ..controlplane.journal import JournalError
from ..controlplane.lifecycle import ControlPlaneError
from ..faults import SITE_FLEET_PROBE, SITE_REPLICATION_READ, fault_point
from ..netsim import Fabric, NetError
from ..replication.site import ReplicationError, SiteFault, SiteState
from .manager import FleetError, FleetManager, FleetMember

__all__ = [
    "EpochFenced",
    "HealthMonitor",
    "HealthState",
    "MemberUnreachable",
    "ProbeRecord",
]

#: How far the clock-advance check runs a member's kernel (the probe's
#: simulated time budget).
PROBE_WINDOW_NS = 1_000

#: Probes retained per member or site (a ring, newest last).
HISTORY_LIMIT = 64

#: The monitor's own name on the fabric.
ENDPOINT = "health-monitor"


class MemberUnreachable(FleetError):
    """A fleet member did not respond to a coordinator operation."""


class EpochFenced(MemberUnreachable):
    """The member's epoch moved since the coordinator observed it.

    It restarted or was reinstated under the operation, so any wave
    state the coordinator holds about it is stale.  Never retried —
    a rejoined member must be re-planned, not blindly patched.
    """


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"

    def __str__(self) -> str:
        return self.name


class ProbeRecord(NamedTuple):
    """One probe of one member."""

    time_ns: int
    ok: bool
    epoch: int
    detail: str


class HealthMonitor:
    """Per-member liveness probing with escalation thresholds.

    A *replica site* probed via :meth:`probe_sites` that escalates to
    DEAD is failed in its group (which fails over if it was the leader)
    — the replication twin of quarantining a dead member.

    Args:
        fleet: the membership directory to watch.
        suspect_after: consecutive failures before HEALTHY → SUSPECT.
        dead_after: consecutive failures before → DEAD.
        on_dead: ``callback(name, cause)`` fired once per HEALTHY/
            SUSPECT → DEAD transition — typically
            :meth:`FleetCoordinator.quarantine`.
        scrubber: optional :class:`~repro.storage.scrub.Scrubber`; when
            set, :meth:`probe_all` scrubs each member's store every
            ``scrub_every`` rounds and unhealed findings count as
            failed probes.
        scrub_every: scrub cadence, in :meth:`probe_all` rounds.
        fabric: the :class:`~repro.netsim.Fabric` probes traverse
            (:data:`ENDPOINT` → member / site name); a private one by
            default.  A partitioned link is a failed probe — which is
            the point: a monitor on the wrong side of a partition walks
            the member to DEAD exactly as an external watchdog would,
            however alive the member is.
    """

    def __init__(
        self,
        fleet: FleetManager,
        suspect_after: int = 1,
        dead_after: int = 3,
        on_dead: Optional[Callable[[str, str], object]] = None,
        scrubber=None,
        scrub_every: int = 1,
        fabric: Optional[Fabric] = None,
    ) -> None:
        if not 1 <= suspect_after <= dead_after:
            raise FleetError(
                "thresholds must satisfy 1 <= suspect_after <= dead_after, "
                f"got {suspect_after}/{dead_after}"
            )
        self.fleet = fleet
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.on_dead = on_dead
        if scrub_every < 1:
            raise FleetError(f"scrub_every must be >= 1, got {scrub_every}")
        self.scrubber = scrubber
        self.scrub_every = scrub_every
        self.fabric = fabric or Fabric()
        self._rounds = 0
        self._history: Dict[str, Deque[ProbeRecord]] = {}
        self._failures: Dict[str, int] = {}
        self._states: Dict[str, HealthState] = {}

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, name: str) -> ProbeRecord:
        """Probe one member and update its health state."""
        ok, detail, when, epoch = self._probe_once(name)
        record = ProbeRecord(time_ns=when, ok=ok, epoch=epoch, detail=detail)
        return self._note(name, record, self.on_dead)

    def _note(
        self,
        key: str,
        record: ProbeRecord,
        on_dead: Optional[Callable[[str, str], object]],
    ) -> ProbeRecord:
        """Shared escalation: record one probe of ``key`` (a member or a
        replica site) and walk its HEALTHY → SUSPECT → DEAD machine."""
        self._history.setdefault(key, deque(maxlen=HISTORY_LIMIT)).append(record)
        if record.ok:
            self._failures[key] = 0
            self._states[key] = HealthState.HEALTHY
            return record
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        previous = self.state(key)
        if failures >= self.dead_after:
            self._states[key] = HealthState.DEAD
        elif failures >= self.suspect_after:
            self._states[key] = HealthState.SUSPECT
        if (
            self._states[key] is HealthState.DEAD
            and previous is not HealthState.DEAD
            and on_dead is not None
        ):
            on_dead(key, record.detail)
        return record

    def probe_all(self, include_sites: bool = False) -> Dict[str, ProbeRecord]:
        """Probe every in-service member (quarantined members are
        already out of rotation; probing them proves nothing).  With
        ``include_sites`` the replica sites of every replicated member
        are probed too (keyed by site name, e.g. ``k0/site1``).

        With a scrubber wired in, every ``scrub_every``-th round also
        runs an integrity scrub per member; a scrub the scrubber could
        not heal is a failed probe.
        """
        records = {name: self.probe(name) for name in self.fleet.active_names()}
        if include_sites:
            for name in self.fleet.active_names():
                records.update(self.probe_sites(name))
        self._rounds += 1
        if self.scrubber is not None and self._rounds % self.scrub_every == 0:
            for name, record in self.scrub_all().items():
                records[f"{name}:scrub"] = record
        return records

    def scrub_all(self) -> Dict[str, ProbeRecord]:
        """Scrub every active member's store; unhealed findings escalate.

        Each member's scrub verdict rides the member's own probe ring:
        a clean (or self-healed) scrub is a successful probe, rot the
        scrubber could not repair is a failed one — walked through the
        same SUSPECT → DEAD machine, so the coordinator's quarantine
        hook fires for persistent corruption exactly as it does for a
        dead daemon.
        """
        if self.scrubber is None:
            return {}
        records: Dict[str, ProbeRecord] = {}
        for name in self.fleet.active_names():
            member: FleetMember = self.fleet.member(name)
            report = self.scrubber.scrub_member(member)
            ok = report.ok or report.healed
            if ok:
                detail = "scrub: ok" if report.ok else (
                    f"scrub: repaired {', '.join(report.repaired)}"
                )
            else:
                detail = f"scrub: {report.findings[0]}"
            record = ProbeRecord(
                time_ns=member.kernel.now, ok=ok, epoch=member.epoch, detail=detail
            )

            # Scrub verdicts get their own escalation ring (keyed
            # ``<member>:scrub``): a member whose liveness probes pass
            # but whose store keeps failing scrubs must still walk to
            # DEAD, which an ok liveness probe would otherwise reset.
            def scrub_dead(key: str, cause: str, name: str = name) -> None:
                if self.on_dead is not None:
                    self.on_dead(name, cause)

            records[name] = self._note(f"{name}:scrub", record, scrub_dead)
        return records

    # ------------------------------------------------------------------
    # Replica-site probing
    # ------------------------------------------------------------------
    def probe_sites(self, name: str) -> Dict[str, ProbeRecord]:
        """Probe each replica site behind member ``name``.

        Site probes ride the same escalation machinery as member probes
        (same thresholds, same history rings, keyed by site name); a
        site that escalates to DEAD is failed in its group, which elects
        a new leader if the casualty held the lease.  Members without a
        replica group probe as an empty dict.
        """
        member: FleetMember = self.fleet.member(name)
        group = member.replica_group
        if group is None:
            return {}
        records: Dict[str, ProbeRecord] = {}
        for site in list(group.sites):
            ok, detail = self._probe_site_once(site)
            record = ProbeRecord(
                time_ns=member.kernel.now, ok=ok, epoch=member.epoch, detail=detail
            )
            records[site.name] = self._note(site.name, record, group.fail_site)
        return records

    def _probe_site_once(self, site) -> "tuple[bool, str]":
        if site.state is SiteState.DOWN:
            if site.down_partitioned:
                return False, "site down (partitioned, log intact)"
            return False, "site down"
        try:
            self.fabric.deliver(ENDPOINT, site.name, op="site-probe")
        except NetError as exc:
            return False, f"site partitioned: {exc}"
        try:
            fault_point(
                SITE_REPLICATION_READ,
                default_exc=SiteFault,
                replica=site.name,
                probe=True,
            )
        except ReplicationError as exc:
            return False, f"site probe: {exc}"
        if not site.readable:
            return True, "recovering (read-gated)"
        return True, "ok"

    def _probe_once(self, name: str):
        if name not in self.fleet:
            return False, "not registered", 0, -1
        member: FleetMember = self.fleet.member(name)
        epoch = member.epoch
        when = member.kernel.now
        try:
            stall = fault_point(
                SITE_FLEET_PROBE,
                default_exc=MemberUnreachable,
                member=name,
            )
        except MemberUnreachable as exc:
            return False, f"probe: {exc}", when, epoch
        if stall:
            # The probe window elapsed but the member's clock never
            # moved: a wedged kernel, reported as such.
            return False, f"probe: clock frozen for {stall}ns", when, epoch
        try:
            latency = self.fabric.deliver(
                ENDPOINT, name, op="probe", now_ns=member.kernel.now
            )
        except NetError as exc:
            return False, f"probe: partitioned: {exc}", when, epoch
        if latency:
            member.kernel.run(until=member.kernel.now + latency)
        try:
            member.daemon.ping()
        except ControlPlaneError as exc:
            return False, f"daemon: {exc}", when, epoch
        before = member.kernel.now
        member.kernel.run(until=before + PROBE_WINDOW_NS)
        if member.kernel.now <= before:
            return False, "kernel clock did not advance", member.kernel.now, epoch
        if member.journal is not None:
            try:
                member.journal.heartbeat(member.kernel.now, member=name, epoch=epoch)
            except JournalError as exc:
                return False, f"heartbeat: {exc}", member.kernel.now, epoch
        return True, "ok", member.kernel.now, epoch

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state(self, name: str) -> HealthState:
        """Current health state (unprobed members are presumed HEALTHY)."""
        return self._states.get(name, HealthState.HEALTHY)

    def failures(self, name: str) -> int:
        """Consecutive probe failures since the last success."""
        return self._failures.get(name, 0)

    def history(self, name: str) -> List[ProbeRecord]:
        return list(self._history.get(name, ()))

    def forget(self, name: str) -> None:
        """Drop all state for a departed member."""
        self._history.pop(name, None)
        self._failures.pop(name, None)
        self._states.pop(name, None)

    def describe(self) -> str:
        header = f"{'member':<10} {'state':<8} {'fails':>5} {'probes':>6}  last"
        rows = [header, "-" * len(header)]
        for name in self.fleet.names():
            history = self._history.get(name, ())
            last = history[-1].detail if history else "<never probed>"
            rows.append(
                f"{name:<10} {self.state(name).name:<8} "
                f"{self.failures(name):>5} {len(history):>6}  {last}"
            )
        return "\n".join(rows)
