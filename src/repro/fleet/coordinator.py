"""Wave-by-wave plan execution with a fleet-level verdict and journal.

Per-kernel safety is already handled below this layer: each member's
daemon runs its own canary, SLO guard, circuit breaker, and auto
rollback.  The coordinator adds the *cross-kernel* decisions:

* execute a :class:`~repro.fleet.planner.FleetPlan` wave by wave,
  baking each wave before the next starts;
* aggregate per-kernel outcomes into a :class:`FleetVerdict`
  ("any-breach": one breach halts the fleet; "quorum": halt only when
  the passing fraction drops below the plan's quorum);
* on a failed verdict, **halt**: journal the halt first, then revert
  every kernel patched so far to stock — a halted fleet converges to
  all-stock, never to a mix;
* journal fleet transitions (plan, wave-start, kernel-done, wave-done,
  halt, revert, complete) so :meth:`FleetCoordinator.recover` can pick
  up a crashed rollout and either resume the remaining waves or unwind
  the patched ones — but never leave a split fleet.

Journal writes are deliberately best-effort: the fleet journal shrinks
the recovery search space, but correctness never depends on an append
surviving.  A lost entry degrades "resume from wave K+1" into "unwind
everything", which is safe; it can never produce a split fleet.

**Degraded mode.**  Every member operation (submit, rollout, bake,
revert, status) goes through a retry envelope (:meth:`FleetCoordinator.\
_reach`); a member that stays unreachable becomes an ``UNREACHABLE``
outcome feeding the verdict exactly like a breach (any-breach halts;
quorum can complete degraded).  The lost member is quarantined, and
anything the rollout had installed on it becomes **revert debt** —
journaled (``member-dead`` / ``quarantine`` / ``revert-debt`` events),
retried with bounded backoff by :meth:`FleetCoordinator.drain_debt`,
and drained by :meth:`FleetCoordinator.recover` once the member is
reinstated.  The fleet invariant becomes: every *reachable* kernel
converges to plan or stock, and every unreachable kernel is journaled
debt, drained on reinstatement.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..bpf.errors import BPFError
from ..controlplane.guards import Breach, Guard, pool_reports
from ..controlplane.journal import (
    JournalCorruption,
    JournalError,
    PolicyJournal,
    append_best_effort,
)
from ..controlplane.lifecycle import ControlPlaneError, PolicyState, PolicySubmission
from ..faults import (
    SITE_FLEET_DEBT_DRAIN,
    SITE_FLEET_MEMBER_CALL,
    SITE_FLEET_REVERT,
    SITE_FLEET_WAVE,
    fault_point,
)
from ..netsim import Fabric, NetError, RpcEnvelope, RpcExhausted, retry
from ..replication.txn import SerializationConflict
from ..storage.snapshot import outstanding_debt, rollout_window
from .health import EpochFenced, HealthState, MemberUnreachable
from .manager import FleetError, FleetManager, FleetMember
from .planner import FleetPlan

__all__ = ["FleetCoordinator", "FleetRollout", "FleetRolloutState", "FleetVerdict"]

#: ``submission_factory(member) -> PolicySubmission`` — called once per
#: kernel so every member gets fresh specs and maps (BPF maps are
#: per-kernel state and must never be shared across members).
SubmissionFactory = Callable[[FleetMember], PolicySubmission]

#: Attempts for the plan-anchor journal write, the one append that is
#: not best-effort.
PLAN_APPEND_RETRIES = 3

#: Attempts per revert-debt entry in :meth:`FleetCoordinator.drain_debt`.
DEBT_DRAIN_RETRIES = 3


class FleetRolloutState(enum.Enum):
    PLANNED = "planned"
    RUNNING = "running"
    COMPLETE = "complete"      # every kernel in the plan is ACTIVE
    HALTED = "halted"          # fleet verdict failed; patched kernels reverted
    UNWOUND = "unwound"        # recovery rolled the partial rollout back

    def __str__(self) -> str:
        return self.name


class FleetVerdict(NamedTuple):
    """Aggregate of per-kernel outcomes under the plan's verdict mode.

    ``pooled`` carries breaches of the coordinator's pooled guard —
    evidence summed across the wave's members, each breach naming the
    kernels it was pooled over.  Pooled breaches are fleet-level facts,
    not per-kernel outcomes, so they fail the verdict in *both* modes:
    a quorum of individually-passing kernels cannot outvote a
    regression the whole wave exhibits.
    """

    mode: str
    quorum: float
    passed: List[str]
    breached: List[str]
    pooled: Tuple[Breach, ...] = ()

    @property
    def ok(self) -> bool:
        if self.pooled:
            return False
        if self.mode == "any-breach":
            return not self.breached
        total = len(self.passed) + len(self.breached)
        if not total:
            return True
        return len(self.passed) >= math.ceil(self.quorum * total)

    def describe(self) -> str:
        status = "pass" if self.ok else "FAIL"
        text = (
            f"fleet verdict [{self.mode}]: {status} "
            f"({len(self.passed)} active, {len(self.breached)} breached"
            + (f", quorum {self.quorum:.2f}" if self.mode == "quorum" else "")
            + ")"
        )
        if self.pooled:
            text += "; pooled breach: " + "; ".join(b.describe() for b in self.pooled)
        return text


class FleetRollout:
    """Mutable record of one plan execution (or recovery)."""

    def __init__(self, plan: FleetPlan) -> None:
        self.plan = plan
        self.state = FleetRolloutState.PLANNED
        #: kernel name -> final PolicyState name, or "ERROR: ..." /
        #: "UNREACHABLE: ..." text.
        self.outcomes: Dict[str, str] = {}
        #: kernel name -> member epoch observed on first contact; the
        #: fence :meth:`FleetCoordinator._reach` checks on every later
        #: touch.
        self.epochs: Dict[str, int] = {}
        self.completed_waves: List[int] = []
        self.halt_cause: Optional[str] = None
        self.reverted: List[str] = []
        self.revert_failures: Dict[str, str] = {}
        self.resumed_from_wave: Optional[int] = None
        #: The rollout's transaction in the coordinator's serialization
        #: ledger (None when no ledger is configured).
        self.txn = None

    def active_kernels(self) -> List[str]:
        return sorted(k for k, s in self.outcomes.items() if s == "ACTIVE")

    def unreachable_kernels(self) -> List[str]:
        return sorted(
            k for k, s in self.outcomes.items() if s.startswith("UNREACHABLE")
        )

    def describe(self) -> str:
        lines = [f"fleet rollout {self.plan.policy!r}: {self.state}"]
        for wave in self.plan.waves:
            marks = [
                f"{k}={self.outcomes.get(k, '-')}" for k in wave.kernels
            ]
            done = "done" if wave.index in self.completed_waves else "    "
            lines.append(f"  wave {wave.index} [{done}] {'  '.join(marks)}")
        if self.halt_cause:
            lines.append(f"  halt: {self.halt_cause}")
        if self.reverted:
            lines.append(f"  reverted: {', '.join(self.reverted)}")
        if self.revert_failures:
            marks = [f"{k} ({v})" for k, v in sorted(self.revert_failures.items())]
            lines.append(f"  revert failures: {'; '.join(marks)}")
        return "\n".join(lines)


class FleetCoordinator:
    """Executes and recovers fleet plans over a :class:`FleetManager`.

    Args:
        fleet: the membership directory.
        journal: the *fleet* journal shard (separate from the members'
            per-kernel policy journals).  ``None`` disables fleet
            journaling — execution still works, but a crashed rollout
            cannot be resumed, only unwound by inspection.
        client_id: control-plane client identity the coordinator uses
            on every member daemon.
        health: optional :class:`~repro.fleet.health.HealthMonitor`; a
            member the monitor has declared DEAD is treated as
            unreachable without attempting the call.
        member_retries: how many times an unreachable member call is
            retried (on top of the first attempt) before the member is
            declared lost.  Epoch fences are never retried.  Retries
            back off exponentially from 20 µs (the member's own kernel
            is run forward — waiting out a transient partition costs
            simulated time, not host time).
        fabric: the :class:`~repro.netsim.Fabric` every member call
            traverses (``client_id`` → kernel name).  A partitioned
            link raises into the retry envelope as unreachable; delivery
            latency runs the member's kernel forward.  Defaults to a
            private fabric of its own, which draws no randomness and
            adds no delay.
        rpc_timeout_ns: per-attempt delay budget — an attempt whose
            observed delay (fabric latency + injected stalls) exceeds it
            counts as unreachable for that attempt.
        rpc_deadline_ns: total simulated-time budget for one member
            operation including backoffs; exhaustion by deadline is
            journaled ``deadline-exceeded``, distinct from
            ``unreachable``.
        rpc_jitter_seed: seeds the envelope's backoff jitter (pass the
            plan seed so chaos runs stay replayable).
        pooled_guard: optional guard evaluated per wave over the
            members' profiler evidence *summed* with
            :func:`~repro.controlplane.guards.pool_reports`.  A per-lock
            regression marginal on any one kernel — or a wave whose
            members individually saw too few acquisitions to judge —
            becomes judgeable on the pooled counters; its breaches
            (kernel-attributed) fail the fleet verdict in both modes.
        ledger: optional :class:`~repro.replication.txn.\
SerializationLedger` shared by concurrent coordinators.  Each rollout
            runs as one transaction over its canary-lock footprint,
            committed when the rollout completes; two concurrent
            rollouts over overlapping locks cannot both commit — the
            second aborts with a journaled ``serialization-conflict``
            and halts cleanly (reverting its patched kernels).
    """

    def __init__(
        self,
        fleet: FleetManager,
        journal: Optional[PolicyJournal] = None,
        client_id: str = "fleet-coordinator",
        health=None,
        member_retries: int = 1,
        pooled_guard: Optional[Guard] = None,
        ledger=None,
        fabric: Optional[Fabric] = None,
        rpc_timeout_ns: Optional[int] = None,
        rpc_deadline_ns: Optional[int] = None,
        rpc_jitter_seed: int = 0,
    ) -> None:
        self.fleet = fleet
        self.journal = journal
        self.client_id = client_id
        self.health = health
        self.fabric = fabric or Fabric()
        self.envelope = RpcEnvelope(
            retries=member_retries,
            timeout_ns=rpc_timeout_ns,
            deadline_ns=rpc_deadline_ns,
            seed=rpc_jitter_seed,
        )
        self.pooled_guard = pooled_guard
        self.ledger = ledger
        #: Transactions pre-opened via :meth:`open_transaction`, keyed
        #: by policy, consumed by the next :meth:`execute` of that plan.
        self._pending_txns: Dict[str, object] = {}
        #: Outstanding revert debt: policies installed on members that
        #: went unreachable before they could be reverted.  Each entry
        #: is ``{"kernel", "policy", "epoch", "cause"}``; journaled as
        #: ``revert-debt`` and cleared by a ``debt-drained`` entry.
        self.debt: List[Dict[str, object]] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Reaching members: the retry/timeout envelope + epoch fence
    # ------------------------------------------------------------------
    def _reach(
        self,
        kernel: str,
        op: str,
        rollout: Optional[FleetRollout] = None,
    ) -> FleetMember:
        """Resolve ``kernel`` to a live member inside the coordinator's
        :class:`~repro.netsim.RpcEnvelope`.

        Raises :class:`MemberUnreachable` once the envelope gives up —
        whether by attempts or by total deadline — after journaling an
        ``rpc-exhausted`` entry carrying the envelope's classification
        (``unreachable`` / ``deadline-exceeded``), so the journal
        records *why* the member was lost.  :class:`EpochFenced` — the
        member restarted or was reinstated under the rollout — is
        raised immediately: retrying cannot un-move an epoch, the
        member must be re-planned; it is journaled classified
        ``fenced``.
        """

        def clock() -> int:
            if kernel in self.fleet:
                return self.fleet.member(kernel).kernel.now
            return 0

        def wait(pause_ns: int) -> None:
            if kernel in self.fleet:
                member = self.fleet.member(kernel)
                member.kernel.run(until=member.kernel.now + pause_ns)

        def give_up(exc: BaseException) -> bool:
            # Permanently gone; retrying cannot help.
            return kernel not in self.fleet or self.fleet.is_quarantined(kernel)

        try:
            return self.envelope.call(
                lambda attempt: self._reach_once(kernel, op, rollout),
                clock=clock,
                wait=wait,
                op=op,
                retry_on=(MemberUnreachable,),
                fail_fast=(EpochFenced,),
                corrupt_on=(JournalCorruption,),
                give_up=give_up,
            )
        except EpochFenced as exc:
            self._journal_rpc_exhausted(kernel, RpcExhausted("fenced", op, 1, 0, exc))
            raise
        except RpcExhausted as exc:
            self._journal_rpc_exhausted(kernel, exc)
            raise MemberUnreachable(str(exc)) from exc.cause

    def _journal_rpc_exhausted(self, kernel: str, exc: RpcExhausted) -> None:
        self._journal(
            {
                "event": "rpc-exhausted",
                "kernel": kernel,
                "op": exc.op,
                "classification": exc.classification,
                "attempts": exc.attempts,
                "elapsed_ns": exc.elapsed_ns,
                "cause": str(exc.cause) if exc.cause is not None else "",
            }
        )

    def _reach_once(
        self, kernel: str, op: str, rollout: Optional[FleetRollout]
    ) -> FleetMember:
        if kernel not in self.fleet:
            raise MemberUnreachable(
                f"member {kernel!r} is not registered (deregistered mid-rollout?)"
            )
        if self.fleet.is_quarantined(kernel):
            raise MemberUnreachable(f"member {kernel!r} is quarantined")
        if self.health is not None and self.health.state(kernel) is HealthState.DEAD:
            raise MemberUnreachable(
                f"member {kernel!r} is DEAD per the health monitor"
            )
        stall = fault_point(
            SITE_FLEET_MEMBER_CALL,
            default_exc=MemberUnreachable,
            kernel=kernel,
            op=op,
        )
        member = self.fleet.member(kernel)
        try:
            delay = stall + self.fabric.deliver(
                self.client_id, kernel, op=op, now_ns=member.kernel.now
            )
        except NetError as exc:
            raise MemberUnreachable(f"network: {exc}") from exc
        if delay and self.envelope.timed_out(delay):
            # The caller stops waiting at the timeout — it never
            # observes the rest of the delay.
            member.kernel.run(until=member.kernel.now + self.envelope.timeout_ns)
            raise MemberUnreachable(
                f"member {kernel!r} call {op!r} timed out: delay {delay}ns "
                f"> timeout {self.envelope.timeout_ns}ns"
            )
        if delay:
            member.kernel.run(until=member.kernel.now + delay)
        if rollout is not None:
            observed = rollout.epochs.get(kernel)
            if observed is None:
                rollout.epochs[kernel] = member.epoch
            elif observed != member.epoch:
                raise EpochFenced(
                    f"member {kernel!r} epoch moved {observed} -> "
                    f"{member.epoch} mid-rollout; re-plan it, don't patch it"
                )
        return member

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: FleetPlan,
        submission_factory: SubmissionFactory,
        start_wave: int = 0,
        **rollout_kwargs,
    ) -> FleetRollout:
        """Run ``plan`` wave by wave; returns the rollout record.

        ``rollout_kwargs`` are forwarded to each member daemon's
        :meth:`~repro.controlplane.daemon.Concordd.rollout` (baseline_ns,
        canary_ns, check_every_ns, ...).  Per-kernel workloads must
        already be spawned — the coordinator drives control flow, not
        load generation.
        """
        rollout = FleetRollout(plan)
        rollout.state = FleetRolloutState.RUNNING
        if self.ledger is not None and start_wave == 0:
            rollout.txn = self._pending_txns.pop(plan.policy, None) or self._begin(plan)
        if start_wave == 0:
            # The plan entry is the recovery anchor and the one write
            # that is NOT best-effort: without it a later crash would
            # leave patched kernels no recovery can even see.  Nothing
            # is patched yet, so refusing to start is always safe — but
            # only after bounded retries, so a transient fsync flake
            # doesn't kill an otherwise healthy rollout.
            if self.journal is not None:
                self._append_plan_anchor(plan)
        else:
            rollout.resumed_from_wave = start_wave
        for wave in plan.waves:
            if wave.index < start_wave:
                # Trust the journal's word for already-completed waves;
                # recover() verified their kernels are ACTIVE.
                rollout.completed_waves.append(wave.index)
                for kernel in wave.kernels:
                    rollout.outcomes.setdefault(kernel, "ACTIVE")
                continue
            stall = fault_point(
                SITE_FLEET_WAVE,
                default_exc=FleetError,
                rollout=plan.policy,
                wave=wave.index,
            )
            self._journal(
                {
                    "event": "wave-start",
                    "rollout": plan.policy,
                    "wave": wave.index,
                    "kernels": list(wave.kernels),
                }
            )
            for kernel in wave.kernels:
                try:
                    member = self._reach(kernel, "rollout", rollout)
                except MemberUnreachable as exc:
                    outcome = self._member_lost(rollout, kernel, exc)
                else:
                    if stall:
                        member.kernel.run(until=member.kernel.now + stall)
                    outcome = self._rollout_on(
                        member, plan, submission_factory, rollout_kwargs
                    )
                    rollout.outcomes[kernel] = outcome
                self._journal(
                    {
                        "event": "kernel-done",
                        "rollout": plan.policy,
                        "wave": wave.index,
                        "kernel": kernel,
                        "state": outcome,
                    }
                )
            self._bake(wave, plan, rollout)
            pooled = self._pooled_breaches(wave, plan, rollout)
            verdict = self.verdict(plan, rollout.outcomes, pooled)
            if not verdict.ok:
                self._halt(rollout, verdict.describe())
                return rollout
            rollout.completed_waves.append(wave.index)
            self._journal(
                {
                    "event": "wave-done",
                    "rollout": plan.policy,
                    "wave": wave.index,
                    "verdict": verdict.describe(),
                }
            )
        if rollout.txn is not None and self.ledger is not None:
            try:
                self.ledger.commit(rollout.txn)
            except SerializationConflict as exc:
                # Exactly one of two overlapping concurrent rollouts
                # commits; this one lost.  Journal the conflict, then
                # halt — which reverts every kernel it patched, so the
                # winner's policy is the only one the fleet converges to.
                self._journal(
                    {
                        "event": "serialization-conflict",
                        "rollout": plan.policy,
                        "txn": rollout.txn.txn_id,
                        "cause": str(exc),
                    }
                )
                self._halt(rollout, f"serialization conflict: {exc}")
                return rollout
        rollout.state = FleetRolloutState.COMPLETE
        self._journal({"event": "complete", "rollout": plan.policy})
        return rollout

    # ------------------------------------------------------------------
    # Serialization transactions
    # ------------------------------------------------------------------
    def open_transaction(self, plan: FleetPlan):
        """Pre-open the rollout's ledger transaction (before
        :meth:`execute` runs it).

        Two coordinators that each ``open_transaction`` before either
        executes are genuinely concurrent in the ledger's eyes: whoever
        commits second, over an overlapping lock footprint, aborts with
        :class:`~repro.replication.txn.SerializationConflict` even
        though the executions themselves were serial in simulated time.
        """
        if self.ledger is None:
            raise FleetError("open_transaction needs a serialization ledger")
        txn = self._pending_txns[plan.policy] = self._begin(plan)
        return txn

    def _begin(self, plan: FleetPlan):
        """Open the rollout's ledger transaction over its footprint: the
        union of its per-member canary locks (the locks whose policy it
        changes)."""
        locks = set()
        for names in plan.canary_locks.values():
            locks.update(names)
        return self.ledger.begin(
            f"{plan.policy}@{self.client_id}",
            locks=sorted(locks) if locks else [f"policy:{plan.policy}"],
        )

    def _append_plan_anchor(self, plan: FleetPlan) -> None:
        """Write the recovery anchor with bounded retry + backoff.

        Backoff runs the in-service kernels forward — waiting out a
        transient journal fault costs simulated time.  If the final
        attempt still fails the :class:`JournalError` propagates and the
        rollout is refused (nothing is patched yet)."""
        self._seq += 1
        entry = {
            "kind": "fleet",
            "seq": self._seq,
            "event": "plan",
            "rollout": plan.policy,
            "plan": plan.serialize(),
        }

        def pause(attempt: int) -> None:
            wait = self.envelope.backoff(attempt)
            for member in self.fleet.active_members():
                member.kernel.run(until=member.kernel.now + wait)

        retry(lambda: self.journal.append(entry), PLAN_APPEND_RETRIES, (JournalError,), pause)

    def _rollout_on(
        self,
        member: FleetMember,
        plan: FleetPlan,
        submission_factory: SubmissionFactory,
        rollout_kwargs: Dict,
    ) -> str:
        """Submit + canary one kernel; the outcome is a PolicyState name
        or an ``ERROR:`` string (per-kernel failures feed the fleet
        verdict instead of aborting the wave)."""
        daemon = member.daemon
        if self.client_id not in daemon.admission.clients():
            daemon.register_client(self.client_id, allowed_selectors=("*",))
        try:
            existing = daemon.records.get(plan.policy)
            if existing is not None and existing.state is PolicyState.ACTIVE:
                return "ACTIVE"  # resume: this kernel survived the crash
            if existing is None or existing.terminal:
                submission = submission_factory(member)
                if submission.name != plan.policy:
                    raise FleetError(
                        f"submission factory produced {submission.name!r} "
                        f"for plan {plan.policy!r}"
                    )
                daemon.submit(self.client_id, submission)
            elif existing.state is not PolicyState.VERIFIED:
                # Live but neither ACTIVE nor VERIFIED: a canary or
                # retirement someone else is mid-flight on — breach it.
                return f"ERROR: record already in flight ({existing.state})"
            record = daemon.rollout(
                plan.policy,
                canary_locks=plan.canary_locks.get(member.name),
                **rollout_kwargs,
            )
            return record.state.name
        except (ControlPlaneError, BPFError) as exc:
            return f"ERROR: {exc}"

    def _bake(self, wave, plan: FleetPlan, rollout: FleetRollout) -> None:
        """Run every kernel patched so far forward ``wave.bake_ns``.

        Bake time is when slow regressions surface: a member's breaker
        or guard may auto-rollback during it, flipping that kernel's
        outcome to ROLLED_BACK before the verdict is taken.  A member
        that cannot be reached for its bake is lost — quarantined, its
        installed policy booked as revert debt — instead of raising out
        of the wave (a deregistered or dead member used to blow up
        here and strand a split fleet)."""
        if not wave.bake_ns:
            return
        reached: Dict[str, FleetMember] = {}
        for kernel in list(rollout.outcomes):
            if rollout.outcomes[kernel].startswith("UNREACHABLE"):
                continue
            try:
                member = self._reach(kernel, "bake", rollout)
            except MemberUnreachable as exc:
                self._member_lost(rollout, kernel, exc)
                continue
            member.kernel.run(until=member.kernel.now + wave.bake_ns)
            reached[kernel] = member
        for kernel, member in reached.items():
            record = member.daemon.records.get(plan.policy)
            if record is not None:
                rollout.outcomes[kernel] = record.state.name

    # ------------------------------------------------------------------
    # Verdict + halt
    # ------------------------------------------------------------------
    def verdict(
        self,
        plan: FleetPlan,
        outcomes: Dict[str, str],
        pooled: Tuple[Breach, ...] = (),
    ) -> FleetVerdict:
        passed = sorted(k for k, s in outcomes.items() if s == "ACTIVE")
        breached = sorted(k for k, s in outcomes.items() if s != "ACTIVE")
        return FleetVerdict(
            mode=plan.verdict_mode,
            quorum=plan.quorum,
            passed=passed,
            breached=breached,
            pooled=pooled,
        )

    def _pooled_breaches(
        self, wave, plan: FleetPlan, rollout: FleetRollout
    ) -> Tuple[Breach, ...]:
        """Judge the wave on its members' *summed* profiler evidence.

        Each reachable wave member contributes its rollout record's
        baseline and canary reports; :func:`pool_reports` sums the
        per-lock counters (histograms and socket counts included) and
        the pooled guard compares the sums.  Breaches come back
        attributed to the kernels that supplied evidence, and a
        ``pooled-breach`` journal entry records each one before the
        verdict is taken.
        """
        if self.pooled_guard is None:
            return ()
        baselines, canaries, kernels = [], [], []
        for kernel in wave.kernels:
            if rollout.outcomes.get(kernel, "").startswith("UNREACHABLE"):
                continue
            try:
                member = self._reach(kernel, "pool", rollout)
            except MemberUnreachable:
                continue
            record = member.daemon.records.get(plan.policy)
            if (
                record is None
                or record.baseline_report is None
                or record.canary_report is None
            ):
                continue
            baselines.append(record.baseline_report)
            canaries.append(record.canary_report)
            kernels.append(kernel)
        if not baselines:
            return ()
        verdict = self.pooled_guard.evaluate(
            pool_reports(baselines), pool_reports(canaries)
        )
        if not verdict.ready or verdict.ok:
            return ()
        attributed = tuple(
            breach._replace(kernels=tuple(kernels)) for breach in verdict.attributed
        )
        for breach in attributed:
            self._journal(
                {
                    "event": "pooled-breach",
                    "rollout": plan.policy,
                    "wave": wave.index,
                    **breach.journal_fields(),
                }
            )
        return attributed

    def _halt(self, rollout: FleetRollout, cause: str) -> None:
        """Fleet verdict failed: journal the halt, then converge to
        stock.  The halt entry lands *before* any revert so a crash
        mid-revert recovers into "unwind", never "resume"."""
        rollout.halt_cause = cause
        self._journal(
            {"event": "halt", "rollout": rollout.plan.policy, "cause": cause}
        )
        if rollout.txn is not None and self.ledger is not None:
            # A halted rollout abandons its ledger claim (no-op if the
            # txn already aborted on serialization conflict).
            self.ledger.abort(rollout.txn, cause)
        self._revert_patched(rollout, cause)
        rollout.state = FleetRolloutState.HALTED

    def _revert_patched(self, rollout: FleetRollout, cause: str) -> None:
        plan = rollout.plan
        for kernel in sorted(rollout.outcomes):
            if rollout.outcomes[kernel].startswith("UNREACHABLE"):
                # Already lost.  Book (deduped) debt rather than assume
                # the loss path ran: in a recovery unwind the coordinator
                # that witnessed the loss may have died before
                # journaling it, and a drain of a member that turns out
                # to hold nothing is a safe no-op.
                self.add_debt(
                    kernel,
                    plan.policy,
                    rollout.epochs.get(kernel, -1),
                    rollout.outcomes[kernel],
                )
                continue
            try:
                # The member lookup used to sit outside this try block:
                # a member deregistered mid-rollout raised FleetError
                # out of the unwind and stranded a split fleet.
                member = self._reach(kernel, "revert", rollout)
            except MemberUnreachable as exc:
                rollout.revert_failures[kernel] = str(exc)
                self._member_lost(rollout, kernel, exc)
                continue
            record = member.daemon.records.get(plan.policy)
            if record is None or record.terminal:
                continue
            try:
                stall = fault_point(
                    SITE_FLEET_REVERT,
                    default_exc=FleetError,
                    rollout=plan.policy,
                    kernel=kernel,
                )
                if stall:
                    member.kernel.run(until=member.kernel.now + stall)
                self._to_stock(member, record, f"fleet halt: {cause}")
                rollout.reverted.append(kernel)
                rollout.outcomes[kernel] = record.state.name
                self._journal(
                    {"event": "revert", "rollout": plan.policy, "kernel": kernel}
                )
            except (ControlPlaneError, BPFError) as exc:
                # Keep unwinding the rest of the fleet; the journaled
                # halt means a later recover() retries this kernel.
                rollout.revert_failures[kernel] = str(exc)

    # ------------------------------------------------------------------
    # Member loss, quarantine, and revert debt
    # ------------------------------------------------------------------
    def _member_lost(
        self, rollout: FleetRollout, kernel: str, exc: MemberUnreachable
    ) -> str:
        """A member went unreachable mid-rollout: journal the loss,
        quarantine it, convert anything the rollout had live on it into
        revert debt, and record (and return) its ``UNREACHABLE: …``
        outcome.  Debt is judged on the outcome *before* it is
        overwritten: it is owed only if the policy was live there."""
        cause = str(exc)
        self._journal(
            {
                "event": "member-dead",
                "rollout": rollout.plan.policy,
                "kernel": kernel,
                "cause": cause,
            }
        )
        if kernel in self.fleet and not self.fleet.is_quarantined(kernel):
            self.fleet.quarantine(kernel, cause)
            self._journal({"event": "quarantine", "kernel": kernel, "cause": cause})
        if rollout.outcomes.get(kernel) in ("ACTIVE", "CANARY"):
            self.add_debt(
                kernel,
                rollout.plan.policy,
                rollout.epochs.get(kernel, -1),
                cause,
            )
        outcome = rollout.outcomes[kernel] = f"UNREACHABLE: {cause}"
        return outcome

    def add_debt(self, kernel: str, policy: str, epoch: int, cause: str) -> None:
        """Book one revert owed to an unreachable member (deduped on
        ``(kernel, policy)``) and journal it."""
        if any(d["kernel"] == kernel and d["policy"] == policy for d in self.debt):
            return
        self.debt.append(
            {"kernel": kernel, "policy": policy, "epoch": epoch, "cause": cause}
        )
        self._journal(
            {
                "event": "revert-debt",
                "rollout": policy,
                "kernel": kernel,
                "epoch": epoch,
                "cause": cause,
            }
        )

    def quarantine(self, name: str, cause: str = "operator") -> FleetMember:
        """Pull a member out of service and book its live policies as
        revert debt.

        This is the acting half of the health loop — wire it as a
        :class:`~repro.fleet.health.HealthMonitor` ``on_dead`` callback
        and a member the monitor declares DEAD is quarantined with its
        debt journaled, automatically.  Idempotent.
        """
        if self.fleet.is_quarantined(name):
            return self.fleet.member(name)
        member = self.fleet.quarantine(name, cause)
        self._journal({"event": "quarantine", "kernel": name, "cause": cause})
        for record in member.daemon.records.values():
            if record.live:
                self.add_debt(name, record.name, member.epoch, f"quarantined: {cause}")
        return member

    def reinstate(self, name: str) -> FleetMember:
        """Readmit a quarantined member (journaled; epoch fenced
        forward by the manager).  The member's debt stays booked until
        :meth:`drain_debt` or :meth:`recover` clears it."""
        member = self.fleet.reinstate(name)
        self._journal({"event": "reinstate", "kernel": name, "epoch": member.epoch})
        return member

    def drain_debt(self) -> List[Dict[str, object]]:
        """Retry every outstanding revert whose member is back in
        service; returns the entries drained.

        Each entry gets :data:`DEBT_DRAIN_RETRIES` attempts with
        exponential backoff (simulated time on the member's kernel).
        Entries whose member is still quarantined or gone stay booked —
        the journal keeps them across coordinator restarts.
        """
        drained: List[Dict[str, object]] = []
        for entry in list(self.debt):
            kernel = str(entry["kernel"])
            policy = str(entry["policy"])
            if kernel not in self.fleet or self.fleet.is_quarantined(kernel):
                continue
            member = self.fleet.member(kernel)
            try:
                retry(
                    lambda: self._drain_one(member, policy),
                    DEBT_DRAIN_RETRIES,
                    (ControlPlaneError, BPFError),
                    lambda n: member.kernel.run(
                        until=member.kernel.now + self.envelope.backoff(n)
                    ),
                )
            except (ControlPlaneError, BPFError):
                continue  # still owed; a later drain or recover retries it
            self.debt.remove(entry)
            drained.append(entry)
            self._journal(
                {
                    "event": "debt-drained",
                    "rollout": policy,
                    "kernel": kernel,
                    "epoch": member.epoch,
                }
            )
        return drained

    def _drain_one(self, member: FleetMember, policy: str) -> None:
        """Force one owed policy back to stock on a reachable member."""
        fault_point(
            SITE_FLEET_DEBT_DRAIN,
            default_exc=MemberUnreachable,
            kernel=member.name,
            policy=policy,
        )
        record = member.daemon.records.get(policy)
        if record is not None and not record.terminal:
            self._to_stock(member, record, "fleet revert debt drained")
        # Crash debris: programs named for the policy that no record
        # owns (a daemon that died before journaling the submission
        # rebuilds no record for them).  Unload is idempotent.
        for name in [
            n
            for n in member.concord.policies
            if n == policy or n.startswith(policy + ".")
        ]:
            member.concord.unload_policy(name)

    @staticmethod
    def _to_stock(member: FleetMember, record, cause: str) -> None:
        """Take a live record back to stock: force-rollback what is
        installed (CANARY/ACTIVE); anything else — e.g. VERIFIED after a
        failed canary install — has nothing installed, so the owner
        withdraws it and the name and quota free up instead of squatting
        mid-lifecycle."""
        if record.state in (PolicyState.CANARY, PolicyState.ACTIVE):
            member.daemon.force_rollback(record.name, cause)
        else:
            member.daemon.withdraw(record.client_id, record.name)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self,
        submission_factory: SubmissionFactory,
        **rollout_kwargs,
    ) -> Optional[FleetRollout]:
        """Pick up after a coordinator crash: resume or unwind.

        Every member daemon is restarted and recovered from its own
        journal shard first (per-kernel invariants: unwatched canaries
        rolled back, ACTIVE policies re-attached).  Then the fleet
        journal decides, for the most recent rollout:

        * ``complete`` / no rollout in flight → nothing to do (``None``);
        * a journaled ``halt`` → finish the unwind;
        * otherwise, if every kernel of every *completed* wave came back
          ACTIVE → resume from the first incomplete wave;
        * if any completed-wave kernel did **not** come back ACTIVE
          (including unreachable: quarantined or gone) → the fleet's
          journaled word and the kernels disagree — unwind everything
          rather than run split.

        Only members *in service* are restarted — a quarantined member
        is by definition not reachable for a restart.  Outstanding
        revert debt is rebuilt from the journal (``revert-debt`` entries
        without a later ``debt-drained``) and drained at the end for
        every member that is back in service.

        A member whose journal shard turns out to be **corrupt beyond
        the crash model** (:class:`JournalCorruption` — rot, not a torn
        tail) does not abort fleet recovery: the shard's valid prefix is
        salvaged, the daemon recovered over what survived, and the
        member quarantined with its stranded state booked as revert
        debt (:meth:`_quarantine_corrupt_shard`).  The *fleet* journal
        rotting is handled the same way — salvage, then recover from
        the surviving prefix.
        """
        if self.journal is None:
            raise FleetError("fleet recovery needs a fleet journal")
        for member in self.fleet.active_members():
            try:
                self._restart(member)
            except JournalCorruption as exc:
                self._quarantine_corrupt_shard(member, exc)
        try:
            entries = self.journal.entries()
        except JournalCorruption:
            report = self.journal.salvage()
            self._journal(
                {
                    "event": "shard-corrupt",
                    "kernel": "<fleet>",
                    "kept": report.get("kept", 0),
                    "dropped": report.get("dropped", 0),
                }
            )
            entries = self.journal.entries()
        entries = [e for e in entries if e.get("kind") == "fleet"]
        self._load_debt(entries)
        result = self._recover_plan(submission_factory, entries, rollout_kwargs)
        self.drain_debt()
        return result

    def _quarantine_corrupt_shard(
        self, member: FleetMember, exc: JournalCorruption
    ) -> None:
        """Quarantine-and-salvage a member whose journal shard rotted.

        Aborting fleet recovery because *one* unreplicated shard has a
        flipped byte would turn local rot into a fleet outage.  Instead:
        the corruption is journaled (with the physical line and path the
        error carries), the shard's valid prefix is salvaged — the
        rotten suffix set aside as ``<path>.corrupt``, evidence not
        erased — the member's daemon is recovered best-effort over what
        survived, and the member is quarantined.  Quarantine books every
        still-live policy as revert debt, and the daemon's own recovery
        sweep unloads programs whose records were lost past the
        corruption point, so stranded state is unwound, never silently
        trusted.
        """
        self._journal(
            {
                "event": "shard-corrupt",
                "kernel": member.name,
                "path": exc.path,
                "line": exc.line,
                "cause": str(exc),
            }
        )
        report = member.journal.salvage()
        try:
            self._restart(member)
        except (ControlPlaneError, JournalError):
            pass  # best-effort: the quarantine below stands regardless
        self.quarantine(
            member.name,
            cause=(
                f"journal shard corrupt: salvaged {report.get('kept', 0)} "
                f"entries, dropped {report.get('dropped', 0)}"
            ),
        )

    @staticmethod
    def _restart(member: FleetMember) -> None:
        """Restart a member's daemon and recover it from its journal
        shard (an empty shard has nothing to replay)."""
        member.restart()
        if member.journal is not None and len(member.journal):
            member.daemon.recover()

    def _load_debt(self, entries: List[Dict[str, object]]) -> None:
        """Rebuild the outstanding-debt ledger from the fleet journal,
        merged with anything already booked in memory."""
        outstanding = {
            key: {
                "kernel": key[0],
                "policy": key[1],
                "epoch": int(entry.get("epoch", -1)),
                "cause": str(entry.get("cause", "journaled")),
            }
            for key, entry in outstanding_debt(entries).items()
        }
        for entry in self.debt:
            outstanding.setdefault((str(entry["kernel"]), str(entry["policy"])), entry)
        self.debt = list(outstanding.values())

    def _recover_plan(
        self,
        submission_factory: SubmissionFactory,
        entries: List[Dict[str, object]],
        rollout_kwargs: Dict,
    ) -> Optional[FleetRollout]:
        # The latest rollout's window opens at its plan anchor; the
        # event tail (wave completions, halt, complete) follows it.
        _, tail = rollout_window(entries)
        if not tail:
            return None
        plan = FleetPlan.deserialize(tail[0]["plan"])
        events = {e.get("event") for e in tail}
        if "complete" in events or "unwound" in events:
            return None

        rollout = FleetRollout(plan)
        if "halt" in events:
            halt = next(e for e in tail if e.get("event") == "halt")
            return self._recover_unwind(rollout, f"resumed halt: {halt.get('cause')}")

        done_waves = sorted(
            int(e["wave"]) for e in tail if e.get("event") == "wave-done"
        )
        for wave in plan.waves:
            if wave.index in done_waves:
                for kernel in wave.kernels:
                    state = self._state_of(kernel, plan.policy)
                    rollout.outcomes[kernel] = state
                    if state != "ACTIVE":
                        return self._recover_unwind(
                            rollout,
                            f"kernel {kernel} of completed wave {wave.index} "
                            f"came back {state}, not ACTIVE",
                        )
        next_wave = (max(done_waves) + 1) if done_waves else 0
        if next_wave >= len(plan.waves):
            # Every wave finished but the complete entry was lost —
            # reconcile the journal and report success.
            rollout.completed_waves = done_waves
            rollout.state = FleetRolloutState.COMPLETE
            self._journal({"event": "complete", "rollout": plan.policy})
            return rollout
        return self.execute(
            plan, submission_factory, start_wave=next_wave, **rollout_kwargs
        )

    def _recover_unwind(self, rollout: FleetRollout, cause: str) -> FleetRollout:
        plan = rollout.plan
        for kernel in plan.kernels():
            rollout.outcomes.setdefault(kernel, self._state_of(kernel, plan.policy))
        self._revert_patched(rollout, cause)
        # force_rollback needs CANARY/ACTIVE; anything else is already
        # stock (never-patched, rejected, or rolled back by the member's
        # own recovery) — the fleet is uniformly stock either way.
        rollout.halt_cause = cause
        rollout.state = FleetRolloutState.UNWOUND
        self._journal({"event": "unwound", "rollout": plan.policy, "cause": cause})
        return rollout

    def _state_of(self, kernel: str, policy: str) -> str:
        try:
            member = self._reach(kernel, "status")
        except MemberUnreachable as exc:
            return f"UNREACHABLE: {exc}"
        record = member.daemon.records.get(policy)
        return record.state.name if record is not None else "ABSENT"

    # ------------------------------------------------------------------
    def _journal(self, entry: Dict[str, object]) -> None:
        """Best-effort by design (see module docstring): losing an entry
        can only downgrade resume into unwind."""
        if self.journal is None:
            return
        self._seq += 1
        append_best_effort(self.journal, {"kind": "fleet", "seq": self._seq, **entry})
