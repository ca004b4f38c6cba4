"""The composable rollout-guard library: the canary's pass/fail oracles.

Figure 2(c)'s worst case — up to ~20 % overhead from the dynamic-
modification machinery alone — is the paper's own bound on acceptable
regression.  But "20 % of *what*" matters: a policy that inflates one
hot lock's p99 wait (or starves one NUMA socket, defeating ShflLock's
shuffling — the signal BRAVO and ShflLock both treat as first-class)
sails straight through an average-based bound.  This module turns the
single aggregate oracle into a family:

* :class:`SLOGuard` — the original avg-wait/avg-hold regression bound
  over the whole canary set;
* :class:`TailWaitGuard` — per-lock p99 (any quantile) wait regression
  via the profiler's log₂ wait histograms;
* :class:`FairnessGuard` — per-lock, per-socket acquisition skew vs
  baseline via the profiler's per-socket counters;
* :class:`AllOf` / :class:`AnyOf` — guard composition;
* :func:`pool_reports` — sum per-lock evidence across fleet members so
  the coordinator can judge a wave on pooled counters.

Every breach is a typed :class:`Breach` carrying per-lock attribution
(which lock, which metric, baseline vs observed vs budget, and — for
pooled fleet verdicts — which kernels), not a bare string.  A guard
never acts on its own: the rollout engine decides what a breach means
(roll back, keep watching, halt the fleet, …).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..concord.profiler import (
    LockProfile,
    MAX_SOCKETS,
    ProfileReport,
    WAIT_BUCKETS,
)

__all__ = [
    "AGGREGATE",
    "Breach",
    "Guard",
    "GuardVerdict",
    "LockDelta",
    "SLOGuard",
    "TailWaitGuard",
    "FairnessGuard",
    "AllOf",
    "AnyOf",
    "pool_reports",
]

#: ``Breach.lock_name`` of a canary-set-wide (aggregate) breach.
AGGREGATE = "*"

#: Per-lock guards skip locks with fewer canary acquisitions than this
#: (one lucky wait must not decide a tail or a skew).
MIN_LOCK_ACQUISITIONS = 5

#: Total canary acquisitions below which the fairness guard defers its
#: verdict (not ready); the tail guard's default.
MIN_ACQUISITIONS = 20

#: Tail guards clamp quantile baselines up to this before the relative
#: comparison.
TAIL_FLOOR_NS = 100.0

_METRIC_PHRASES = {
    "avg_wait_ns": "avg wait regressed",
    "avg_hold_ns": "avg hold regressed",
    "socket_skew": "per-socket acquisition skew grew",
}


class Breach(NamedTuple):
    """One guard violation with full per-lock attribution.

    ``lock_name`` is :data:`AGGREGATE` for canary-set-wide breaches.
    ``baseline``/``observed`` are in the metric's own unit (ns for wait
    and hold metrics, an imbalance factor for ``socket_skew``);
    ``budget`` is the guard's threshold (relative for regressions,
    absolute for skew).  ``kernels`` names the fleet members whose
    pooled evidence produced the breach (empty for single-kernel
    verdicts).
    """

    lock_name: str
    metric: str
    baseline: float
    observed: float
    budget: float
    kernels: Tuple[str, ...] = ()

    def describe(self) -> str:
        scope = "canary locks" if self.lock_name == AGGREGATE else self.lock_name
        if self.kernels:
            scope += " [pooled: " + ", ".join(self.kernels) + "]"
        phrase = _METRIC_PHRASES.get(self.metric)
        if self.metric == "socket_skew":
            return (
                f"{scope}: {phrase} {self.baseline:.2f} -> {self.observed:.2f} "
                f"(budget +{self.budget:.2f})"
            )
        if phrase is None:
            # Tail metrics are named for their quantile: p99_wait_ns.
            phrase = f"{self.metric.split('_', 1)[0]} wait regressed"
        if self.baseline:
            rel = (self.observed - self.baseline) / self.baseline
            moved = f"{rel:+.0%}"
        else:
            moved = "from a zero baseline"
        return (
            f"{scope}: {phrase} {moved} "
            f"({self.baseline:.0f}ns -> {self.observed:.0f}ns, "
            f"budget {self.budget:+.0%})"
        )

    def __str__(self) -> str:
        return self.describe()

    def journal_fields(self) -> Dict[str, object]:
        """The breach as journaled: a daemon transition's ``breaches``
        and the fleet's ``pooled-breach`` events."""
        return {
            "lock": self.lock_name,
            "metric": self.metric,
            "baseline": self.baseline,
            "observed": self.observed,
            "budget": self.budget,
            "kernels": list(self.kernels),
        }


class LockDelta(NamedTuple):
    """Baseline vs canary aggregates for one lock."""

    lock_name: str
    baseline_avg_wait_ns: float
    canary_avg_wait_ns: float
    baseline_avg_hold_ns: float
    canary_avg_hold_ns: float
    canary_acquired: int


class GuardVerdict:
    """A guard's decision plus everything needed to explain it.

    :attr:`attributed` holds the typed :class:`Breach` objects (their
    ``str`` is the human-readable text).  ``missing`` names canary locks
    that had no baseline counterpart — they cannot be judged, and
    silently dropping them would let a selector typo pass as "within
    budget".
    """

    def __init__(
        self,
        ok: bool,
        attributed: Iterable[Breach],
        deltas: List[LockDelta],
        ready: bool,
        missing: Optional[List[str]] = None,
    ) -> None:
        self.ok = ok
        #: typed per-lock attribution of every breach
        self.attributed: List[Breach] = list(attributed)
        self.deltas = deltas
        #: enough samples to be trusted? (mid-run snapshots start cold)
        self.ready = ready
        #: canary locks absent from the baseline report.
        self.missing: List[str] = list(missing or [])

    def describe(self) -> str:
        note = (
            f" ({len(self.missing)} canary lock(s) missing from the "
            f"baseline: {', '.join(self.missing)})"
            if self.missing
            else ""
        )
        if not self.ready:
            return "slo: insufficient canary samples, verdict deferred" + note
        if self.ok:
            return "slo: within budget" + note
        return "slo breach: " + "; ".join(str(b) for b in self.attributed) + note

    def __repr__(self) -> str:
        return (
            f"GuardVerdict(ok={self.ok}, ready={self.ready}, "
            f"breaches={len(self.attributed)})"
        )


def _lock_deltas(
    baseline: ProfileReport, canary: ProfileReport
) -> Tuple[List[LockDelta], List[str]]:
    """Per-lock aggregates plus the canary locks the baseline lacks."""
    deltas: List[LockDelta] = []
    missing: List[str] = []
    for profile in canary.profiles:
        before = baseline.by_name(profile.lock_name)
        if before is None:
            missing.append(profile.lock_name)
            continue
        deltas.append(
            LockDelta(
                lock_name=profile.lock_name,
                baseline_avg_wait_ns=before.avg_wait_ns,
                canary_avg_wait_ns=profile.avg_wait_ns,
                baseline_avg_hold_ns=before.avg_hold_ns,
                canary_avg_hold_ns=profile.avg_hold_ns,
                canary_acquired=profile.acquired,
            )
        )
    return deltas, missing


class Guard:
    """Base interface: compare two profiler reports, return a verdict."""

    def evaluate(self, baseline: ProfileReport, canary: ProfileReport) -> GuardVerdict:
        raise NotImplementedError


class SLOGuard(Guard):
    """Regression thresholds over whole-canary-set profiler averages.

    Args:
        max_avg_wait_regression: relative avg-wait-time increase across
            the canary set that trips the guard (default 0.20 — the
            paper's Fig. 2(c) worst case).
        max_avg_hold_regression: optional same-shaped bound on hold time
            (a policy that inflates critical sections — Table 1's
            hazard — trips it).
        min_acquisitions: snapshots with fewer canary-side acquisitions
            than this are "not ready" and never trip the guard.
        wait_floor_ns: wait baselines below this are clamped before the
            relative comparison (an uncontended baseline would otherwise
            turn noise into infinite regressions).
        hold_floor_ns: same clamp for the hold baseline (defaults to
            ``wait_floor_ns``; hold guards used to be silently distorted
            by the wait floor).
    """

    def __init__(
        self,
        max_avg_wait_regression: float = 0.20,
        max_avg_hold_regression: Optional[float] = None,
        min_acquisitions: int = 20,
        wait_floor_ns: float = 50.0,
        hold_floor_ns: Optional[float] = None,
    ) -> None:
        self.max_avg_wait_regression = max_avg_wait_regression
        self.max_avg_hold_regression = max_avg_hold_regression
        self.min_acquisitions = min_acquisitions
        self.wait_floor_ns = wait_floor_ns
        self.hold_floor_ns = wait_floor_ns if hold_floor_ns is None else hold_floor_ns

    # ------------------------------------------------------------------
    def evaluate(self, baseline: ProfileReport, canary: ProfileReport) -> GuardVerdict:
        """Compare aggregate canary behaviour against the baseline."""
        deltas, missing = _lock_deltas(baseline, canary)
        total_acquired = sum(d.canary_acquired for d in deltas)
        if not deltas or total_acquired < self.min_acquisitions:
            return GuardVerdict(True, [], deltas, ready=False, missing=missing)

        breaches: List[Breach] = []
        base_wait = max(
            self._avg(baseline, "wait_total_ns", "acquired"), self.wait_floor_ns
        )
        after_wait = self._avg(canary, "wait_total_ns", "acquired")
        if (after_wait - base_wait) / base_wait > self.max_avg_wait_regression:
            breaches.append(
                Breach(
                    AGGREGATE,
                    "avg_wait_ns",
                    base_wait,
                    after_wait,
                    self.max_avg_wait_regression,
                )
            )
        if self.max_avg_hold_regression is not None:
            base_hold = max(
                self._avg(baseline, "hold_total_ns", "releases"), self.hold_floor_ns
            )
            after_hold = self._avg(canary, "hold_total_ns", "releases")
            if (after_hold - base_hold) / base_hold > self.max_avg_hold_regression:
                breaches.append(
                    Breach(
                        AGGREGATE,
                        "avg_hold_ns",
                        base_hold,
                        after_hold,
                        self.max_avg_hold_regression,
                    )
                )
        return GuardVerdict(not breaches, breaches, deltas, ready=True, missing=missing)

    @staticmethod
    def _avg(report: ProfileReport, total_field: str, count_field: str) -> float:
        total = sum(getattr(p, total_field) for p in report.profiles)
        count = sum(getattr(p, count_field) for p in report.profiles)
        return total / count if count else 0.0


class TailWaitGuard(Guard):
    """Per-lock tail (default p99) wait regression over the profiler's
    log₂ wait histograms.

    This is the guard the average-based bound cannot replace: a policy
    that triples one hot lock's p99 while the canary-set average moves a
    few percent passes :class:`SLOGuard` and trips here, with the breach
    naming the lock.  Locks with fewer than
    :data:`MIN_LOCK_ACQUISITIONS` canary samples are skipped, and
    quantile baselines are clamped up to :data:`TAIL_FLOOR_NS`.

    Args:
        quantile: which tail to bound (0.99 → metric ``p99_wait_ns``).
        max_tail_regression: relative quantile increase per lock that
            trips the guard.
        min_acquisitions: total canary acquisitions below this defer the
            verdict (not ready).
    """

    def __init__(
        self,
        quantile: float = 0.99,
        max_tail_regression: float = 0.20,
        min_acquisitions: int = MIN_ACQUISITIONS,
    ) -> None:
        self.quantile = quantile
        self.max_tail_regression = max_tail_regression
        self.min_acquisitions = min_acquisitions
        self.metric = f"p{round(quantile * 100):g}_wait_ns"

    def evaluate(self, baseline: ProfileReport, canary: ProfileReport) -> GuardVerdict:
        deltas, missing = _lock_deltas(baseline, canary)
        total_acquired = sum(d.canary_acquired for d in deltas)
        if not deltas or total_acquired < self.min_acquisitions:
            return GuardVerdict(True, [], deltas, ready=False, missing=missing)
        breaches: List[Breach] = []
        for profile in canary.profiles:
            before = baseline.by_name(profile.lock_name)
            if before is None or profile.acquired < MIN_LOCK_ACQUISITIONS:
                continue
            base = max(before.quantile(self.quantile), TAIL_FLOOR_NS)
            after = profile.quantile(self.quantile)
            if (after - base) / base > self.max_tail_regression:
                breaches.append(
                    Breach(
                        profile.lock_name,
                        self.metric,
                        base,
                        after,
                        self.max_tail_regression,
                    )
                )
        return GuardVerdict(not breaches, breaches, deltas, ready=True, missing=missing)


class FairnessGuard(Guard):
    """Per-lock, per-socket acquisition skew vs baseline.

    The skew statistic is an imbalance factor: the busiest socket's
    share of acquisitions times the number of participating sockets —
    1.0 is perfectly fair, N means one of N sockets took everything
    (the starvation ShflLock's shuffling exists to prevent).  The guard
    trips when a lock's canary imbalance exceeds its baseline imbalance
    by more than ``max_skew_increase`` (absolute, since the statistic
    is already relative).
    """

    def __init__(self, max_skew_increase: float = 0.25) -> None:
        self.max_skew_increase = max_skew_increase

    @staticmethod
    def imbalance(profile: LockProfile, sockets: Iterable[int]) -> float:
        """Busiest-socket share × participating-socket count (≥ 1.0)."""
        sockets = list(sockets)
        counts = [
            profile.per_socket_acquired[s]
            if s < len(profile.per_socket_acquired)
            else 0
            for s in sockets
        ]
        total = sum(counts)
        if total <= 0 or len(sockets) <= 1:
            return 1.0
        return max(counts) / total * len(sockets)

    def evaluate(self, baseline: ProfileReport, canary: ProfileReport) -> GuardVerdict:
        deltas, missing = _lock_deltas(baseline, canary)
        total_acquired = sum(d.canary_acquired for d in deltas)
        if not deltas or total_acquired < MIN_ACQUISITIONS:
            return GuardVerdict(True, [], deltas, ready=False, missing=missing)
        breaches: List[Breach] = []
        for profile in canary.profiles:
            before = baseline.by_name(profile.lock_name)
            if before is None or profile.acquired < MIN_LOCK_ACQUISITIONS:
                continue
            # Judge only sockets that participated in either window: a
            # socket the workload never touches is not "starved".
            sockets = [
                s
                for s in range(MAX_SOCKETS)
                if (s < len(before.per_socket_acquired) and before.per_socket_acquired[s])
                or (s < len(profile.per_socket_acquired) and profile.per_socket_acquired[s])
            ]
            base = self.imbalance(before, sockets)
            after = self.imbalance(profile, sockets)
            if after - base > self.max_skew_increase:
                breaches.append(
                    Breach(
                        profile.lock_name,
                        "socket_skew",
                        base,
                        after,
                        self.max_skew_increase,
                    )
                )
        return GuardVerdict(not breaches, breaches, deltas, ready=True, missing=missing)


def _merge(verdicts: List[GuardVerdict], require_all: bool) -> GuardVerdict:
    """Combine member verdicts.

    A member that is not ready abstains: it can neither pass nor trip
    the composite.  The composite is ready once any member is — a ready
    breach must not be vetoed by a colder guard still warming up.
    """
    ready = [v for v in verdicts if v.ready]
    deltas = max((v.deltas for v in verdicts), key=len, default=[])
    missing = sorted({name for v in verdicts for name in v.missing})
    if not ready:
        return GuardVerdict(True, [], deltas, ready=False, missing=missing)
    ok = all(v.ok for v in ready) if require_all else any(v.ok for v in ready)
    breaches = [b for v in ready for b in v.attributed if not v.ok]
    return GuardVerdict(ok, breaches, deltas, ready=True, missing=missing)


class AllOf(Guard):
    """Every member guard must pass (breaches accumulate)."""

    def __init__(self, *guards: Guard) -> None:
        if not guards:
            raise ValueError("AllOf needs at least one guard")
        self.guards = list(guards)

    def evaluate(self, baseline: ProfileReport, canary: ProfileReport) -> GuardVerdict:
        return _merge([g.evaluate(baseline, canary) for g in self.guards], require_all=True)


class AnyOf(Guard):
    """At least one member guard must pass (escape hatch composition)."""

    def __init__(self, *guards: Guard) -> None:
        if not guards:
            raise ValueError("AnyOf needs at least one guard")
        self.guards = list(guards)

    def evaluate(self, baseline: ProfileReport, canary: ProfileReport) -> GuardVerdict:
        return _merge([g.evaluate(baseline, canary) for g in self.guards], require_all=False)


# ----------------------------------------------------------------------
# Fleet pooling: cross-kernel evidence
# ----------------------------------------------------------------------
def _padded_sum(a: Tuple[int, ...], b: Tuple[int, ...], width: int) -> Tuple[int, ...]:
    length = max(len(a), len(b), width if (a or b) else 0)
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(length)
    )


def _add_profiles(a: LockProfile, b: LockProfile) -> LockProfile:
    return LockProfile(
        lock_name=a.lock_name,
        attempts=a.attempts + b.attempts,
        contended=a.contended + b.contended,
        acquired=a.acquired + b.acquired,
        wait_total_ns=a.wait_total_ns + b.wait_total_ns,
        hold_total_ns=a.hold_total_ns + b.hold_total_ns,
        releases=a.releases + b.releases,
        wait_histogram=_padded_sum(a.wait_histogram, b.wait_histogram, WAIT_BUCKETS),
        per_socket_acquired=_padded_sum(
            a.per_socket_acquired, b.per_socket_acquired, MAX_SOCKETS
        ),
    )


def pool_reports(reports: Iterable[ProfileReport]) -> ProfileReport:
    """Sum per-lock counters — histograms and socket counts included —
    across fleet members' reports (locks are matched by name: sharded
    fleets run the same lock namespace on every kernel).

    A regression too small (or a window too quiet) to judge on any one
    member becomes judgeable on the pooled counters: three kernels each
    10 acquisitions short of readiness pool into a wave 20 over it.
    """
    merged: dict = {}
    started: Optional[int] = None
    stopped: Optional[int] = None
    for report in reports:
        started = report.started_ns if started is None else min(started, report.started_ns)
        stopped = report.stopped_ns if stopped is None else max(stopped, report.stopped_ns)
        for profile in report.profiles:
            current = merged.get(profile.lock_name)
            merged[profile.lock_name] = (
                profile if current is None else _add_profiles(current, profile)
            )
    profiles = [merged[name] for name in sorted(merged)]
    return ProfileReport(profiles, started or 0, stopped or 0)
