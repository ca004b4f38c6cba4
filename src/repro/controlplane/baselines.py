"""Learned per-lock guard baselines: EWMA + variance over profiler windows.

Every guard so far judges a canary window against a *paired* baseline
window with hand-tuned budgets — fine for an operator-driven rollout,
useless for a control plane that should know what "normal" looks like
for each lock across days of windows.  :class:`LearnedBaseline`
accumulates exponentially-weighted mean and variance of the wait/hold/
p99 statistics from successive :class:`ProfileReport` snapshots, and
:class:`BaselineGuard` turns them into budgets (``mean + k·σ``).

The guard starts in **dry-run** mode: it evaluates every canary window
against the learned budgets and *attributes* would-be breaches (they
are journaled with the transition like any other verdict) but never
fails the verdict — the calibration phase the old guard-calibration
item asked for.  Once an operator trusts the learned budgets,
``dry_run=False`` makes them enforcing.

State is serialized into the policy journal (``kind: "baseline"``)
after every observation, so ``Concordd.recover()`` restores the learned
state with everything else; compaction keeps only the newest entry
(each entry carries the full state, so last-wins is replay-equivalent).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..concord.profiler import LockProfile, ProfileReport
from .guards import Breach, Guard, GuardVerdict, _lock_deltas

__all__ = ["BaselineGuard", "LearnedBaseline", "MetricBaseline", "metric_value"]

#: The statistics a baseline learns per lock.
BASELINE_METRICS: Tuple[str, ...] = ("avg_wait_ns", "avg_hold_ns", "p99_wait_ns")

#: Windows with fewer acquisitions of a lock neither teach nor judge it.
MIN_ACQUIRED = 20

#: :class:`BaselineGuard` budgets: ``mean + K_SIGMA·σ``, at least
#: ``mean + FLOOR_NS``.
K_SIGMA = 3.0
FLOOR_NS = 100.0


def metric_value(profile: LockProfile, metric: str) -> float:
    """One baseline metric from a profile (p99 read from the histogram)."""
    if metric == "p99_wait_ns":
        return profile.quantile(0.99)
    return float(getattr(profile, metric))


class MetricBaseline:
    """EWMA + exponentially-weighted variance of one metric.

    The classic incremental form (West 1979): ``diff = x - mean;
    incr = alpha * diff; mean += incr; var = (1 - alpha) * (var +
    diff * incr)`` — cheap, windowless, and forgets old regimes at a
    rate the operator controls through ``alpha``.
    """

    __slots__ = ("alpha", "mean", "var", "samples")

    def __init__(self, alpha: float, mean: float = 0.0, var: float = 0.0, samples: int = 0) -> None:
        self.alpha = alpha
        self.mean = mean
        self.var = var
        self.samples = samples

    def update(self, value: float) -> None:
        self.samples += 1
        if self.samples == 1:
            self.mean = value
            self.var = 0.0
            return
        diff = value - self.mean
        incr = self.alpha * diff
        self.mean += incr
        self.var = (1.0 - self.alpha) * (self.var + diff * incr)

    @property
    def std(self) -> float:
        return math.sqrt(max(self.var, 0.0))

    def budget(self, k_sigma: float, floor_ns: float = 0.0) -> float:
        """The learned ceiling: ``mean + k·σ``, floored so a metric that
        has only ever been ~0 does not turn into a zero-tolerance gate."""
        return max(self.mean + k_sigma * self.std, self.mean + floor_ns)

    def to_entry(self) -> List[float]:
        return [self.mean, self.var, self.samples]

    @classmethod
    def from_entry(cls, alpha: float, entry: Sequence[float]) -> "MetricBaseline":
        mean, var, samples = entry
        return cls(alpha, mean=float(mean), var=float(var), samples=int(samples))


class LearnedBaseline:
    """Per-lock learned baselines over :data:`BASELINE_METRICS`.

    Feed it every profiler window you trust (:meth:`observe`); ask it
    for budgets (:meth:`budget`); serialize the whole state into one
    JSON-safe dict (:meth:`serialize` / :meth:`load`) for journaling.
    """

    metrics = BASELINE_METRICS

    def __init__(self, alpha: float = 0.3, min_samples: int = 3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.min_samples = min_samples
        self._locks: Dict[str, Dict[str, MetricBaseline]] = {}

    def observe(self, report: ProfileReport) -> int:
        """Fold one window in; returns how many locks were updated.

        Windows with too few acquisitions for a lock are skipped for
        that lock — cold canary slices would otherwise drag the learned
        mean toward zero.
        """
        updated = 0
        for profile in report.profiles:
            if profile.acquired < MIN_ACQUIRED:
                continue
            per_metric = self._locks.setdefault(profile.lock_name, {})
            for metric in self.metrics:
                per_metric.setdefault(metric, MetricBaseline(self.alpha)).update(
                    metric_value(profile, metric)
                )
            updated += 1
        return updated

    def get(self, lock_name: str, metric: str) -> Optional[MetricBaseline]:
        return self._locks.get(lock_name, {}).get(metric)

    def ready(self, lock_name: str, metric: str) -> bool:
        state = self.get(lock_name, metric)
        return state is not None and state.samples >= self.min_samples

    def budget(self, lock_name: str, metric: str, k_sigma: float, floor_ns: float = 0.0) -> Optional[float]:
        """The learned ceiling, or ``None`` while still calibrating."""
        if not self.ready(lock_name, metric):
            return None
        return self.get(lock_name, metric).budget(k_sigma, floor_ns)

    def lock_names(self) -> List[str]:
        return sorted(self._locks)

    def serialize(self) -> Dict:
        return {
            "alpha": self.alpha,
            "locks": {
                lock: {metric: mb.to_entry() for metric, mb in per_metric.items()}
                for lock, per_metric in self._locks.items()
            },
        }

    def load(self, state: Dict) -> None:
        """Restore serialized state (journal replay). Full-state
        last-wins: each journal entry carries everything, so replaying
        only the newest entry is equivalent to replaying them all."""
        alpha = float(state.get("alpha", self.alpha))
        self._locks = {
            lock: {
                metric: MetricBaseline.from_entry(alpha, entry)
                for metric, entry in per_metric.items()
            }
            for lock, per_metric in state.get("locks", {}).items()
        }

    def describe(self) -> str:
        rows = []
        for lock in self.lock_names():
            parts = []
            for metric in self.metrics:
                mb = self.get(lock, metric)
                if mb is None:
                    continue
                parts.append(f"{metric}={mb.mean:.0f}±{mb.std:.0f} (n={mb.samples})")
            rows.append(f"{lock}: " + ", ".join(parts))
        return "\n".join(rows) if rows else "(no learned state)"


class BaselineGuard(Guard):
    """Judge the canary window against *learned* budgets.

    Unlike the paired-window guards, the baseline report is only used
    for delta bookkeeping — the judgment is ``observed > mean + k·σ``
    against :class:`LearnedBaseline` state.  In ``dry_run`` mode the
    verdict never fails: would-be breaches are attributed (and hence
    journaled with the transition) but ``ok`` stays ``True``, and
    because composite guards only merge breaches from failing verdicts,
    a dry-run member never taints an ``AllOf``.

    Locks with no learned state yet are skipped; if *nothing* could be
    judged the verdict abstains (``ready=False``), the same "cannot be
    trusted yet" semantics the SLO guards use for cold windows.
    """

    def __init__(self, baselines: LearnedBaseline, dry_run: bool = True) -> None:
        self.baselines = baselines
        self.dry_run = dry_run

    def evaluate(self, baseline: ProfileReport, canary: ProfileReport) -> GuardVerdict:
        deltas, missing = _lock_deltas(baseline, canary)
        breaches: List[Breach] = []
        judged = 0
        for profile in canary.profiles:
            if profile.acquired < MIN_ACQUIRED:
                continue
            for metric in self.baselines.metrics:
                budget = self.baselines.budget(profile.lock_name, metric, K_SIGMA, FLOOR_NS)
                if budget is None:
                    continue
                judged += 1
                observed = metric_value(profile, metric)
                if observed > budget:
                    learned = self.baselines.get(profile.lock_name, metric)
                    rel = (budget - learned.mean) / learned.mean if learned.mean else 0.0
                    breaches.append(
                        Breach(profile.lock_name, metric, learned.mean, observed, rel)
                    )
        ok = True if self.dry_run else not breaches
        return GuardVerdict(
            ok=ok, attributed=breaches, deltas=deltas, ready=judged > 0, missing=missing
        )
