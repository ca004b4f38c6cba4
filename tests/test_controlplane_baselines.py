"""Learned guard baselines: EWMA math, serialization, dry-run guard,
and the daemon journal round-trip."""

import math

import pytest

from repro.concord.profiler import LockProfile, ProfileReport, WAIT_BUCKETS
from repro.controlplane import (
    BaselineGuard,
    LearnedBaseline,
    MetricBaseline,
    metric_value,
)


def _profile(name="svc.lock", acquired=100, avg_wait=1_000.0, avg_hold=500.0,
             p99_bucket=12):
    """A hand-built profile: all waits land in one log2 bucket so the
    histogram quantile is predictable."""
    histogram = [0] * WAIT_BUCKETS
    histogram[p99_bucket] = acquired
    return LockProfile(
        lock_name=name,
        attempts=acquired,
        contended=acquired // 2,
        acquired=acquired,
        wait_total_ns=int(avg_wait * acquired),
        hold_total_ns=int(avg_hold * acquired),
        releases=acquired,
        wait_histogram=tuple(histogram),
        per_socket_acquired=(acquired // 2, acquired - acquired // 2),
    )


def _report(profiles, duration_ns=100_000):
    return ProfileReport(list(profiles), started_ns=0, stopped_ns=duration_ns)


class TestMetricBaseline:
    def test_first_sample_sets_mean_zero_variance(self):
        mb = MetricBaseline(alpha=0.3)
        mb.update(42.0)
        assert mb.mean == 42.0
        assert mb.var == 0.0
        assert mb.samples == 1

    def test_west_recurrence_matches_hand_computation(self):
        # West (1979): diff = x - mean; incr = alpha*diff; mean += incr;
        # var = (1-alpha)*(var + diff*incr).
        alpha = 0.5
        mb = MetricBaseline(alpha=alpha)
        mean, var = 0.0, 0.0
        for i, x in enumerate((10.0, 20.0, 14.0, 30.0)):
            mb.update(x)
            if i == 0:
                mean, var = x, 0.0
            else:
                diff = x - mean
                incr = alpha * diff
                mean += incr
                var = (1 - alpha) * (var + diff * incr)
        assert mb.mean == pytest.approx(mean)
        assert mb.var == pytest.approx(var)
        assert mb.std == pytest.approx(math.sqrt(var))

    def test_constant_stream_has_zero_variance(self):
        mb = MetricBaseline(alpha=0.2)
        for _ in range(50):
            mb.update(700.0)
        assert mb.mean == pytest.approx(700.0)
        assert mb.std == pytest.approx(0.0)

    def test_budget_is_mean_plus_k_sigma_with_floor(self):
        mb = MetricBaseline(alpha=0.5)
        for x in (100.0, 120.0, 80.0, 110.0):
            mb.update(x)
        assert mb.budget(3.0) == pytest.approx(mb.mean + 3.0 * mb.std)
        # A near-zero-variance metric gets the floor instead of a
        # zero-tolerance gate.
        flat = MetricBaseline(alpha=0.5)
        for _ in range(10):
            flat.update(100.0)
        assert flat.budget(3.0, floor_ns=50.0) == pytest.approx(150.0)

    def test_entry_round_trip(self):
        mb = MetricBaseline(alpha=0.3)
        for x in (5.0, 9.0, 7.0):
            mb.update(x)
        restored = MetricBaseline.from_entry(0.3, mb.to_entry())
        assert restored.mean == pytest.approx(mb.mean)
        assert restored.var == pytest.approx(mb.var)
        assert restored.samples == mb.samples


class TestLearnedBaseline:
    def test_observe_learns_every_metric(self):
        lb = LearnedBaseline(min_samples=1)
        report = _report([_profile()])
        assert lb.observe(report) == 1
        profile = report.profiles[0]
        for metric in lb.metrics:
            state = lb.get("svc.lock", metric)
            assert state is not None
            assert state.mean == pytest.approx(metric_value(profile, metric))

    def test_cold_windows_are_skipped(self):
        lb = LearnedBaseline()
        assert lb.observe(_report([_profile(acquired=5)])) == 0
        assert lb.lock_names() == []

    def test_budget_abstains_until_min_samples(self):
        lb = LearnedBaseline(min_samples=3)
        for _ in range(2):
            lb.observe(_report([_profile()]))
        assert lb.budget("svc.lock", "avg_wait_ns", 3.0) is None
        lb.observe(_report([_profile()]))
        assert lb.budget("svc.lock", "avg_wait_ns", 3.0) is not None

    def test_serialize_load_round_trip(self):
        lb = LearnedBaseline(alpha=0.4, min_samples=1)
        for wait in (900.0, 1_100.0, 1_000.0):
            lb.observe(_report([_profile(avg_wait=wait)]))
        clone = LearnedBaseline(alpha=0.4, min_samples=1)
        clone.load(lb.serialize())
        for metric in lb.metrics:
            assert clone.get("svc.lock", metric).mean == pytest.approx(
                lb.get("svc.lock", metric).mean
            )
            assert clone.get("svc.lock", metric).samples == lb.get(
                "svc.lock", metric
            ).samples


class TestBaselineGuard:
    def _learned(self, avg_wait=1_000.0, n=5):
        lb = LearnedBaseline(min_samples=3)
        for _ in range(n):
            lb.observe(_report([_profile(avg_wait=avg_wait)]))
        return lb

    def test_dry_run_attributes_but_never_fails(self):
        guard = BaselineGuard(self._learned(), dry_run=True)
        baseline = _report([_profile()])
        hot = _report([_profile(avg_wait=50_000.0)])
        verdict = guard.evaluate(baseline, hot)
        assert verdict.ok  # dry run: breach recorded, verdict passes
        assert verdict.attributed
        assert verdict.attributed[0].metric == "avg_wait_ns"

    def test_enforcing_mode_fails_on_breach(self):
        guard = BaselineGuard(self._learned(), dry_run=False)
        verdict = guard.evaluate(
            _report([_profile()]), _report([_profile(avg_wait=50_000.0)])
        )
        assert not verdict.ok

    def test_within_budget_passes_clean(self):
        guard = BaselineGuard(self._learned(), dry_run=False)
        verdict = guard.evaluate(_report([_profile()]), _report([_profile()]))
        assert verdict.ok
        assert not verdict.attributed

    def test_abstains_with_no_learned_state(self):
        guard = BaselineGuard(LearnedBaseline(), dry_run=False)
        verdict = guard.evaluate(_report([_profile()]), _report([_profile()]))
        assert verdict.ok
        assert not verdict.ready  # nothing could be judged


class TestDaemonIntegration:
    def _world(self, tmp_path):
        from repro.concord import Concord
        from repro.controlplane import Concordd, PolicyJournal
        from repro.kernel import Kernel
        from repro.locks import MCSLock
        from repro.sim import Topology

        kernel = Kernel(Topology(sockets=2, cores_per_socket=2), seed=7)
        kernel.add_lock("svc.lock", MCSLock(kernel.engine, name="svc"))
        concord = Concord(kernel)
        journal = PolicyJournal(str(tmp_path / "journal.jsonl"))
        daemon = Concordd(
            concord,
            journal=journal,
            baselines=LearnedBaseline(min_samples=1),
        )
        return kernel, concord, daemon, journal

    def test_observe_report_journals_full_state(self, tmp_path):
        _, _, daemon, journal = self._world(tmp_path)
        assert daemon.observe_report(_report([_profile()])) == 1
        entries = [e for e in journal.entries() if e.get("kind") == "baseline"]
        assert len(entries) == 1
        assert "svc.lock" in entries[0]["state"]["locks"]

    def test_recover_restores_learned_state(self, tmp_path):
        from repro.concord import Concord
        from repro.controlplane import Concordd, PolicyJournal

        kernel, concord, daemon, journal = self._world(tmp_path)
        for wait in (900.0, 1_200.0):
            daemon.observe_report(_report([_profile(avg_wait=wait)]))
        learned_mean = daemon.baselines.get("svc.lock", "avg_wait_ns").mean

        daemon_b = Concordd(
            concord,
            journal=PolicyJournal(str(tmp_path / "journal.jsonl")),
            baselines=LearnedBaseline(min_samples=1),
        )
        daemon_b.recover()
        restored = daemon_b.baselines.get("svc.lock", "avg_wait_ns")
        assert restored is not None
        assert restored.mean == pytest.approx(learned_mean)
        assert restored.samples == 2
