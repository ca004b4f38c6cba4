"""The adaptation loop: collapse detection, self-proposed culls,
canary keep/rollback, and crash recovery."""

import pytest

from repro.concord import Concord
from repro.concord.profiler import LockProfile, ProfileReport, WAIT_BUCKETS
from repro.controlplane import (
    AdaptationLoop,
    CollapseDetector,
    Concordd,
    PolicyJournal,
    PolicyState,
    culling_impl_factory,
    default_cull_guard,
)
from repro.faults import FaultPlan, InjectedCrash, injected
from repro.faults.registry import SITE_ADAPTIVE_DETECT, SITE_ADAPTIVE_PROPOSE
from repro.kernel import Kernel
from repro.locks import MCSLock
from repro.locks.culling import CullingLock
from repro.sim import Topology
from repro.workloads.malthus import MalthusianBench


def _profile(name="svc.lock", acquired=100, avg_wait=1_000.0, avg_hold=500.0,
             p99_bucket=12):
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


class TestCollapseDetector:
    def test_healthy_windows_never_signal(self):
        detector = CollapseDetector()
        for _ in range(5):
            assert detector.observe(_report([_profile()])) == []

    def test_best_rate_window_becomes_reference(self):
        detector = CollapseDetector()
        detector.observe(_report([_profile(acquired=50)]))
        detector.observe(_report([_profile(acquired=200)]))
        detector.observe(_report([_profile(acquired=100)]))
        ref = detector.reference("svc.lock")
        assert ref.rate_per_ms == pytest.approx(2_000.0)  # 200 / 0.1ms

    def test_collapse_needs_both_blowup_and_rate_drop(self):
        # p99 blowup alone (throughput up) is just more load; a rate
        # drop alone (flat tail) is the workload quiescing.  Fresh
        # detector per case: a healthy higher-rate window would
        # otherwise become the new reference (by design).
        blowup_only = CollapseDetector()
        blowup_only.observe(_report([_profile(acquired=200, p99_bucket=10)]))
        assert blowup_only.observe(
            _report([_profile(acquired=400, p99_bucket=20)])
        ) == []  # tail blew up but throughput rose

        drop_only = CollapseDetector()
        drop_only.observe(_report([_profile(acquired=200, p99_bucket=10)]))
        assert drop_only.observe(
            _report([_profile(acquired=50, p99_bucket=10)])
        ) == []  # throughput fell but the tail is flat

        both = CollapseDetector()
        both.observe(_report([_profile(acquired=200, p99_bucket=10)]))
        signals = both.observe(
            _report([_profile(acquired=50, p99_bucket=20)])
        )
        assert len(signals) == 1
        signal = signals[0]
        assert signal.lock_name == "svc.lock"
        assert signal.p99_ns >= 3.0 * signal.ref_p99_ns
        assert signal.ref_rate_per_ms == pytest.approx(2_000.0)

    def test_collapsed_window_never_updates_reference(self):
        detector = CollapseDetector()
        detector.observe(_report([_profile(acquired=200, p99_bucket=10)]))
        detector.observe(_report([_profile(acquired=50, p99_bucket=20)]))
        ref = detector.reference("svc.lock")
        assert ref.rate_per_ms == pytest.approx(2_000.0)

    def test_suggest_cap_is_littles_law_with_floor(self):
        detector = CollapseDetector()
        detector.observe(_report([_profile(acquired=200, avg_hold=500.0)]))
        ref = detector.reference("svc.lock")
        # L = rate * hold = 2000/1e6 * 500 = 1 holder -> min_cap floor.
        assert detector.suggest_cap(ref) == 2
        # A lock legitimately holding ~3 concurrent holders caps there.
        detector2 = CollapseDetector()
        detector2.observe(
            _report([_profile(acquired=600, avg_hold=500.0)])
        )
        assert detector2.suggest_cap(detector2.reference("svc.lock")) == 3

    def test_cold_windows_are_ignored(self):
        detector = CollapseDetector()
        assert detector.observe(_report([_profile(acquired=5)])) == []
        assert detector.reference("svc.lock") is None

    def test_seed_reference_restores_journal_evidence(self):
        detector = CollapseDetector()
        detector.seed_reference(
            "svc.lock", 2_000.0, 1_500.0, avg_wait_ns=800.0, avg_hold_ns=500.0
        )
        # A still-collapsed first window fires immediately instead of
        # being learned as the baseline.
        signals = detector.observe(
            _report([_profile(acquired=50, p99_bucket=20)])
        )
        assert len(signals) == 1


def _bench_world(seed=42, journal=None, **daemon_kwargs):
    kernel = Kernel(Topology(sockets=2, cores_per_socket=4), seed=seed)
    bench = MalthusianBench()
    bench.setup(kernel)
    concord = Concord(kernel)
    daemon = Concordd(
        concord, journal=journal if journal is not None else PolicyJournal(),
        **daemon_kwargs
    )
    return kernel, bench, concord, daemon


def _spawn(kernel, bench, start, count):
    order = kernel.topology.fill_order()
    for i in range(start, start + count):
        kernel.spawn(
            lambda task, i=i: bench.worker(task, i),
            cpu=order[i],
            name=f"malthus-{i}",
        )


def _bench_loop(daemon, **overrides):
    params = dict(
        selector="bench.*",
        window_ns=400_000,
        baseline_ns=80_000,
        canary_ns=120_000,
        check_every_ns=20_000,
    )
    params.update(overrides)
    return AdaptationLoop(daemon=daemon, **params)


class TestAdaptationLoopSingleKernel:
    def test_closed_loop_detects_and_keeps_the_cull(self):
        kernel, bench, _concord, daemon = _bench_world()
        loop = _bench_loop(daemon)
        _spawn(kernel, bench, 0, 4)
        kernel.run(until=kernel.now + 100_000)
        first = loop.run_once()
        assert first.outcome == "idle"  # pre-knee window is the reference
        _spawn(kernel, bench, 4, 4)
        kernel.run(until=kernel.now + 100_000)
        decision = loop.run_once()
        assert decision.outcome == "kept"
        assert decision.policy == "cull.bench.malthus.1"
        site = kernel.locks.get("bench.malthus")
        assert isinstance(site.core.impl, CullingLock)
        assert site.core.impl.cap == 2  # Little's-law floor for a mutex
        events = [
            e["event"]
            for e in daemon.journal.entries()
            if e.get("kind") == "adaptation"
        ]
        assert events == ["collapse-detected", "cull-proposed", "cull-kept"]
        record = daemon.records[decision.policy]
        assert record.state is PolicyState.ACTIVE

    def test_kept_cull_suppresses_redetection(self):
        kernel, bench, _concord, daemon = _bench_world()
        loop = _bench_loop(daemon)
        _spawn(kernel, bench, 0, 4)
        kernel.run(until=kernel.now + 100_000)
        loop.run_once()
        _spawn(kernel, bench, 4, 4)
        kernel.run(until=kernel.now + 100_000)
        assert loop.run_once().outcome == "kept"
        # The governed lock never re-proposes (the post-cull regime is
        # slower than the pre-knee reference by design).
        for _ in range(2):
            assert loop.run_once().outcome == "idle"

    def test_over_aggressive_cap_rolls_back_and_reverts(self):
        kernel, bench, _concord, daemon = _bench_world()
        loop = _bench_loop(daemon, cap_override=1)
        _spawn(kernel, bench, 0, 4)
        kernel.run(until=kernel.now + 100_000)
        loop.run_once()
        _spawn(kernel, bench, 4, 4)
        kernel.run(until=kernel.now + 100_000)
        decision = loop.run_once()
        assert decision.outcome == "rolled-back"
        site = kernel.locks.get("bench.malthus")
        assert isinstance(site.core.impl, MCSLock)  # drained back to stock
        events = [
            e["event"]
            for e in daemon.journal.entries()
            if e.get("kind") == "adaptation"
        ]
        assert events[-1] == "cull-rolled-back"

    def test_detect_fault_skips_the_pass(self):
        kernel, bench, _concord, daemon = _bench_world()
        loop = _bench_loop(daemon)
        _spawn(kernel, bench, 0, 8)
        kernel.run(until=kernel.now + 100_000)
        plan = FaultPlan(seed=1)
        plan.fail(SITE_ADAPTIVE_DETECT, times=1)
        with injected(plan):
            decision = loop.run_once()
        assert decision.outcome == "detect-failed"
        assert isinstance(
            kernel.locks.get("bench.malthus").core.impl, MCSLock
        )

    def test_propose_fault_aborts_before_install_and_journals(self):
        kernel, bench, _concord, daemon = _bench_world()
        loop = _bench_loop(daemon)
        _spawn(kernel, bench, 0, 4)
        kernel.run(until=kernel.now + 100_000)
        loop.run_once()
        _spawn(kernel, bench, 4, 4)
        kernel.run(until=kernel.now + 100_000)
        plan = FaultPlan(seed=1)
        plan.fail(SITE_ADAPTIVE_PROPOSE, times=1)
        with injected(plan):
            decision = loop.run_once()
        assert decision.outcome == "propose-failed"
        assert isinstance(
            kernel.locks.get("bench.malthus").core.impl, MCSLock
        )
        events = [
            e["event"]
            for e in daemon.journal.entries()
            if e.get("kind") == "adaptation"
        ]
        # The aborted proposal is resolved in-line: never left open.
        assert events[-2:] == ["cull-proposed", "cull-rolled-back"]


class TestAdaptationRecovery:
    def _crash_mid_propose(self, tmp_path):
        journal_path = str(tmp_path / "adapt.jsonl")
        kernel, bench, concord, daemon = _bench_world(
            journal=PolicyJournal(journal_path)
        )
        loop = _bench_loop(daemon)
        _spawn(kernel, bench, 0, 4)
        kernel.run(until=kernel.now + 100_000)
        loop.run_once()
        _spawn(kernel, bench, 4, 4)
        kernel.run(until=kernel.now + 100_000)
        plan = FaultPlan(seed=42)
        plan.crash(SITE_ADAPTIVE_PROPOSE)
        with pytest.raises(InjectedCrash):
            with injected(plan):
                loop.run_once()
        return journal_path, kernel, concord

    def test_recover_resolves_open_proposal_as_rolled_back(self, tmp_path):
        journal_path, kernel, concord = self._crash_mid_propose(tmp_path)
        journal = PolicyJournal(journal_path)
        registry = {
            f"culling-cap{cap}": culling_impl_factory(cap) for cap in (1, 2, 4)
        }
        daemon_b = Concordd(concord, journal=journal, impl_registry=registry)
        daemon_b.recover()
        loop_b = _bench_loop(daemon_b)
        summary = loop_b.recover()
        assert summary["resolved"] == 1
        entries = [
            e for e in journal.entries() if e.get("kind") == "adaptation"
        ]
        assert entries[-1]["event"] == "cull-rolled-back"
        assert "recovered" in entries[-1]["cause"]
        # The no-unjudged-cull invariant: nothing was installed.
        assert isinstance(
            kernel.locks.get("bench.malthus").core.impl, MCSLock
        )

    def test_recover_reseeds_reference_and_loop_continues(self, tmp_path):
        journal_path, kernel, concord = self._crash_mid_propose(tmp_path)
        daemon_b = Concordd(
            concord,
            journal=PolicyJournal(journal_path),
            impl_registry={"culling-cap2": culling_impl_factory(2)},
        )
        daemon_b.recover()
        loop_b = _bench_loop(daemon_b)
        loop_b.recover()
        ref = loop_b.detector.reference("bench.malthus")
        assert ref is not None and ref.rate_per_ms > 0
        decisions = loop_b.run(passes=4)
        assert decisions[-1].outcome == "kept"
        # Sequence numbering survives the crash: a fresh policy name.
        assert decisions[-1].policy == "cull.bench.malthus.2"
        assert isinstance(
            kernel.locks.get("bench.malthus").core.impl, CullingLock
        )

    def test_recover_restores_governed_set_from_kept_culls(self, tmp_path):
        journal_path = str(tmp_path / "kept.jsonl")
        kernel, bench, concord, daemon = _bench_world(
            journal=PolicyJournal(journal_path)
        )
        loop = _bench_loop(daemon)
        _spawn(kernel, bench, 0, 4)
        kernel.run(until=kernel.now + 100_000)
        loop.run_once()
        _spawn(kernel, bench, 4, 4)
        kernel.run(until=kernel.now + 100_000)
        assert loop.run_once().outcome == "kept"

        loop_b = _bench_loop(daemon)
        summary = loop_b.recover()
        assert summary["resolved"] == 0  # the kept cull was judged
        # Replayed governance suppresses immediate re-proposal.
        assert loop_b.run_once().outcome == "idle"

    def test_recover_without_journal_is_a_noop(self):
        kernel, bench, _concord, daemon = _bench_world(journal=None)
        # A daemon always has a journal object; simulate none at the
        # loop level by pointing at an empty in-memory journal.
        loop = _bench_loop(daemon)
        assert loop.recover() == {"replayed": 0, "resolved": 0}


class TestGuardAndFactory:
    def test_culling_impl_factory_names_and_builds(self):
        kernel = Kernel(Topology(sockets=1, cores_per_socket=2), seed=1)
        site = kernel.add_lock("x", MCSLock(kernel.engine, name="x"))
        factory = culling_impl_factory(3)
        assert factory.__name__ == "culling-cap3"
        new = factory(site.core.impl)
        assert isinstance(new, CullingLock)
        assert new.cap == 3

    def test_default_guard_composes_tail_and_fairness(self):
        guard = default_cull_guard()
        names = [type(g).__name__ for g in guard.guards]
        assert names == ["TailWaitGuard", "FairnessGuard"]
