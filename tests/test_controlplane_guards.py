"""The guard library: typed per-lock attribution, tail and fairness
oracles, composition, and pooled cross-kernel verdicts.

The load-bearing scenario is *tail blindness*: a policy that multiplies
one lock's p99 while the canary-set average stays in budget must slip
past ``SLOGuard`` and trip ``TailWaitGuard`` — with the breach naming
the lock, the metric, and observed-vs-budget.  The fleet half is the
mirror image: a regression no single member has the samples to judge
must trip the coordinator's pooled guard over the wave's summed
histograms.
"""

import os

import pytest

from repro.concord.profiler import (
    LockProfile,
    MAX_SOCKETS,
    ProfileReport,
    WAIT_BUCKETS,
)
from repro.controlplane import PolicyJournal
from repro.controlplane.guards import (
    AGGREGATE,
    AllOf,
    AnyOf,
    Breach,
    FairnessGuard,
    SLOGuard,
    TailWaitGuard,
    pool_reports,
)
from repro.fleet import FleetCoordinator, FleetManager, FleetRolloutState
from repro.fleet.coordinator import FleetVerdict
from repro.fleet.planner import FleetPlan, WaveSpec
from repro.scenarios import tail_spike_submission

from tests._fleet_util import add_member


def prof(
    name,
    acquired=100,
    avg_wait=1_000.0,
    avg_hold=500.0,
    hist=None,
    sockets=None,
):
    hist = tuple(hist or ())
    hist += (0,) * (WAIT_BUCKETS - len(hist))
    sockets = tuple(sockets or ())
    sockets += (0,) * (MAX_SOCKETS - len(sockets))
    return LockProfile(
        lock_name=name,
        attempts=acquired,
        contended=sum(hist),
        acquired=acquired,
        wait_total_ns=int(avg_wait * acquired),
        hold_total_ns=int(avg_hold * acquired),
        releases=acquired,
        wait_histogram=hist,
        per_socket_acquired=sockets,
    )


def report(*profiles, started=0, stopped=1_000_000):
    return ProfileReport(list(profiles), started, stopped)


class TestBreachAttribution:
    def test_breach_names_lock_metric_and_budget(self):
        breach = Breach("svc.a.lock", "p99_wait_ns", 1_000.0, 3_100.0, 0.5)
        text = breach.describe()
        assert "svc.a.lock" in text
        assert "p99 wait regressed" in text
        assert "+210%" in text
        assert "budget +50%" in text
        assert str(breach) == text

    def test_aggregate_breach_keeps_legacy_phrase(self):
        text = Breach(AGGREGATE, "avg_wait_ns", 1_000.0, 1_500.0, 0.2).describe()
        assert "canary locks" in text
        assert "avg wait regressed" in text

    def test_pooled_breach_names_kernels(self):
        breach = Breach(
            "svc.a.lock", "p99_wait_ns", 1_000.0, 3_000.0, 0.5, kernels=("k0", "k1")
        )
        assert "[pooled: k0, k1]" in breach.describe()


class TestSLOGuardBackCompat:
    def test_aggregate_breach_string_is_iterable_and_matches_legacy_grep(self):
        baseline = report(prof("svc.a.lock", avg_wait=1_000.0))
        canary = report(prof("svc.a.lock", avg_wait=2_000.0))
        verdict = SLOGuard(max_avg_wait_regression=0.20).evaluate(baseline, canary)
        assert not verdict.ok and verdict.ready
        assert any("avg wait regressed" in str(b) for b in verdict.attributed)
        assert verdict.attributed[0].lock_name == AGGREGATE
        assert verdict.attributed[0].metric == "avg_wait_ns"

    def test_hold_floor_is_separate_from_wait_floor(self):
        # Baseline holds average 10ns; canary 30ns (3x).  The old code
        # clamped the hold baseline with the *wait* floor (50ns), which
        # swallowed the regression entirely.
        baseline = report(prof("svc.a.lock", avg_wait=1_000.0, avg_hold=10.0))
        canary = report(prof("svc.a.lock", avg_wait=1_000.0, avg_hold=30.0))
        guard = SLOGuard(
            max_avg_wait_regression=5.0,
            max_avg_hold_regression=0.5,
            wait_floor_ns=50.0,
            hold_floor_ns=5.0,
        )
        verdict = guard.evaluate(baseline, canary)
        assert not verdict.ok
        assert verdict.attributed[0].metric == "avg_hold_ns"

    def test_hold_floor_defaults_to_wait_floor(self):
        guard = SLOGuard(wait_floor_ns=80.0)
        assert guard.hold_floor_ns == 80.0
        assert SLOGuard(wait_floor_ns=80.0, hold_floor_ns=10.0).hold_floor_ns == 10.0


class TestVerdictReadinessEdges:
    def test_exactly_min_acquisitions_is_ready(self):
        baseline = report(prof("svc.a.lock", acquired=20, avg_wait=1_000.0))
        canary = report(prof("svc.a.lock", acquired=20, avg_wait=1_000.0))
        guard = SLOGuard(min_acquisitions=20)
        assert guard.evaluate(baseline, canary).ready
        one_short = report(prof("svc.a.lock", acquired=19, avg_wait=1_000.0))
        assert not guard.evaluate(baseline, one_short).ready

    def test_empty_delta_set_defers(self):
        baseline = report(prof("svc.a.lock"))
        verdict = SLOGuard(min_acquisitions=0).evaluate(baseline, report())
        assert verdict.ok and not verdict.ready
        assert verdict.deltas == []

    def test_canary_lock_absent_from_baseline_is_surfaced(self):
        # A selector typo used to be silently skipped — and a canary set
        # judged against nothing would read as "within budget".
        baseline = report(prof("svc.a.lock"))
        canary = report(prof("svc.a.lock"), prof("svc.typo.lock"))
        verdict = SLOGuard().evaluate(baseline, canary)
        assert verdict.missing == ["svc.typo.lock"]
        assert "svc.typo.lock" in verdict.describe()
        nothing = SLOGuard().evaluate(baseline, report(prof("svc.typo.lock")))
        assert not nothing.ready and nothing.missing == ["svc.typo.lock"]
        assert "missing from the baseline" in nothing.describe()


class TestTailWaitGuard:
    def baseline(self):
        # Both locks: all waits in [1024, 2048).
        return report(
            prof("svc.a.lock", acquired=200, hist=[0] * 10 + [200]),
            prof("svc.b.lock", acquired=200, hist=[0] * 10 + [200]),
        )

    def spiked(self):
        # svc.a.lock: 2% of waits jump two buckets; the mean barely
        # moves, the p99 lands in [4096, 8192).
        return report(
            prof(
                "svc.a.lock",
                acquired=200,
                avg_wait=1_100.0,
                hist=[0] * 10 + [196, 0, 4],
            ),
            prof("svc.b.lock", acquired=200, hist=[0] * 10 + [200]),
        )

    def test_trips_on_one_lock_tail_with_attribution(self):
        verdict = TailWaitGuard(max_tail_regression=0.5).evaluate(
            self.baseline(), self.spiked()
        )
        assert verdict.ready and not verdict.ok
        assert len(verdict.attributed) == 1
        breach = verdict.attributed[0]
        assert breach.lock_name == "svc.a.lock"
        assert breach.metric == "p99_wait_ns"
        assert breach.observed > breach.baseline * 1.5
        assert breach.budget == 0.5

    def test_avg_guard_is_blind_to_the_same_reports(self):
        verdict = SLOGuard(max_avg_wait_regression=0.20).evaluate(
            self.baseline(), self.spiked()
        )
        assert verdict.ready and verdict.ok

    def test_quiet_locks_are_skipped(self):
        baseline = report(
            prof("svc.a.lock", acquired=100, hist=[0] * 10 + [100]),
            prof("svc.b.lock", acquired=3, hist=[3]),
        )
        canary = report(
            prof("svc.a.lock", acquired=100, hist=[0] * 10 + [100]),
            # 3 samples, wildly regressed — below MIN_LOCK_ACQUISITIONS (5).
            prof("svc.b.lock", acquired=3, hist=[0] * 15 + [3]),
        )
        verdict = TailWaitGuard().evaluate(baseline, canary)
        assert verdict.ok

    def test_metric_names_track_the_quantile(self):
        assert TailWaitGuard(quantile=0.99).metric == "p99_wait_ns"
        assert TailWaitGuard(quantile=0.5).metric == "p50_wait_ns"


class TestFairnessGuard:
    def test_trips_when_one_socket_starves(self):
        baseline = report(
            prof("svc.a.lock", acquired=100, hist=[100], sockets=[50, 50])
        )
        canary = report(
            prof("svc.a.lock", acquired=100, hist=[100], sockets=[95, 5])
        )
        verdict = FairnessGuard(max_skew_increase=0.25).evaluate(baseline, canary)
        assert verdict.ready and not verdict.ok
        breach = verdict.attributed[0]
        assert breach.metric == "socket_skew"
        assert breach.lock_name == "svc.a.lock"
        # 95% of 2 sockets -> imbalance 1.9 vs balanced 1.0.
        assert breach.observed == pytest.approx(1.9)
        assert breach.baseline == pytest.approx(1.0)

    def test_untouched_sockets_do_not_count_as_starved(self):
        # The workload only ever ran on socket 0: nothing regressed.
        baseline = report(prof("svc.a.lock", acquired=50, hist=[50], sockets=[50]))
        canary = report(prof("svc.a.lock", acquired=50, hist=[50], sockets=[50]))
        verdict = FairnessGuard().evaluate(baseline, canary)
        assert verdict.ok


class TestComposition:
    def trip_tail(self):
        baseline = report(prof("svc.a.lock", acquired=100, hist=[0] * 10 + [100]))
        canary = report(
            prof("svc.a.lock", acquired=100, avg_wait=1_100.0, hist=[0] * 10 + [97, 0, 3])
        )
        return baseline, canary

    def test_all_of_trips_when_any_member_trips(self):
        baseline, canary = self.trip_tail()
        guard = AllOf(SLOGuard(max_avg_wait_regression=0.5), TailWaitGuard())
        verdict = guard.evaluate(baseline, canary)
        assert verdict.ready and not verdict.ok
        assert verdict.attributed[0].metric == "p99_wait_ns"

    def test_any_of_passes_when_one_member_passes(self):
        baseline, canary = self.trip_tail()
        guard = AnyOf(SLOGuard(max_avg_wait_regression=0.5), TailWaitGuard())
        assert guard.evaluate(baseline, canary).ok

    def test_cold_members_abstain(self):
        baseline, canary = self.trip_tail()
        guard = AllOf(SLOGuard(min_acquisitions=10**9), TailWaitGuard())
        verdict = guard.evaluate(baseline, canary)
        # The cold SLO guard must not veto the ready tail breach.
        assert verdict.ready and not verdict.ok

    def test_all_cold_defers(self):
        baseline, canary = self.trip_tail()
        guard = AllOf(
            SLOGuard(min_acquisitions=10**9), TailWaitGuard(min_acquisitions=10**9)
        )
        verdict = guard.evaluate(baseline, canary)
        assert verdict.ok and not verdict.ready

    def test_empty_composition_is_rejected(self):
        with pytest.raises(ValueError):
            AllOf()
        with pytest.raises(ValueError):
            AnyOf()


class TestPoolReports:
    def test_pools_sum_counters_histograms_and_sockets(self):
        a = report(
            prof("svc.a.lock", acquired=10, hist=[0, 5], sockets=[6, 4]),
            started=100,
            stopped=200,
        )
        b = report(
            prof("svc.a.lock", acquired=15, hist=[2, 3], sockets=[5, 10]),
            prof("svc.b.lock", acquired=7),
            started=50,
            stopped=150,
        )
        pooled = pool_reports([a, b])
        merged = pooled.by_name("svc.a.lock")
        assert merged.acquired == 25
        assert merged.wait_histogram[:2] == (2, 8)
        assert merged.per_socket_acquired[:2] == (11, 14)
        assert pooled.by_name("svc.b.lock").acquired == 7
        assert pooled.started_ns == 50 and pooled.stopped_ns == 200

    def test_pooling_one_report_is_the_identity(self):
        # A single-kernel adaptation window is the pooled window of one.
        alone = report(
            prof("svc.a.lock", acquired=10, hist=[0, 5], sockets=[6, 4]),
            prof("svc.b.lock", acquired=7, avg_wait=250.0, hist=[3, 0, 1], sockets=[0, 7]),
            started=100,
            stopped=200,
        )
        pooled = pool_reports([alone])
        assert [p.lock_name for p in pooled.profiles] == ["svc.a.lock", "svc.b.lock"]
        for mine, theirs in zip(pooled.profiles, alone.profiles):
            assert mine == theirs  # every counter, histogram and socket count
        assert (pooled.started_ns, pooled.stopped_ns) == (100, 200)

    def test_pooled_counts_cross_readiness_no_member_reaches(self):
        guard = TailWaitGuard(min_acquisitions=30, max_tail_regression=0.5)
        baselines, canaries = [], []
        for _ in range(3):
            baselines.append(
                report(prof("svc.a.lock", acquired=15, hist=[0] * 10 + [15]))
            )
            canaries.append(
                report(
                    prof(
                        "svc.a.lock",
                        acquired=15,
                        avg_wait=1_200.0,
                        hist=[0] * 10 + [14, 0, 1],
                    )
                )
            )
        for base, canary in zip(baselines, canaries):
            assert not guard.evaluate(base, canary).ready  # each member defers
        pooled = guard.evaluate(pool_reports(baselines), pool_reports(canaries))
        assert pooled.ready and not pooled.ok
        assert pooled.attributed[0].lock_name == "svc.a.lock"


class TestFleetVerdictPooling:
    def test_pooled_breach_fails_both_modes(self):
        breach = Breach("svc.a.lock", "p99_wait_ns", 1_000.0, 3_000.0, 0.5, ("k0",))
        any_mode = FleetVerdict("any-breach", 1.0, ["k0", "k1"], [], pooled=(breach,))
        quorum = FleetVerdict("quorum", 0.5, ["k0", "k1", "k2"], [], pooled=(breach,))
        assert not any_mode.ok and not quorum.ok
        assert "pooled breach" in any_mode.describe()
        assert "svc.a.lock" in any_mode.describe()
        # Without the pooled breach both verdicts pass.
        assert FleetVerdict("any-breach", 1.0, ["k0"], []).ok
        assert FleetVerdict("quorum", 0.5, ["k0", "k1", "k2"], []).ok


class TestPooledFleetRollout:
    def test_wave_halts_on_pooled_evidence_no_member_can_judge(self, tmp_path):
        fleet = FleetManager()
        for index, name in enumerate(("k0", "k1", "k2")):
            # Per-member guards never reach readiness: each daemon
            # promotes on verifier trust, only the pooled wave evidence
            # can catch the regression.
            add_member(
                fleet,
                name,
                locks=2,
                seed=21 + index,
                tasks_per_lock=2,
                guard=SLOGuard(min_acquisitions=10**9),
                journal=PolicyJournal(os.path.join(tmp_path, f"{name}.jsonl")),
            )
        coordinator = FleetCoordinator(
            fleet,
            journal=PolicyJournal(os.path.join(tmp_path, "fleet.jsonl")),
            pooled_guard=TailWaitGuard(max_tail_regression=0.5),
        )
        plan = FleetPlan(
            "tail-spike",
            [WaveSpec(index=0, kernels=["k0", "k1", "k2"], canary=True, bake_ns=100_000)],
            canary_locks={
                name: ["svc.shard0.lock", "svc.shard1.lock"]
                for name in ("k0", "k1", "k2")
            },
        )
        result = coordinator.execute(
            plan,
            lambda member: tail_spike_submission(
                member.kernel.lock_id_by_name("svc.shard0.lock")
            ),
            baseline_ns=500_000,
            canary_ns=1_000_000,
            check_every_ns=250_000,
        )

        assert result.state is FleetRolloutState.HALTED
        assert "pooled breach" in result.halt_cause
        assert "svc.shard0.lock" in result.halt_cause
        for name in ("k0", "k1", "k2"):
            assert name in result.halt_cause
        # Halt converged the whole wave back to stock.
        for member in fleet.members():
            record = member.daemon.records.get("tail-spike")
            assert record is not None and not record.live
            assert "tail-spike" not in member.concord.policies
        entries = [
            e
            for e in coordinator.journal.entries()
            if e.get("event") == "pooled-breach"
        ]
        assert entries and entries[0]["lock"] == "svc.shard0.lock"
        assert entries[0]["kernels"] == ["k0", "k1", "k2"]
        assert entries[0]["metric"] == "p99_wait_ns"
