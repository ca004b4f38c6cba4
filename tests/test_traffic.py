"""The traffic layer: arrivals, phases, tenants, traces, and replay.

The load layer's contract is *byte-level* determinism: a trace is a
pure function of (schedule, arrivals, tenants, seed), and reproducing
a rollout verdict requires reproducing the load that produced it.  The
property tests here assert exactly that — same seed ⇒ byte-identical
JSONL — across arrival models, schedule shapes, and tenant mixes.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    CHAOS_TRAFFIC_SITES,
    FaultPlan,
    SITE_TRAFFIC_PHASE_SHIFT,
    injected,
    sample_plan,
)
from repro.kernel.core import Kernel
from repro.locks import ShflLock
from repro.sim import Topology
from repro.traffic import (
    ClosedLoopProcess,
    LockBinding,
    Phase,
    PhaseSchedule,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
    TraceRunner,
)

TOPO = Topology(sockets=2, cores_per_socket=4)

TENANTS = TenantSet(
    [
        Tenant("web", 3.0, [("shard0", 2.0), ("shard1", 1.0)]),
        Tenant("batch", 1.0, [("shard1", 1.0)]),
    ]
)


def _bursty(seed=7, rate=150.0, scale=6.0):
    schedule = PhaseSchedule.burst(800_000, 400_000, 300_000, burst_scale=scale)
    return TraceGenerator(schedule, PoissonProcess(rate), TENANTS, seed=seed)


class TestPhaseSchedule:
    def test_boundaries_and_lookup(self):
        schedule = PhaseSchedule.burst(1_000, 500, 250, burst_scale=4.0)
        assert schedule.total_ns == 1_750
        starts = [start for start, _ in schedule.boundaries()]
        assert starts == [0, 1_000, 1_500]
        assert schedule.phase_at(0).name == "pre"
        assert schedule.phase_at(1_200).name == "burst"
        assert schedule.phase_at(9_999).name == "post"  # clamps to last

    def test_diurnal_ramps_up_then_down(self):
        schedule = PhaseSchedule.diurnal(8_000, steps=8, trough_scale=0.2)
        scales = [p.rate_scale for p in schedule]
        assert scales[0] < scales[3]  # ramp up
        assert scales[4] > scales[7]  # ramp down
        assert max(scales) <= 1.0 and min(scales) >= 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            Phase("x", 0)
        with pytest.raises(ValueError):
            Phase("x", 100, rate_scale=-1)
        with pytest.raises(ValueError):
            PhaseSchedule([])
        with pytest.raises(ValueError):
            PhaseSchedule.diurnal(8_000, steps=1)


class TestArrivals:
    def test_poisson_times_sorted_and_bounded(self):
        import random

        times = PoissonProcess(100.0).times(random.Random(3), 1_000, 500_000)
        assert times == sorted(times)
        assert all(1_000 <= t < 500_000 for t in times)
        assert len(times) > 10

    def test_poisson_rate_scale(self):
        import random

        lo = PoissonProcess(100.0).times(random.Random(3), 0, 1_000_000, 1.0)
        hi = PoissonProcess(100.0).times(random.Random(3), 0, 1_000_000, 5.0)
        assert len(hi) > 3 * len(lo)
        assert PoissonProcess(100.0).times(random.Random(3), 0, 1_000_000, 0.0) == []

    def test_closed_loop_self_limits(self):
        import random

        proc = ClosedLoopProcess(clients=4, think_ns=50_000)
        times = proc.times(random.Random(3), 0, 1_000_000)
        assert times == sorted(times)
        # A 4-client pool can't produce more than ~clients * window/think
        # arrivals no matter what: the closed-loop ceiling.
        assert len(times) < 4 * (1_000_000 // 50_000) * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(0)
        with pytest.raises(ValueError):
            ClosedLoopProcess(0, 1_000)


class TestTenants:
    def test_weighted_assignment_tracks_weights(self):
        import random

        rng = random.Random(11)
        counts = {"web": 0, "batch": 0}
        for _ in range(2_000):
            tenant, op = TENANTS.assign(rng)
            counts[tenant] += 1
            assert op in ("shard0", "shard1")
        assert counts["web"] > 2 * counts["batch"]

    def test_op_keys(self):
        assert TENANTS.op_keys() == ("shard0", "shard1")

    def test_validation(self):
        with pytest.raises(ValueError):
            Tenant("t", 0.0, [("a", 1.0)])
        with pytest.raises(ValueError):
            Tenant("t", 1.0, [])
        with pytest.raises(ValueError):
            TenantSet([])
        with pytest.raises(ValueError):
            TenantSet([Tenant("a", 1, [("x", 1)]), Tenant("a", 1, [("x", 1)])])


class TestTraceDeterminism:
    def test_same_seed_byte_identical(self):
        gen = _bursty(seed=9)
        assert gen.generate().to_jsonl() == gen.generate().to_jsonl()

    def test_different_seeds_differ(self):
        assert _bursty(seed=1).generate().to_jsonl() != _bursty(seed=2).generate().to_jsonl()

    def test_events_sorted_with_phase_attribution(self):
        trace = _bursty().generate()
        times = [ev.time_ns for ev in trace]
        assert times == sorted(times)
        schedule = PhaseSchedule.burst(800_000, 400_000, 300_000, burst_scale=6.0)
        for ev in trace:
            assert schedule.phase_at(ev.time_ns).name == ev.phase

    def test_burst_phase_is_denser(self):
        trace = _bursty(scale=6.0).generate()
        counts = trace.counts_by_phase()
        # burst covers half the pre window but at 6x the rate.
        assert counts["burst"] > 2 * counts["pre"]

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=5.0, max_value=300.0),
        shape=st.sampled_from(["steady", "burst", "diurnal"]),
        closed=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_same_seed_same_bytes(self, seed, rate, shape, closed):
        if shape == "steady":
            schedule = PhaseSchedule.steady(600_000)
        elif shape == "burst":
            schedule = PhaseSchedule.burst(300_000, 150_000, 150_000, burst_scale=5.0)
        else:
            schedule = PhaseSchedule.diurnal(600_000, steps=4)
        if closed:
            arrivals = ClosedLoopProcess(clients=6, think_ns=40_000)
        else:
            arrivals = PoissonProcess(rate)
        gen = TraceGenerator(schedule, arrivals, TENANTS, seed=seed)
        a, b = gen.generate(), gen.generate()
        assert a.to_jsonl() == b.to_jsonl()
        # Arrival times, tenant assignment, and phase boundaries all match.
        assert [ev.time_ns for ev in a] == [ev.time_ns for ev in b]
        assert [ev.tenant for ev in a] == [ev.tenant for ev in b]
        assert a.phase_names() == b.phase_names()


BINDINGS = {
    "shard0": LockBinding("svc.shard0.lock", cs_ns=500),
    "shard1": LockBinding("svc.shard1.lock", cs_ns=500),
}


def _kernel(seed=1):
    kernel = Kernel(TOPO, seed=seed)
    kernel.add_lock("svc.shard0.lock", ShflLock(kernel.engine, name="s0"))
    kernel.add_lock("svc.shard1.lock", ShflLock(kernel.engine, name="s1"))
    return kernel


class TestTraceRunner:
    def test_replay_completes_every_request(self):
        trace = _bursty().generate()
        runner = TraceRunner(trace, BINDINGS)
        kernel = _kernel()
        installed = runner.install(kernel, tag="k0")
        assert installed == len(trace)
        kernel.run(until=trace.total_ns + 3_000_000)
        for phase in trace.phase_names():
            stats = runner.phase_stats(phase)
            assert stats.completions == stats.arrivals

    def test_burst_phase_waits_longer(self):
        trace = _bursty(scale=8.0).generate()
        runner = TraceRunner(trace, BINDINGS)
        kernel = _kernel()
        runner.install(kernel, tag="k0")
        kernel.run(until=trace.total_ns + 3_000_000)
        assert (
            runner.phase_stats("burst").wait_p99()
            > 2 * runner.phase_stats("pre").wait_p99()
        )

    def test_install_tracks_at_most_three_objects_per_request(self):
        """A pending request holds its task, the task's lock list and its
        arrivals-lane entry; the request body is shared per (op, phase)."""
        schedule = PhaseSchedule.steady(1_000_000)
        trace = TraceGenerator(schedule, PoissonProcess(1000.0), TENANTS, seed=3).generate()
        runner = TraceRunner(trace, BINDINGS)
        kernel = _kernel()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            runner.install(kernel, tag="k0")
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(trace) > 900
        assert added <= 3 * len(trace) + 64

    def test_unbound_op_rejected(self):
        trace = _bursty().generate()
        with pytest.raises(KeyError):
            TraceRunner(trace, {"shard0": BINDINGS["shard0"]})

    def test_replay_deterministic(self):
        def waits():
            trace = _bursty().generate()
            runner = TraceRunner(trace, BINDINGS)
            kernel = _kernel(seed=4)
            runner.install(kernel, tag="k0")
            kernel.run(until=trace.total_ns + 3_000_000)
            return [
                (phase, runner.phase_stats(phase).wait_p99())
                for phase in trace.phase_names()
            ]

        assert waits() == waits()

    def test_report_lists_phases(self):
        trace = _bursty().generate()
        runner = TraceRunner(trace, BINDINGS)
        kernel = _kernel()
        runner.install(kernel, tag="k0")
        kernel.run(until=trace.total_ns + 3_000_000)
        text = runner.report()
        for phase in ("pre", "burst", "post"):
            assert phase in text


class TestPhaseShiftFault:
    def test_stall_shifts_phase_earlier(self):
        trace = _bursty().generate()
        shift = 300_000
        plan = FaultPlan(seed=1)
        plan.stall(SITE_TRAFFIC_PHASE_SHIFT, delay_ns=shift, times=1)
        kernel = _kernel()
        runner = TraceRunner(trace, BINDINGS)
        with injected(plan):
            runner.install(kernel, tag="k0")
        # The first phase consulted ("pre") absorbed the one-shot rule:
        # its events moved `shift` ns earlier (clamped at the install
        # instant), so the earliest spawn sits at t=0 instead of the
        # first Poisson arrival.
        first = min(t.spawn_time for t in kernel.engine.tasks)
        unshifted = _kernel()
        TraceRunner(trace, BINDINGS).install(unshifted, tag="k0")
        first_unshifted = min(t.spawn_time for t in unshifted.engine.tasks)
        assert first < first_unshifted

    def test_burst_can_land_mid_bake(self):
        # Target the burst phase specifically: pre/post rules exhausted
        # by `after`, so the burst arrives 300us early.
        trace = _bursty().generate()
        shift = 300_000
        plan = FaultPlan(seed=1)
        plan.stall(SITE_TRAFFIC_PHASE_SHIFT, delay_ns=shift, times=1, after=1)
        kernel = _kernel()
        runner = TraceRunner(trace, BINDINGS)
        with injected(plan):
            runner.install(kernel, tag="k0")
        burst_starts = [
            t.spawn_time
            for t in kernel.engine.tasks
            if "req" in t.name and trace.events[int(t.name.split("req")[1])].phase == "burst"
        ]
        assert min(burst_starts) < 800_000  # earlier than the planned burst start
        kernel.run(until=trace.total_ns + 3_000_000)
        for phase in trace.phase_names():
            stats = runner.phase_stats(phase)
            assert stats.completions == stats.arrivals  # replay still completes


class TestChaosSampler:
    def test_existing_seeds_byte_identical(self):
        # The traffic rule is drawn after every other rule and gated on
        # a default-empty site list, so pre-existing chaos seeds keep
        # their exact plans.
        for seed in (3, 11, 19, 23, 31, 42):
            before = sample_plan(seed)
            after = sample_plan(seed, traffic_sites=())
            assert [repr(r) for r in before.rules] == [repr(r) for r in after.rules]

    def test_traffic_rule_only_appends(self):
        for seed in range(30):
            base = sample_plan(seed)
            with_traffic = sample_plan(seed, traffic_sites=CHAOS_TRAFFIC_SITES)
            base_reprs = [repr(r) for r in base.rules]
            traffic_reprs = [repr(r) for r in with_traffic.rules]
            assert traffic_reprs[: len(base_reprs)] == base_reprs
            extra = traffic_reprs[len(base_reprs):]
            assert len(extra) <= 1
            for r in extra:
                assert SITE_TRAFFIC_PHASE_SHIFT in r

    def test_some_seed_draws_a_traffic_rule(self):
        drawn = sum(
            len(sample_plan(seed, traffic_sites=CHAOS_TRAFFIC_SITES).rules)
            - len(sample_plan(seed).rules)
            for seed in range(30)
        )
        assert drawn > 5  # ~half the seeds should draw the stall rule
