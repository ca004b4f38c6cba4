"""concordd canary rollout: promotion, SLO-guarded rollback, cleanup.

The centerpiece is rollback **under contention**: a client switches the
shard locks to a pathologically slow implementation mid-benchmark, the
SLO guard trips inside the canary window, and the livepatch layer must
return every canary lock to its pre-canary implementation (same object,
not a lookalike) without losing a single waiter.
"""

import pytest

from repro.concord import Concord
from repro.concord.policies import make_numa_policy
from repro.concord.policy import PolicySpec
from repro.controlplane import (
    Concordd,
    LifecycleError,
    PolicyState,
    PolicySubmission,
    SLOGuard,
)
from repro.kernel import Kernel
from repro.locks import ShflLock, SpinParkMutex
from repro.locks.base import HOOK_CMP_NODE
from repro.scenarios import bad_numa_submission
from repro.sim import Topology, ops
from repro.userspace import PolicyClient

RETURN_ZERO = "def f(ctx):\n    return 0\n"
SELECTOR = "svc.*.lock"


class MolassesMutex(SpinParkMutex):
    """A deliberately terrible lock: every acquisition drags the
    critical section out by 2 µs (Table 1's hazard, as an impl)."""

    def acquire(self, task):
        yield from super().acquire(task)
        yield ops.Delay(2_000)


def molasses(old):
    return MolassesMutex(old.engine, name=f"molasses.{old.name}", spin_budget_ns=0)


@pytest.fixture
def world():
    kernel = Kernel(Topology(sockets=2, cores_per_socket=4), seed=11)
    for index in range(4):
        kernel.add_lock(
            f"svc.shard{index}.lock", ShflLock(kernel.engine, name=f"shard{index}")
        )
    concord = Concord(kernel)
    daemon = Concordd(concord, guard=SLOGuard(max_avg_wait_regression=0.20))
    return kernel, concord, daemon


def hammer(kernel, stop_at, tasks_per_lock=2, cs_ns=300):
    tasks = []
    cpu = 0
    for name in kernel.locks.select_names(SELECTOR):
        site = kernel.locks.get(name)
        for _ in range(tasks_per_lock):

            def worker(task, site=site):
                task.stats["ops"] = 0
                while task.engine.now < stop_at:
                    yield from site.acquire(task)
                    yield ops.Delay(cs_ns)
                    yield from site.release(task)
                    task.stats["ops"] += 1
                    yield ops.Delay(120)

            tasks.append(kernel.spawn(worker, cpu=cpu % kernel.topology.nr_cpus))
            cpu += 1
    return tasks


class TestRollbackUnderContention:
    def test_impl_switch_reverts_and_loses_no_waiters(self, world):
        kernel, concord, daemon = world
        client = PolicyClient.connect(daemon, "ops")
        originals = {
            name: kernel.locks.get(name).core.impl
            for name in kernel.locks.select_names(SELECTOR)
        }
        tasks = hammer(kernel, stop_at=kernel.now + 500_000)

        client.submit(
            PolicySubmission(
                impl_factory=molasses, name="molasses", lock_selector=SELECTOR
            )
        )
        record = client.rollout(
            "molasses",
            baseline_ns=60_000,
            canary_ns=160_000,
            check_every_ns=20_000,
        )

        assert record.state is PolicyState.ROLLED_BACK
        assert record.verdict.ready and not record.verdict.ok
        assert any("avg wait regressed" in str(b) for b in record.verdict.attributed)
        # The guard tripped inside the canary window, not at its end.
        cause = daemon.audit.for_policy("molasses")[-1].cause
        assert "mid-benchmark" in cause

        # The canary subset really ran the bad implementation...
        assert record.canary_locks == ["svc.shard0.lock", "svc.shard1.lock"]
        assert len(record.patches) == len(record.canary_locks)

        kernel.run()  # drain the workload to quiescence

        # ...and every lock is provably back on its pre-canary impl.
        for name, original in originals.items():
            site = kernel.locks.get(name)
            assert site.core.impl is original, name
            assert site.core.pending_impl is None
            assert not site.locked
        # The forward patches are no longer active (reverted, not leaked).
        assert not kernel.patcher.active

        # No waiters lost: every worker made progress and finished.
        assert all(t.stats["ops"] > 0 for t in tasks)
        total = sum(t.stats["ops"] for t in tasks)
        assert total > 100  # the workload actually contended

    def test_bad_hook_bundle_rolls_back_and_unloads(self, world):
        kernel, concord, daemon = world
        client = PolicyClient.connect(daemon, "alice")
        hammer(kernel, stop_at=kernel.now + 700_000)

        client.submit(bad_numa_submission(SELECTOR))
        record = client.rollout(
            "bad-numa",
            baseline_ns=80_000,
            canary_ns=200_000,
            check_every_ns=40_000,
        )

        assert record.state is PolicyState.ROLLED_BACK
        # Acceptance: the full lifecycle is in the audit log, in order.
        assert daemon.audit.history("bad-numa") == [
            PolicyState.SUBMITTED,
            PolicyState.VERIFIED,
            PolicyState.CANARY,
            PolicyState.ROLLED_BACK,
        ]
        # Both bundle programs are gone from the framework and bpffs.
        assert "bad-numa" not in concord.policies
        assert "bad-numa.audit" not in concord.policies
        for name in record.canary_locks:
            for hook in ("cmp_node", "lock_acquired"):
                assert concord.chain(name, hook) == ()
        kernel.run()


class TestCanaryMeetsDrainingSwitch:
    def test_rollout_raises_a_control_plane_error(self, world):
        """A canary install that meets a switch still draining on a
        canary lock resolves ROLLED_BACK, and rollout reports it as a
        ControlPlaneError chained from the lock layer's refusal."""
        from repro.controlplane import ControlPlaneError
        from repro.faults import FaultPlan, injected
        from repro.locks import LockError, MCSLock

        kernel, concord, daemon = world
        client = PolicyClient.connect(daemon, "ops")
        plan = FaultPlan()
        plan.stall("livepatch.drain", delay_ns=10_000_000, times=1)
        with injected(plan):
            concord.switch_lock("svc.shard0.lock", lambda old: MCSLock(kernel.engine))
        stalled = kernel.locks.get("svc.shard0.lock").core.pending_impl
        client.submit(
            PolicySubmission(impl_factory=molasses, name="molasses", lock_selector=SELECTOR)
        )
        with pytest.raises(ControlPlaneError, match="switch is already in progress") as info:
            client.rollout("molasses", baseline_ns=20_000, canary_ns=40_000)
        assert isinstance(info.value.__cause__, LockError)
        assert daemon.status("molasses").state is PolicyState.ROLLED_BACK
        cause = daemon.audit.for_policy("molasses")[-1].cause
        assert cause.startswith(
            "canary install failed (a lock switch is already in progress)"
        )
        # Nothing of the refused canary stayed behind; the stalled switch
        # is still the only one pending.
        assert len(kernel.patcher.active) == 1
        for name in kernel.locks.select_names(SELECTOR):
            assert not isinstance(kernel.locks.get(name).core.impl, MolassesMutex)
        assert kernel.locks.get("svc.shard0.lock").core.pending_impl is stalled


class TestPromotion:
    def test_good_policy_goes_active_fleet_wide(self, world):
        kernel, concord, daemon = world
        client = PolicyClient.connect(daemon, "bob")
        hammer(kernel, stop_at=kernel.now + 700_000)

        client.submit(
            PolicySubmission(
                spec=make_numa_policy(lock_selector=SELECTOR, name="numa-good")
            )
        )
        record = client.rollout(
            "numa-good",
            baseline_ns=80_000,
            canary_ns=200_000,
            check_every_ns=40_000,
        )

        assert record.state is PolicyState.ACTIVE
        assert record.verdict.ok
        assert daemon.audit.history("numa-good") == [
            PolicyState.SUBMITTED,
            PolicyState.VERIFIED,
            PolicyState.CANARY,
            PolicyState.ACTIVE,
        ]
        # Promoted beyond the canary subset: live on all four shards.
        loaded = concord.policies["numa-good"]
        assert sorted(loaded.attached_locks) == sorted(
            kernel.locks.select_names(SELECTOR)
        )
        kernel.run()

    def test_quiet_canary_promotes_on_verifier_trust(self, world):
        kernel, concord, daemon = world
        client = PolicyClient.connect(daemon, "bob")
        # No workload at all: the guard never becomes ready.
        client.submit(
            PolicySubmission(
                spec=PolicySpec(
                    name="idle",
                    hook=HOOK_CMP_NODE,
                    source=RETURN_ZERO,
                    lock_selector=SELECTOR,
                )
            )
        )
        record = client.rollout("idle", baseline_ns=10_000, canary_ns=10_000)
        assert record.state is PolicyState.ACTIVE
        assert not record.verdict.ready
        assert "too quiet" in daemon.audit.for_policy("idle")[-1].cause


class TestLifecycleIntegration:
    def test_rollout_requires_verified(self, world):
        _, _, daemon = world
        client = PolicyClient.connect(daemon, "ops")
        with pytest.raises(LifecycleError, match="never submitted|no policy"):
            client.rollout("phantom")

        sub = PolicySubmission(
            spec=PolicySpec(
                name="once",
                hook=HOOK_CMP_NODE,
                source=RETURN_ZERO,
                lock_selector=SELECTOR,
            )
        )
        client.submit(sub)
        client.withdraw("once")  # VERIFIED -> RETIRED
        with pytest.raises(LifecycleError, match="needs state VERIFIED"):
            client.rollout("once")

    def test_withdraw_active_policy_cleans_up(self, world):
        kernel, concord, daemon = world
        client = PolicyClient.connect(daemon, "ops")
        hammer(kernel, stop_at=kernel.now + 600_000)
        client.submit(
            PolicySubmission(
                spec=make_numa_policy(lock_selector=SELECTOR, name="tidy")
            )
        )
        record = client.rollout("tidy", baseline_ns=80_000, canary_ns=160_000)
        assert record.state is PolicyState.ACTIVE

        client.withdraw("tidy")
        assert record.state is PolicyState.RETIRED
        assert "tidy" not in concord.policies
        for name in kernel.locks.select_names(SELECTOR):
            assert concord.chain(name, HOOK_CMP_NODE) == ()
        kernel.run()

    def test_withdraw_mid_canary_reverts_impl(self, world):
        kernel, concord, daemon = world
        client = PolicyClient.connect(daemon, "ops")
        originals = {
            name: kernel.locks.get(name).core.impl
            for name in kernel.locks.select_names(SELECTOR)
        }
        hammer(kernel, stop_at=kernel.now + 400_000)
        client.submit(
            PolicySubmission(
                impl_factory=molasses, name="oops", lock_selector=SELECTOR
            )
        )
        # A forgiving guard lets the bad impl reach ACTIVE fleet-wide...
        daemon.guard = SLOGuard(max_avg_wait_regression=1e9)
        record = client.rollout("oops", baseline_ns=40_000, canary_ns=80_000)
        assert record.state is PolicyState.ACTIVE
        assert len(record.patches) == 4

        # ...and withdraw still restores every original implementation.
        client.withdraw("oops")
        kernel.run()
        for name, original in originals.items():
            assert kernel.locks.get(name).core.impl is original, name
        assert not kernel.patcher.active
