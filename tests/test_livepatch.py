"""Live patching: patch objects, enable/disable, shadow variables."""

import pytest

from repro.kernel import Kernel
from repro.livepatch import LivePatch, PatchError, PatchOp, Patcher, ShadowStore
from repro.locks import LockError, MCSLock, ShflLock, TicketLock
from repro.sim import Topology, ops


@pytest.fixture
def kernel():
    k = Kernel(Topology(sockets=2, cores_per_socket=4), seed=1)
    k.add_lock("a.lock", ShflLock(k.engine, name="a"))
    return k


class TestPatcher:
    def test_switch_patch(self, kernel):
        kernel.patcher.switch_lock(
            "a.lock", lambda old: MCSLock(kernel.engine, name="new")
        )
        assert isinstance(kernel.locks.get("a.lock").core.impl, MCSLock)
        assert kernel.patcher.switch_latency("a.lock") is not None

    def test_patch_on_unpatchable_lock_rejected(self, kernel):
        kernel.locks.register("raw.lock", MCSLock(kernel.engine))
        with pytest.raises(PatchError, match="not a patchable"):
            kernel.patcher.switch_lock("raw.lock", lambda old: MCSLock(kernel.engine))
        assert not kernel.patcher.active

    def test_double_enable_rejected(self, kernel):
        patch = LivePatch(
            "p", [PatchOp("a.lock", new_impl_factory=lambda old: MCSLock(kernel.engine))]
        )
        kernel.patcher.enable(patch)
        with pytest.raises(PatchError):
            kernel.patcher.enable(patch)

    def test_disable_unknown_rejected(self, kernel):
        """Disabling (reverting) a patch that is not enabled is refused."""
        with pytest.raises(PatchError, match="is not enabled"):
            kernel.patcher.revert("ghost")

    def test_multi_op_patch(self, kernel):
        kernel.add_lock("b.lock", ShflLock(kernel.engine, name="b"))
        a_impl = kernel.locks.get("a.lock").core.impl
        b_impl = kernel.locks.get("b.lock").core.impl
        patch = LivePatch(
            "combo",
            [
                PatchOp("a.lock", new_impl_factory=lambda old: MCSLock(kernel.engine)),
                PatchOp("b.lock", new_impl_factory=lambda old: TicketLock(kernel.engine)),
            ],
        )
        kernel.patcher.enable(patch)
        assert isinstance(kernel.locks.get("a.lock").core.impl, MCSLock)
        assert isinstance(kernel.locks.get("b.lock").core.impl, TicketLock)
        kernel.patcher.revert("combo")
        assert kernel.locks.get("a.lock").core.impl is a_impl
        assert kernel.locks.get("b.lock").core.impl is b_impl

    def test_refused_multi_op_patch_switches_no_site(self, kernel):
        """A patch is checked whole before any switch is requested: a
        later site still draining, or a lock named twice, leaves every
        site as it was and the patch unapplied."""
        from repro.faults import FaultPlan, injected

        kernel.add_lock("b.lock", ShflLock(kernel.engine, name="b"))
        a_site, b_site = kernel.locks.get("a.lock"), kernel.locks.get("b.lock")
        a_impl = a_site.core.impl
        plan = FaultPlan()
        plan.stall("livepatch.drain", delay_ns=10_000_000, times=1)
        with injected(plan):
            kernel.patcher.switch_lock("b.lock", lambda old: MCSLock(kernel.engine))
        draining = b_site.core.pending_impl
        assert draining is not None
        active = dict(kernel.patcher.active)

        def mcs(old):
            return MCSLock(kernel.engine)

        def ticket(old):
            return TicketLock(kernel.engine)

        combo = LivePatch("combo", [PatchOp("a.lock", mcs), PatchOp("b.lock", ticket)])
        twice = LivePatch("twice", [PatchOp("a.lock", mcs), PatchOp("a.lock", ticket)])
        for patch, error in ((combo, "already in progress"), (twice, "'a.lock' twice")):
            with pytest.raises(LockError, match=error):
                kernel.patcher.enable(patch)
            assert a_site.core.impl is a_impl
            assert a_site.core.pending_impl is None
            assert b_site.core.pending_impl is draining
            assert kernel.patcher.active == active
            assert not patch.applied

    def test_patch_under_load_preserves_correctness(self, kernel):
        site = kernel.locks.get("a.lock")
        shared = kernel.engine.cell(0)

        def worker(task):
            for _ in range(40):
                yield from site.acquire(task)
                value = yield ops.Load(shared)
                yield ops.Delay(100)
                yield ops.Store(shared, value + 1)
                yield from site.release(task)
                yield ops.Delay(60)

        for cpu in range(6):
            kernel.spawn(worker, cpu=cpu)
        kernel.engine.call_at(
            30_000,
            lambda: kernel.patcher.switch_lock(
                "a.lock", lambda old: MCSLock(kernel.engine, name="mid-flight")
            ),
        )
        kernel.run()
        assert shared.peek() == 240


class CountingMCS(MCSLock):
    """Records every acquisition, so a test can prove an abandoned
    pending implementation was never entered."""

    def __init__(self, engine, name="counting"):
        super().__init__(engine, name=name)
        self.acquisitions = 0

    def acquire(self, task):
        self.acquisitions += 1
        yield from super().acquire(task)


class TestRevertRacingDrain:
    """Satellite: Patcher.revert racing an in-flight switch_lock drain
    under injected stalls — no waiter may land on the abandoned impl."""

    def _contend(self, kernel, site, n_tasks=6, iters=30):
        shared = kernel.engine.cell(0)

        def worker(task):
            for _ in range(iters):
                yield from site.acquire(task)
                value = yield ops.Load(shared)
                yield ops.Delay(100)
                yield ops.Store(shared, value + 1)
                yield from site.release(task)
                yield ops.Delay(60)

        for cpu in range(n_tasks):
            kernel.spawn(worker, cpu=cpu)
        return shared, n_tasks * iters

    def test_revert_mid_drain_under_injected_stall(self, kernel):
        from repro.faults import FaultPlan, injected

        site = kernel.locks.get("a.lock")
        original = site.core.impl
        shared, expected = self._contend(kernel, site)
        abandoned = CountingMCS(kernel.engine, name="abandoned")

        plan = FaultPlan()
        # The first several drain completion attempts stall, far past
        # the revert point: the forward switch cannot engage before the
        # revert lands.
        plan.stall("livepatch.drain", delay_ns=50_000, times=5)

        def switch():
            kernel.patcher.switch_lock("a.lock", lambda old: abandoned)

        def revert():
            # The forward drain is guaranteed still in flight (stalled).
            assert site.core.pending_impl is abandoned
            (name,) = list(kernel.patcher.active)
            kernel.patcher.revert(name)

        kernel.engine.call_at(5_000, switch)
        kernel.engine.call_at(12_000, revert)
        with injected(plan):
            kernel.run()

        # Mutual exclusion held throughout the switch+revert dance...
        assert shared.peek() == expected
        # ...the site quiesced back to the pre-patch implementation...
        assert site.core.impl is original
        assert site.core.pending_impl is None
        assert site.core.stall_until is None
        assert not kernel.patcher.active
        # ...and not one waiter ever entered the abandoned impl.
        assert abandoned.acquisitions == 0


class TestShadowStore:
    def test_get_or_alloc_identity(self):
        shadow = ShadowStore()
        node = object()
        value = shadow.get_or_alloc(node, 1, dict)
        assert shadow.get_or_alloc(node, 1, dict) is value
        assert shadow.get(node, 1) is value

    def test_distinct_objects_distinct_shadows(self):
        shadow = ShadowStore()
        a, b = object(), object()
        shadow.set(a, 1, "A")
        shadow.set(b, 1, "B")
        assert shadow.get(a, 1) == "A"
        assert shadow.get(b, 1) == "B"

    def test_distinct_ids_distinct_shadows(self):
        shadow = ShadowStore()
        node = object()
        shadow.set(node, 1, "one")
        shadow.set(node, 2, "two")
        assert shadow.get(node, 1) == "one"
        assert shadow.get(node, 2) == "two"

    def test_free(self):
        shadow = ShadowStore()
        node = object()
        shadow.set(node, 1, 42)
        assert shadow.free(node, 1) == 42
        assert shadow.get(node, 1) is None

    def test_free_all(self):
        shadow = ShadowStore()
        objects = [object() for _ in range(5)]
        for obj in objects:
            shadow.set(obj, 7, 1)
            shadow.set(obj, 8, 2)
        assert shadow.free_all(7) == 5
        assert len(shadow) == 5  # id-8 shadows remain

    def test_default_when_missing(self):
        shadow = ShadowStore()
        assert shadow.get(object(), 1, default="d") == "d"
