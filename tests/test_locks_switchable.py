"""Switchable call sites: drain semantics, trampoline costs, registry."""

import pytest

from repro import locks as L
from repro.locks.base import PROFILING_HOOKS, HookSet, LockError
from repro.sim import Engine, Topology, ops

#: Lock families a switchable site may move between, by test id.
FAMILIES = {
    "mcs": L.MCSLock,
    "ticket": L.TicketLock,
    "qspin": L.QSpinLock,
    "cna": L.CNALock,
    "shfl-numa": lambda eng: L.ShflLock(eng, policy=L.NumaPolicy()),
}
SWITCHES = [(old, new) for old in FAMILIES for new in FAMILIES]

#: Readers-writer lock families an RW site may move between, by test id.
RW_FAMILIES = {
    "rwsem": L.RWSemaphore,
    "neutral": L.NeutralRWLock,
    "reader-pref": L.ReaderPrefRWLock,
    "phase-fair": L.PhaseFairRWLock,
    "percpu": L.PerCPURWLock,
}
RW_SWITCHES = [(old, new) for old in RW_FAMILIES for new in RW_FAMILIES]


class TestSwitching:
    def test_switch_waits_for_drain(self, topo):
        eng = Engine(topo, seed=1)
        site = L.SwitchableLock(eng, L.MCSLock(eng, name="old"))
        new_impl = L.TicketLock(eng, name="new")

        def holder(task):
            yield from site.acquire(task)
            yield ops.Delay(10_000)
            yield from site.release(task)

        eng.spawn(holder, cpu=0)
        eng.call_at(1_000, lambda: site.request_switch(new_impl))
        eng.run()
        assert site.core.impl is new_impl
        # The switch could only engage after the holder released.
        assert site.core.switch_engaged_at >= 10_000
        assert site.core.last_switch_latency >= 9_000

    def test_new_acquirers_gated_during_switch(self, topo):
        eng = Engine(topo, seed=1)
        site = L.SwitchableLock(eng, L.MCSLock(eng))
        new_impl = L.MCSLock(eng, name="new")
        entry_time = {}

        def holder(task):
            yield from site.acquire(task)
            yield ops.Delay(5_000)
            yield from site.release(task)

        def latecomer(task):
            yield ops.Delay(2_000)  # arrives mid-transition
            yield from site.acquire(task)
            entry_time["t"] = task.engine.now
            entry_time["impl"] = site._acquired_impl[task.tid]
            yield from site.release(task)

        eng.spawn(holder, cpu=0)
        eng.spawn(latecomer, cpu=1)
        eng.call_at(1_000, lambda: site.request_switch(new_impl))
        eng.run()
        # The latecomer waited for the swap and used the new implementation.
        assert entry_time["t"] >= 5_000
        assert entry_time["impl"] is new_impl

    @pytest.mark.parametrize(
        "old, new",
        SWITCHES,
        ids=[f"{old}-to-{new}" for old, new in SWITCHES],
    )
    def test_mutual_exclusion_across_switch(self, topo, old, new):
        """No overlap between a holder on the old impl and one on the new,
        and every worker gets through, for a switch between any two
        lock families."""
        for seed, switch_at in ((3, 20_000), (8, 5_000)):
            eng = Engine(topo, seed=seed)
            site = L.SwitchableLock(eng, FAMILIES[old](eng))
            new_impl = FAMILIES[new](eng)
            inside = {"n": 0, "max": 0}
            done = []

            def worker(task):
                for _ in range(30):
                    yield from site.acquire(task)
                    inside["n"] += 1
                    inside["max"] = max(inside["max"], inside["n"])
                    yield ops.Delay(80)
                    inside["n"] -= 1
                    yield from site.release(task)
                    yield ops.Delay(40)
                done.append(task.name)

            for cpu in range(6):
                eng.spawn(worker, cpu=cpu, name=f"w{cpu}")
            eng.call_at(switch_at, lambda: site.request_switch(new_impl))
            eng.run()
            assert inside["max"] == 1
            assert sorted(done) == [f"w{cpu}" for cpu in range(6)]
            assert site.core.impl is new_impl

    def test_double_switch_rejected(self, topo):
        eng = Engine(topo, seed=1)
        site = L.SwitchableLock(eng, L.MCSLock(eng))

        def holder(task):
            yield from site.acquire(task)
            yield ops.Delay(10_000)
            yield from site.release(task)

        eng.spawn(holder, cpu=0)

        def double():
            site.request_switch(L.MCSLock(eng))
            with pytest.raises(LockError):
                site.request_switch(L.MCSLock(eng))

        eng.call_at(100, double)
        eng.run()

    def test_hooks_follow_the_switch(self, topo):
        """Attached programs belong to the site: each switch carries the
        site's current hooks, or their absence, onto the new impl."""
        eng = Engine(topo, seed=1)
        first = L.MCSLock(eng)
        second = L.TicketLock(eng)
        site = L.SwitchableLock(eng, first)
        hooks = HookSet()
        site.attach_hooks(hooks)
        site.request_switch(second)
        assert site.core.impl is second and second.hooks is hooks
        site.attach_hooks(None)
        # Back onto the first impl, which still holds the old programs:
        # the site's detached state wins.
        site.request_switch(first)
        assert site.core.impl is first and first.hooks is None

    @pytest.mark.parametrize(
        "site_cls, old, new",
        [
            (L.SwitchableLock, L.CohortLock, L.MCSLock),
            (L.SwitchableRWLock, L.RWSemaphore, L.NeutralRWLock),
        ],
        ids=["cohort", "rwsem"],
    )
    def test_refused_trylock_gives_the_drain_slot_back(self, topo, site_cls, old, new):
        """An impl without a trylock refuses it; the refusal must not
        leave a later switch draining forever, nor gate the next acquire."""
        eng = Engine(topo, seed=1)
        site = site_cls(eng, old(eng))
        new_impl = new(eng)
        refused = []
        done = []

        def body(task):
            with pytest.raises(NotImplementedError):
                yield from site.try_acquire(task)
            refused.append(site.core.inflight)
            site.request_switch(new_impl)
            yield from site.acquire(task)
            yield ops.Delay(50)
            yield from site.release(task)
            done.append(task.name)

        eng.spawn(body, cpu=0, name="t")
        eng.run()
        assert refused == [0]
        assert site.core.impl is new_impl and site.core.pending_impl is None
        assert done == ["t"]


class TestHooksChangeWhileWaiting:
    """Each profiling hook point reads the implementation's hooks when
    the task reaches it, so attaching or detaching a policy while a task
    waits changes what fires from the next hook point on."""

    def _run(self, attach_at_start, change):
        eng = Engine(Topology(sockets=1, cores_per_socket=4), seed=1)
        site = L.SwitchableLock(eng, L.ShflLock(eng, name="s"))
        fired = []
        hooks = HookSet()
        for hook in PROFILING_HOOKS:

            def program(env, hook=hook):
                fired.append((hook, env["task"].name, eng.now))
                return 0, 7

            hooks.attach(hook, program)

        def holder(task):
            yield from site.acquire(task)
            yield ops.Delay(5_000)
            yield from site.release(task)

        def waiter(task):
            yield ops.Delay(100)
            yield from site.acquire(task)
            yield ops.Delay(10)
            yield from site.release(task)

        eng.spawn(holder, cpu=0, name="holder")
        eng.spawn(waiter, cpu=1, name="waiter")
        if attach_at_start:
            site.attach_hooks(hooks)
        eng.call_at(1_000, lambda: site.attach_hooks(change(hooks)))
        eng.run()
        return fired, eng.now, eng.events_processed

    def test_attach_while_waiting(self):
        fired, now, events = self._run(False, lambda hooks: hooks)
        assert fired == [
            ("lock_release", "holder", 5_064),
            ("lock_contended", "waiter", 5_254),
            ("lock_acquired", "waiter", 5_296),
            ("lock_release", "waiter", 5_388),
        ]
        assert (now, events) == (5_434, 30)

    def test_detach_while_waiting(self):
        fired, now, events = self._run(True, lambda hooks: None)
        assert fired == [
            ("lock_acquire", "holder", 44),
            ("lock_acquired", "holder", 106),
            ("lock_acquire", "waiter", 144),
        ]
        assert (now, events) == (5_310, 29)


class TestTrampolineCost:
    def _one_pass_time(self, patched):
        eng = Engine(Topology(sockets=1, cores_per_socket=2), seed=1)
        site = L.SwitchableLock(eng, L.MCSLock(eng))
        if patched:
            site.set_patched(True, trampoline_ns=40)

        def worker(task):
            for _ in range(100):
                yield from site.acquire(task)
                yield ops.Delay(50)
                yield from site.release(task)

        eng.spawn(worker, cpu=0)
        eng.run()
        return eng.now

    def test_patched_site_costs_more(self):
        unpatched = self._one_pass_time(False)
        patched = self._one_pass_time(True)
        assert patched >= unpatched + 100 * 2 * 40

    def test_unpatched_site_is_cheap(self):
        """An unpatched call site adds only the gate load."""
        unpatched = self._one_pass_time(False)
        # 100 iterations x ~(gate load + lock + CS): a loose sanity bound.
        assert unpatched < 100 * 400


class TestRWSwitchable:
    def _mix(self, eng, site):
        """Six readers that check for torn reads and one writer that
        increments a counter; returns (torn reads, counter cell, names
        of the tasks that finished)."""
        torn = []
        done = []
        shared = eng.cell(0)

        def reader(task):
            for _ in range(40):
                yield from site.read_acquire(task)
                a = yield ops.Load(shared)
                yield ops.Delay(120)
                b = yield ops.Load(shared)
                if a != b:
                    torn.append((a, b))
                yield from site.read_release(task)
            done.append(task.name)

        def writer(task):
            for _ in range(10):
                yield from site.write_acquire(task)
                v = yield ops.Load(shared)
                yield ops.Delay(100)
                yield ops.Store(shared, v + 1)
                yield from site.write_release(task)
                yield ops.Delay(2_000)
            done.append(task.name)

        for cpu in range(6):
            eng.spawn(reader, cpu=cpu, name=f"r{cpu}")
        eng.spawn(writer, cpu=7, name="w")
        return torn, shared, done

    @pytest.mark.parametrize(
        "old, new",
        RW_SWITCHES,
        ids=[f"{old}-to-{new}" for old, new in RW_SWITCHES],
    )
    def test_rw_switch_under_readers(self, topo, old, new):
        eng = Engine(topo, seed=2)
        site = L.SwitchableRWLock(eng, RW_FAMILIES[old](eng))
        new_impl = RW_FAMILIES[new](eng)
        torn, shared, done = self._mix(eng, site)
        eng.call_at(10_000, lambda: site.request_switch(new_impl))
        eng.run()
        assert torn == []
        assert shared.peek() == 10
        assert sorted(done) == [f"r{cpu}" for cpu in range(6)] + ["w"]
        assert site.core.impl is new_impl
        assert new_impl.acquisitions > 0

    def test_profiling_policy_fires_after_switch(self, topo):
        """A profiling policy Concord attached before an RW site switched
        implementations counts every acquisition on both of them."""
        from repro.concord import Concord
        from repro.concord.profiler import ProfileSession
        from repro.kernel import Kernel

        kernel = Kernel(topo, seed=2)
        old_impl = L.RWSemaphore(kernel.engine)
        new_impl = L.NeutralRWLock(kernel.engine)
        site = kernel.add_rwlock("r.lock", old_impl)
        concord = Concord(kernel)
        session = ProfileSession(concord, "r.lock")
        torn, shared, done = self._mix(kernel.engine, site)
        kernel.engine.call_at(
            10_000, lambda: concord.switch_lock("r.lock", lambda old: new_impl)
        )
        kernel.run()
        profile = session.stop().by_name("r.lock")
        assert torn == [] and shared.peek() == 10 and len(done) == 7
        assert site.core.impl is new_impl
        assert new_impl.acquisitions > 0
        total = 6 * 40 + 10
        assert old_impl.acquisitions + new_impl.acquisitions == total
        assert profile.attempts == profile.acquired == profile.releases == total


class TestRegistry:
    def test_register_get_select(self, engine):
        registry = L.LockRegistry()
        lock_a = registry.register("mm.mmap_lock", L.MCSLock(engine))
        registry.register("vfs.inode.1.lock", L.MCSLock(engine))
        registry.register("vfs.inode.2.lock", L.MCSLock(engine))
        assert registry.get("mm.mmap_lock") is lock_a
        assert len(registry.select("vfs.inode.*.lock")) == 2
        assert len(registry.select("*")) == 3
        assert registry.select_names("mm.*") == ["mm.mmap_lock"]
        assert registry.name_of(lock_a) == "mm.mmap_lock"

    def test_duplicate_name_rejected(self, engine):
        registry = L.LockRegistry()
        registry.register("x", L.MCSLock(engine))
        with pytest.raises(LockError):
            registry.register("x", L.MCSLock(engine))

    def test_missing_lock_raises(self):
        registry = L.LockRegistry()
        with pytest.raises(LockError):
            registry.get("nope")
