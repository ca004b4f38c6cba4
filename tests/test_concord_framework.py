"""The Concord framework: Figure 1's workflow and its failure modes."""

import pytest

from repro.bpf.errors import BPFError, VerificationError
from repro.concord import Concord, PolicyConflictError, PolicySpec
from repro.concord.policies import make_numa_policy
from repro.kernel import Kernel
from repro.locks import MCSLock, NumaPolicy, ShflLock
from repro.locks.base import HOOK_CMP_NODE, HOOK_LOCK_ACQUIRED
from repro.sim import Topology, ops


@pytest.fixture
def kernel():
    k = Kernel(Topology(sockets=2, cores_per_socket=4), seed=1)
    k.add_lock("a.lock", ShflLock(k.engine, name="a"))
    k.add_lock("b.lock", ShflLock(k.engine, name="b"))
    return k


@pytest.fixture
def concord(kernel):
    return Concord(kernel)


class TestLoadWorkflow:
    def test_successful_load_walks_all_steps(self, concord):
        loaded = concord.load_policy(make_numa_policy(lock_selector="a.lock"))
        # step 2+3: verified
        assert loaded.program.verified
        assert loaded.verdict.checks
        # step 4: notify
        kinds = [e.kind for e in concord.events]
        assert "verified" in kinds and "attached" in kinds
        # step 5: pinned in bpffs
        assert concord.bpffs.get(loaded.pinned_path) is loaded.program
        # step 6: hooks live on the lock
        site = concord.kernel.locks.get("a.lock")
        assert site.core.impl.hooks is not None
        assert HOOK_CMP_NODE in site.core.impl.hooks

    def test_selector_targets_multiple_locks(self, concord):
        loaded = concord.load_policy(make_numa_policy(lock_selector="*"))
        assert sorted(loaded.attached_locks) == ["a.lock", "b.lock"]

    def test_empty_selector_rejected(self, concord):
        with pytest.raises(BPFError, match="matches no"):
            concord.load_policy(make_numa_policy(lock_selector="zzz.*"))

    def test_duplicate_name_rejected(self, concord):
        concord.load_policy(make_numa_policy(lock_selector="a.lock", name="p"))
        with pytest.raises(BPFError, match="already loaded"):
            concord.load_policy(make_numa_policy(lock_selector="b.lock", name="p"))

    def test_rejection_is_notified(self, concord):
        bad = PolicySpec(
            name="bad",
            hook=HOOK_CMP_NODE,
            source="def f(ctx):\n    return ctx.nonexistent_field\n",
            lock_selector="a.lock",
        )
        with pytest.raises(BPFError):
            concord.load_policy(bad)
        assert any(e.kind == "verify-failed" for e in concord.events)

    def test_decision_hook_rejects_map_writes(self, concord):
        """Lock-safety layer: no map mutation on the spin path."""
        from repro.bpf.maps import HashMap

        bad = PolicySpec(
            name="writer",
            hook=HOOK_CMP_NODE,
            source="def f(ctx):\n    m.update(1, 2)\n    return 0\n",
            maps={"m": HashMap("m")},
            lock_selector="a.lock",
        )
        with pytest.raises(VerificationError, match="not allowed"):
            concord.load_policy(bad)

    def test_profiling_hook_allows_map_writes(self, concord):
        from repro.bpf.maps import HashMap

        spec = PolicySpec(
            name="meter",
            hook=HOOK_LOCK_ACQUIRED,
            source="def f(ctx):\n    m.add(ctx.lock_id, 1)\n    return 0\n",
            maps={"m": HashMap("m")},
            lock_selector="a.lock",
        )
        concord.load_policy(spec)


class TestUnload:
    def test_unload_detaches_and_unpins(self, concord):
        loaded = concord.load_policy(make_numa_policy(lock_selector="a.lock"))
        concord.unload_policy(loaded.name)
        site = concord.kernel.locks.get("a.lock")
        assert site.core.impl.hooks is None
        assert len(concord.bpffs) == 0

    def test_unload_is_idempotent(self, concord):
        # Unknown / already-unloaded policies are a recorded no-op, not
        # an error — the control plane retries rollbacks safely.
        assert concord.unload_policy("ghost") is None
        loaded = concord.load_policy(make_numa_policy(lock_selector="a.lock"))
        assert concord.unload_policy(loaded.name) is loaded
        assert concord.unload_policy(loaded.name) is None
        assert len(concord.bpffs) == 0

    def test_partial_unload_keeps_other_chain(self, concord):
        concord.load_policy(make_numa_policy(lock_selector="a.lock", name="one"))
        spec = PolicySpec(
            name="two",
            hook=HOOK_CMP_NODE,
            source="def f(ctx):\n    return 0\n",
            lock_selector="a.lock",
        )
        concord.load_policy(spec)
        concord.unload_policy("one")
        site = concord.kernel.locks.get("a.lock")
        assert HOOK_CMP_NODE in site.core.impl.hooks


class TestComposition:
    def test_chained_policies_or_combine(self, concord, kernel):
        always_no = PolicySpec(
            name="no",
            hook=HOOK_CMP_NODE,
            source="def f(ctx):\n    return 0\n",
            lock_selector="a.lock",
        )
        always_yes = PolicySpec(
            name="yes",
            hook=HOOK_CMP_NODE,
            source="def f(ctx):\n    return 1\n",
            lock_selector="a.lock",
        )
        concord.load_policy(always_no)
        concord.load_policy(always_yes)
        site = kernel.locks.get("a.lock")
        fn = site.core.impl.hooks.programs[HOOK_CMP_NODE]

        class _Node:
            def __init__(self, task):
                self.task = task
                self.cpu = 0
                self.socket = 0
                self.priority = 0
                self.enqueue_time = 0
                self.meta = {}

        def driver(task):
            value, cost = fn(
                {
                    "task": task,
                    "lock": site.core.impl,
                    "shuffler_node": _Node(task),
                    "curr_node": _Node(task),
                }
            )
            task.stats["value"] = value
            task.stats["cost"] = cost
            yield ops.Delay(1)

        task = kernel.spawn(driver, cpu=0)
        kernel.run()
        assert task.stats["value"] == 1  # OR of (0, 1)
        assert task.stats["cost"] > 0

    def test_exclusive_policy_conflicts(self, concord):
        concord.load_policy(make_numa_policy(lock_selector="a.lock", name="first"))
        exclusive = PolicySpec(
            name="second",
            hook=HOOK_CMP_NODE,
            source="def f(ctx):\n    return 0\n",
            lock_selector="a.lock",
            exclusive=True,
        )
        with pytest.raises(PolicyConflictError):
            concord.load_policy(exclusive)

    def test_combiner_disagreement_conflicts(self, concord):
        concord.load_policy(make_numa_policy(lock_selector="a.lock", name="first"))
        other = PolicySpec(
            name="second",
            hook=HOOK_CMP_NODE,
            source="def f(ctx):\n    return 0\n",
            lock_selector="a.lock",
            combiner="and",
        )
        with pytest.raises(PolicyConflictError):
            concord.load_policy(other)


class TestLockControl:
    def test_switch_lock_via_concord(self, concord, kernel):
        concord.switch_lock("a.lock", lambda old: MCSLock(kernel.engine, name="new"))
        site = kernel.locks.get("a.lock")
        assert isinstance(site.core.impl, MCSLock)
        assert concord.switch_latency("a.lock") is not None

    def test_set_lock_param(self, concord, kernel):
        kernel.add_lock(
            "c.lock", ShflLock(kernel.engine, name="c", policy=NumaPolicy())
        )
        concord.set_lock_param("c.lock", "max_shuffle_rounds", 3)
        assert kernel.locks.get("c.lock").core.impl.max_shuffle_rounds == 3

    def test_set_unknown_param_rejected(self, concord):
        with pytest.raises(BPFError):
            concord.set_lock_param("a.lock", "warp_speed", 11)

    def test_hooks_survive_impl_switch(self, concord, kernel):
        concord.load_policy(make_numa_policy(lock_selector="a.lock"))
        concord.switch_lock(
            "a.lock", lambda old: ShflLock(kernel.engine, name="a2")
        )
        site = kernel.locks.get("a.lock")
        assert site.core.impl.hooks is not None
        assert HOOK_CMP_NODE in site.core.impl.hooks

    def test_describe(self, concord):
        concord.load_policy(make_numa_policy(lock_selector="a.lock"))
        info = concord.describe()
        assert "numa-aware" in info["policies"]
        assert info["pinned"]
        assert "a.lock" in info["patched_locks"]


class TestCombiners:
    def test_combine_results_table(self):
        from repro.concord import combine_results

        assert combine_results("or", [0, 0, 5]) == 5
        assert combine_results("or", [0, 0]) == 0
        assert combine_results("and", [1, 2, 3]) == 3
        assert combine_results("and", [1, 0, 3]) == 0
        assert combine_results("first", [7, 8]) == 7
        assert combine_results("sum", [1, 2, 3]) == 6
        assert combine_results("or", []) == 0


class TestTaskTags:
    """``tag()`` reads a task annotation through ``int()``; a value
    ``int()`` rejects is a runtime fault the circuit breaker absorbs."""

    def _hammer(self, concord, kernel, prio):
        from repro.bpf.maps import HashMap

        seen = HashMap("seen")
        concord.load_policy(
            PolicySpec(
                name="read-prio",
                hook=HOOK_LOCK_ACQUIRED,
                source='def f(ctx):\n    seen.update(ctx.tid, tag("prio"))\n    return tag("prio")\n',
                maps={"seen": seen},
                lock_selector="a.lock",
            )
        )
        site = kernel.locks.get("a.lock")

        def worker(task):
            task.tags["prio"] = prio
            task.stats["ops"] = 0
            for _ in range(8):
                yield from site.acquire(task)
                yield ops.Delay(100)
                yield from site.release(task)
                task.stats["ops"] += 1

        task = kernel.spawn(worker, cpu=0)
        kernel.run()
        return task, seen

    def test_float_tag_reads_as_its_int(self, concord, kernel):
        task, seen = self._hammer(concord, kernel, 2.5)
        assert seen[task.tid] == 2
        assert task.stats["ops"] == 8

    def test_non_integer_tag_trips_the_breaker(self, concord, kernel):
        task, seen = self._hammer(concord, kernel, "high")
        assert task.stats["ops"] == 8
        assert len(seen) == 0
        assert any(e.kind == "breaker-tripped" for e in concord.events)
