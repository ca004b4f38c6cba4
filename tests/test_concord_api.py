"""The Table 1 hook API layer: layouts, packers, adapter plumbing."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bpf import VM, compile_policy
from repro.concord.api import (
    CMP_NODE_LAYOUT,
    EVENT_IDS,
    LAYOUT_FOR_HOOK,
    LOCK_EVENT_LAYOUT,
    SCHEDULE_WAITER_LAYOUT,
    SKIP_SHUFFLE_LAYOUT,
    make_hook_fn,
)
from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.locks.base import (
    ALL_HOOKS,
    HOOK_CMP_NODE,
    HOOK_LOCK_ACQUIRED,
    HOOK_SKIP_SHUFFLE,
)
from repro.locks.shfllock import ShflNode
from repro.sim import Topology, ops


@pytest.fixture
def kernel():
    return Kernel(Topology(sockets=2, cores_per_socket=4), seed=1)


class TestLayouts:
    def test_every_hook_has_a_layout(self):
        assert set(LAYOUT_FOR_HOOK) == set(ALL_HOOKS)

    def test_layout_offsets_are_dense(self):
        for layout in (CMP_NODE_LAYOUT, SKIP_SHUFFLE_LAYOUT,
                       SCHEDULE_WAITER_LAYOUT, LOCK_EVENT_LAYOUT):
            for index, field in enumerate(layout.fields):
                assert layout.offset_of(field) == index * 8
            assert layout.size == len(layout.fields) * 8

    def test_pack_defaults_missing_to_zero(self):
        values = CMP_NODE_LAYOUT.pack({"curr_tid": 9})
        assert values[CMP_NODE_LAYOUT.fields.index("curr_tid")] == 9
        assert sum(values) == 9

    def test_event_ids_cover_profiling_hooks(self):
        assert sorted(EVENT_IDS.values()) == [0, 1, 2, 3]


class TestHookFn:
    def _program(self, source, hook):
        return compile_policy(source, LAYOUT_FOR_HOOK[hook])

    def test_layout_mismatch_rejected(self):
        program = self._program("def f(ctx):\n    return 0\n", HOOK_CMP_NODE)
        with pytest.raises(ValueError, match="layout"):
            make_hook_fn(HOOK_LOCK_ACQUIRED, program, VM(), lambda lock: 1)

    def test_cmp_node_env_packed_from_nodes(self, kernel):
        """The program must see the actual node metadata."""
        program = self._program(
            "def f(ctx):\n    return ctx.curr_socket * 100 + ctx.shuffler_socket\n",
            HOOK_CMP_NODE,
        )
        fn = make_hook_fn(HOOK_CMP_NODE, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def driver(task_a_cpu, task_b_cpu):
            def body(task):
                yield ops.Delay(1)

            t_shuffler = kernel.spawn(body, cpu=task_a_cpu)
            t_curr = kernel.spawn(body, cpu=task_b_cpu)
            def run(task):
                yield ops.Delay(1)
                shuffler = ShflNode(kernel.engine, t_shuffler)
                curr = ShflNode(kernel.engine, t_curr)
                value, cost = fn(
                    {"task": task, "lock": lock, "shuffler_node": shuffler,
                     "curr_node": curr}
                )
                result["value"] = value
                result["cost"] = cost

            kernel.spawn(run, cpu=0)
            kernel.run()

        driver(0, 5)  # sockets 0 and 1
        assert result["value"] == 100 * 1 + 0
        assert result["cost"] > 0

    def test_wait_time_computed_from_enqueue(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.curr_wait_ns\n", HOOK_CMP_NODE)
        fn = make_hook_fn(HOOK_CMP_NODE, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            node = ShflNode(kernel.engine, task)  # enqueue_time = now
            yield ops.Delay(5_000)
            value, _cost = fn(
                {"task": task, "lock": lock, "shuffler_node": node, "curr_node": node}
            )
            result["wait"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["wait"] == 5_000

    def test_lock_event_packer_includes_event_id(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.event\n", HOOK_LOCK_ACQUIRED)
        fn = make_hook_fn(HOOK_LOCK_ACQUIRED, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            yield ops.Delay(1)
            value, _ = fn({"task": task, "lock": lock})
            result["event"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["event"] == EVENT_IDS[HOOK_LOCK_ACQUIRED]

    def test_lock_id_resolver_used(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.lock_id\n", HOOK_LOCK_ACQUIRED)
        fn = make_hook_fn(HOOK_LOCK_ACQUIRED, program, VM(), lambda lock: 777)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            yield ops.Delay(1)
            value, _ = fn({"task": task, "lock": lock})
            result["lock_id"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["lock_id"] == 777

    def test_boost_tag_propagates(self, kernel):
        program = self._program("def f(ctx):\n    return ctx.curr_boost\n", HOOK_CMP_NODE)
        fn = make_hook_fn(HOOK_CMP_NODE, program, VM(), lambda lock: 1)
        lock = ShflLock(kernel.engine, name="x")
        result = {}

        def run(task):
            yield ops.Delay(1)
            task.tags["boost"] = 3
            node = ShflNode(kernel.engine, task)
            value, _ = fn(
                {"task": task, "lock": lock, "shuffler_node": node, "curr_node": node}
            )
            result["boost"] = value

        kernel.spawn(run, cpu=0)
        kernel.run()
        assert result["boost"] == 3


# ----------------------------------------------------------------------
# Packers against the dict-then-pack reference they replaced
# ----------------------------------------------------------------------
def _reference_values(hook, env, lock_id, now):
    """The context dict the packers used to build before ``layout.pack``."""

    def node_fields(prefix, node):
        if node is None:
            return {}
        task = node.task
        return {
            f"{prefix}_tid": task.tid,
            f"{prefix}_cpu": node.cpu,
            f"{prefix}_socket": node.socket,
            f"{prefix}_prio": node.priority,
            f"{prefix}_wait_ns": max(0, now - node.enqueue_time),
            f"{prefix}_held_locks": len(task.held_locks),
        }

    values = {"lock_id": lock_id}
    if hook in EVENT_IDS:
        task = env["task"]
        values.update(event=EVENT_IDS[hook], tid=task.tid, cpu=task.cpu_id,
                      socket=task.numa_node, prio=task.priority, now_ns=now)
    elif hook == HOOK_CMP_NODE:
        values.update(node_fields("shuffler", env.get("shuffler_node")))
        curr = env.get("curr_node")
        values.update(node_fields("curr", curr))
        if curr is not None:
            values["curr_boost"] = curr.task.tags.get("boost", 0)
            values["curr_cs_hint"] = curr.meta.get("cs_hint", 0)
    elif hook == HOOK_SKIP_SHUFFLE:
        values.update(node_fields("shuffler", env.get("shuffler_node")))
    else:
        values.update(node_fields("curr", env.get("curr_node")))
        values["spin_budget_ns"] = getattr(env.get("lock"), "spin_budget_ns", 0)
    return values


class _CaptureVM(VM):
    def run(self, program, ctx_values, task=None, engine=None):
        self.ctx = list(ctx_values)
        return 0, 0


_time = st.one_of(st.integers(min_value=0, max_value=1 << 40), st.floats(0, 1e9))
_num = st.one_of(st.integers(min_value=-(1 << 40), max_value=1 << 40), st.floats(-1e9, 1e9))
_ids = st.integers(min_value=0, max_value=1 << 16)


@st.composite
def _node(draw):
    if draw(st.booleans()):
        return None
    task = SimpleNamespace(
        tid=draw(_ids),
        held_locks=[object()] * draw(st.integers(min_value=0, max_value=3)),
        tags=draw(st.dictionaries(st.just("boost"), _num, max_size=1)),
    )
    return SimpleNamespace(
        task=task, cpu=draw(_ids), socket=draw(_ids), priority=draw(_num),
        enqueue_time=draw(_time), meta=draw(st.dictionaries(st.just("cs_hint"), _num, max_size=1)),
    )


@given(
    hook=st.sampled_from(sorted(ALL_HOOKS)),
    now=_time,
    lock_id=_ids,
    shuffler=_node(),
    curr=_node(),
    task=st.builds(SimpleNamespace, tid=_ids, cpu_id=_ids, numa_node=_ids, priority=_num),
    spin_budget=_num,
)
@settings(max_examples=300, deadline=None)
def test_packers_match_dict_then_pack(hook, now, lock_id, shuffler, curr, task, spin_budget):
    layout = LAYOUT_FOR_HOOK[hook]
    vm = _CaptureVM()
    fn = make_hook_fn(hook, compile_policy("def f(ctx):\n    return 0\n", layout), vm,
                      lambda lock: lock_id)
    lock = SimpleNamespace(engine=SimpleNamespace(now=now), spin_budget_ns=spin_budget)
    env = {"lock": lock, "task": task, "shuffler_node": shuffler, "curr_node": curr}
    fn(env)
    assert vm.ctx == layout.pack(_reference_values(hook, env, lock_id, now))
