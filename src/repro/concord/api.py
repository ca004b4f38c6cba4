"""The Concord lock APIs — Table 1 of the paper.

Seven hook points, two groups:

===========================  ==========================================  =====================
API                          Description                                 Hazard
===========================  ==========================================  =====================
``cmp_node``                 move current node forward?                  fairness
``skip_shuffle``             skip shuffling / hand over shuffler         fairness
``schedule_waiter``          waking/parking/priority for a lock          performance
``lock_acquire``             invoked when trying to acquire              longer critical section
``lock_contended``           invoked when trylock failed, must wait      longer critical section
``lock_acquired``            invoked when actually acquired              longer critical section
``lock_release``             invoked on release                          longer critical section
===========================  ==========================================  =====================

Each hook has a :class:`~repro.bpf.program.ContextLayout` (the read-only
struct its program receives) and a *packer* that builds the context
values, in layout order, straight from the lock's hook environment.
:func:`make_hook_fn` glues a verified program to a lock's
:class:`~repro.locks.base.HookSet` slot.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..bpf.helpers import int_annotation
from ..bpf.program import ContextLayout
from ..bpf.vm import VM
from ..locks.base import (
    ALL_HOOKS,
    HOOK_CMP_NODE,
    HOOK_LOCK_ACQUIRE,
    HOOK_LOCK_ACQUIRED,
    HOOK_LOCK_CONTENDED,
    HOOK_LOCK_RELEASE,
    HOOK_SCHEDULE_WAITER,
    HOOK_SKIP_SHUFFLE,
)

__all__ = [
    "CMP_NODE_LAYOUT",
    "SKIP_SHUFFLE_LAYOUT",
    "SCHEDULE_WAITER_LAYOUT",
    "LOCK_EVENT_LAYOUT",
    "LAYOUT_FOR_HOOK",
    "EVENT_IDS",
    "make_hook_fn",
    "HOOK_HAZARDS",
]

CMP_NODE_LAYOUT = ContextLayout(
    "cmp_node",
    [
        "lock_id",
        "shuffler_tid",
        "shuffler_cpu",
        "shuffler_socket",
        "shuffler_prio",
        "shuffler_wait_ns",
        "shuffler_held_locks",
        "curr_tid",
        "curr_cpu",
        "curr_socket",
        "curr_prio",
        "curr_wait_ns",
        "curr_held_locks",
        "curr_boost",
        "curr_cs_hint",
    ],
)

SKIP_SHUFFLE_LAYOUT = ContextLayout(
    "skip_shuffle",
    [
        "lock_id",
        "shuffler_tid",
        "shuffler_cpu",
        "shuffler_socket",
        "shuffler_prio",
        "shuffler_wait_ns",
    ],
)

SCHEDULE_WAITER_LAYOUT = ContextLayout(
    "schedule_waiter",
    [
        "lock_id",
        "curr_tid",
        "curr_cpu",
        "curr_socket",
        "curr_prio",
        "curr_wait_ns",
        "spin_budget_ns",
    ],
)

#: One layout serves all four profiling hooks; ``event`` discriminates.
LOCK_EVENT_LAYOUT = ContextLayout(
    "lock_event",
    ["lock_id", "event", "tid", "cpu", "socket", "prio", "now_ns"],
)

EVENT_IDS = {
    HOOK_LOCK_ACQUIRE: 0,
    HOOK_LOCK_CONTENDED: 1,
    HOOK_LOCK_ACQUIRED: 2,
    HOOK_LOCK_RELEASE: 3,
}

LAYOUT_FOR_HOOK: Dict[str, ContextLayout] = {
    HOOK_CMP_NODE: CMP_NODE_LAYOUT,
    HOOK_SKIP_SHUFFLE: SKIP_SHUFFLE_LAYOUT,
    HOOK_SCHEDULE_WAITER: SCHEDULE_WAITER_LAYOUT,
    HOOK_LOCK_ACQUIRE: LOCK_EVENT_LAYOUT,
    HOOK_LOCK_CONTENDED: LOCK_EVENT_LAYOUT,
    HOOK_LOCK_ACQUIRED: LOCK_EVENT_LAYOUT,
    HOOK_LOCK_RELEASE: LOCK_EVENT_LAYOUT,
}

HOOK_HAZARDS: Dict[str, str] = {
    HOOK_CMP_NODE: "fairness",
    HOOK_SKIP_SHUFFLE: "fairness",
    HOOK_SCHEDULE_WAITER: "performance",
    HOOK_LOCK_ACQUIRE: "increase critical section",
    HOOK_LOCK_CONTENDED: "increase critical section",
    HOOK_LOCK_ACQUIRED: "increase critical section",
    HOOK_LOCK_RELEASE: "increase critical section",
}

assert set(LAYOUT_FOR_HOOK) == set(ALL_HOOKS)


_NO_NODE = (0, 0, 0, 0, 0, 0)


def _node(node, now) -> Tuple[int, ...]:
    """``tid, cpu, socket, prio, wait_ns, held_locks`` of one queue node
    (zeros if absent)."""
    if node is None:
        return _NO_NODE
    task = node.task
    wait = now - node.enqueue_time
    return (
        task.tid,
        node.cpu,
        node.socket,
        int(node.priority),
        int(wait) if wait > 0 else 0,
        len(task.held_locks),
    )


def _pack_cmp_node(env: Dict[str, Any], lock_id: int, now) -> List[int]:
    curr = env.get("curr_node")
    values = [lock_id, *_node(env.get("shuffler_node"), now), *_node(curr, now)]
    if curr is None:
        values += (0, 0)
    else:
        values += (int_annotation(curr.task.tags, "boost"), int_annotation(curr.meta, "cs_hint"))
    return values


def _pack_skip_shuffle(env: Dict[str, Any], lock_id: int, now) -> List[int]:
    return [lock_id, *_node(env.get("shuffler_node"), now)[:5]]


def _pack_schedule_waiter(env: Dict[str, Any], lock_id: int, now) -> List[int]:
    node = _node(env.get("curr_node"), now)[:5]
    return [lock_id, *node, int(getattr(env.get("lock"), "spin_budget_ns", 0))]


def _lock_event_packer(event: int) -> Callable[[Dict[str, Any], int, Any], List[int]]:
    def pack(env: Dict[str, Any], lock_id: int, now) -> List[int]:
        task = env["task"]
        return [lock_id, event, task.tid, task.cpu_id, task.numa_node, int(task.priority), int(now)]

    return pack


#: hook -> packer(env, lock_id, now): the hook's context values in layout
#: order.  Simulator-assigned ids and counts go in as they are; sim times
#: (floats on AMP machines), priorities, tags and node metadata pass
#: through ``int()``, as :meth:`ContextLayout.pack` would.
_PACKERS: Dict[str, Callable[[Dict[str, Any], int, Any], List[int]]] = {
    HOOK_CMP_NODE: _pack_cmp_node,
    HOOK_SKIP_SHUFFLE: _pack_skip_shuffle,
    HOOK_SCHEDULE_WAITER: _pack_schedule_waiter,
    **{hook: _lock_event_packer(event) for hook, event in EVENT_IDS.items()},
}
assert set(_PACKERS) == set(ALL_HOOKS)


def make_hook_fn(
    hook: str,
    program,
    vm: VM,
    lock_id_of: Callable[[Any], int],
) -> Callable[[Dict[str, Any]], Tuple[int, int]]:
    """Build the HookSet entry for one verified program.

    The returned callable packs the hook environment into the program's
    context layout, runs the VM, and returns ``(r0, cost_ns)`` — the
    cost is charged as simulated time by the lock's ``_fire``.
    """
    layout = LAYOUT_FOR_HOOK[hook]
    if program.ctx_layout is not layout:
        raise ValueError(
            f"program {program.name!r} was compiled against layout "
            f"{program.ctx_layout.name!r}; hook {hook!r} needs {layout.name!r}"
        )
    pack = _PACKERS[hook]

    def fn(env: Dict[str, Any]) -> Tuple[int, int]:
        lock = env["lock"]
        engine = lock.engine
        # Lock ids are handed out lazily in first-use order: look up per call.
        values = pack(env, lock_id_of(lock), engine.now)
        return vm.run(program, values, task=env.get("task"), engine=engine)

    return fn
