"""Helper functions callable from BPF programs.

The subset of the kernel helper surface that lock policies need (the
paper cites "CPU ID, NUMA ID and time" plus map operations).  Each
helper has a simulated execution cost; helper-heavy programs therefore
cost more on the hook path, which is part of the overhead story the
evaluation measures.

Helper calling convention: arguments in R1..R5, result in R0.  Map
helpers take the map handle (materialized by ``ld_map``) in R1.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional

from .errors import RuntimeFault
from .maps import BPFMap

__all__ = ["HelperSpec", "HELPERS", "HELPER_IDS", "helper_by_name", "int_annotation"]

_U64 = (1 << 64) - 1


class HelperSpec(NamedTuple):
    """Static description of one helper."""

    helper_id: int
    name: str
    nargs: int
    cost_ns: int
    #: fn(vmstate, args) -> int.  ``vmstate`` is the VM's execution
    #: context (task, engine, program, hook env).
    fn: Callable
    #: first argument must be a map handle
    takes_map: bool = False


def _h_get_smp_processor_id(vm, args):
    return vm.task.cpu_id if vm.task is not None else 0


def _h_get_numa_node_id(vm, args):
    return vm.task.numa_node if vm.task is not None else 0


def _h_ktime_get_ns(vm, args):
    return vm.engine.now if vm.engine is not None else 0


def _h_get_current_pid(vm, args):
    return vm.task.tid if vm.task is not None else 0


def _h_get_task_priority(vm, args):
    if vm.task is None:
        return 0
    return vm.task.priority & _U64


def int_annotation(annotations: Dict[str, Any], name: str) -> int:
    """A userspace annotation (task tag, node metadata) as the integer a
    program sees: ``int()`` of the value, 0 when absent.

    A value ``int()`` rejects raises :class:`RuntimeFault`, so the
    policy's circuit breaker counts it and the lock falls back instead
    of the error escaping the simulation.
    """
    value = annotations.get(name, 0)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise RuntimeFault(f"annotation {name!r} is not an integer: {value!r}") from None


def _h_get_task_tag(vm, args):
    """Read a userspace annotation from the current task.

    The tag name is interned at load time; args[0] is the intern index.
    Returns 0 when the task carries no such tag — absent context reads
    as "no special treatment", never an error.
    """
    if vm.task is None:
        return 0
    index = args[0]
    names = vm.program.tag_names
    if not 0 <= index < len(names):
        raise RuntimeFault(f"tag index {index} out of range")
    return int_annotation(vm.task.tags, names[index]) & _U64


def _h_prandom_u32(vm, args):
    if vm.engine is None:
        return 4
    return vm.engine.rng.getrandbits(32)


def _require_map(vm, handle) -> BPFMap:
    if not isinstance(handle, BPFMap):
        raise RuntimeFault("map helper called without a map handle in R1")
    return handle


def _h_map_lookup_elem(vm, args):
    bpf_map = _require_map(vm, args[0])
    cpu = vm.task.cpu_id if vm.task is not None else 0
    value = bpf_map.lookup(args[1], cpu=cpu)
    return 0 if value is None else value


def _h_map_contains(vm, args):
    bpf_map = _require_map(vm, args[0])
    cpu = vm.task.cpu_id if vm.task is not None else 0
    return 1 if bpf_map.lookup(args[1], cpu=cpu) is not None else 0


def _h_map_update_elem(vm, args):
    bpf_map = _require_map(vm, args[0])
    cpu = vm.task.cpu_id if vm.task is not None else 0
    bpf_map.update(args[1], args[2], cpu=cpu)
    return 0


def _h_map_delete_elem(vm, args):
    bpf_map = _require_map(vm, args[0])
    cpu = vm.task.cpu_id if vm.task is not None else 0
    return 1 if bpf_map.delete(args[1], cpu=cpu) else 0


def _h_map_add(vm, args):
    """Atomic add-to-element (the __sync_fetch_and_add idiom).

    Profiling programs increment counters on every lock event; giving
    them a single fused helper keeps hook-path instruction counts honest.
    """
    bpf_map = _require_map(vm, args[0])
    cpu = vm.task.cpu_id if vm.task is not None else 0
    current = bpf_map.lookup(args[1], cpu=cpu) or 0
    bpf_map.update(args[1], (current + args[2]) & _U64, cpu=cpu)
    return current


def _h_trace(vm, args):
    vm.program.trace.append((vm.engine.now if vm.engine else 0, args[0]))
    return 0


HELPERS: List[HelperSpec] = [
    HelperSpec(1, "get_smp_processor_id", 0, 4, _h_get_smp_processor_id),
    HelperSpec(2, "get_numa_node_id", 0, 4, _h_get_numa_node_id),
    HelperSpec(3, "ktime_get_ns", 0, 15, _h_ktime_get_ns),
    HelperSpec(4, "get_current_pid", 0, 6, _h_get_current_pid),
    HelperSpec(5, "get_task_priority", 0, 6, _h_get_task_priority),
    HelperSpec(6, "get_task_tag", 1, 8, _h_get_task_tag),
    HelperSpec(7, "prandom_u32", 0, 10, _h_prandom_u32),
    HelperSpec(8, "map_lookup_elem", 2, 18, _h_map_lookup_elem, takes_map=True),
    HelperSpec(9, "map_update_elem", 3, 22, _h_map_update_elem, takes_map=True),
    HelperSpec(10, "map_delete_elem", 2, 20, _h_map_delete_elem, takes_map=True),
    HelperSpec(11, "map_contains", 2, 18, _h_map_contains, takes_map=True),
    HelperSpec(12, "map_add", 3, 24, _h_map_add, takes_map=True),
    HelperSpec(13, "trace", 1, 30, _h_trace),
]

HELPER_IDS: Dict[int, HelperSpec] = {spec.helper_id: spec for spec in HELPERS}
_BY_NAME: Dict[str, HelperSpec] = {spec.name: spec for spec in HELPERS}


def helper_by_name(name: str) -> Optional[HelperSpec]:
    return _BY_NAME.get(name)
