"""Policy objects: what a user hands to Concord, and how policies compose.

A :class:`PolicySpec` is pure data: a name, a hook point, restricted-
Python source, the maps it references, and a lock selector (a glob over
registry names — "this replacement can range from one lock instance to
every lock in the kernel", §4).

Composition (§6 "Composing policies"): several policies may target the
same hook of the same lock.  Concord chains their programs — the eBPF
program-chaining the paper leans on — and combines results with the
hook's combiner:

* decision hooks default to ``"or"`` (any policy voting to move/skip
  wins); ``"and"`` and ``"first"`` are available;
* profiling hooks always run every program (results ignored).

Conflicts are detected, not silently resolved: a policy marked
``exclusive`` refuses to share its (hook, lock) slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bpf.maps import BPFMap
from ..locks.base import ALL_HOOKS, DECISION_HOOKS, LockError

__all__ = ["PolicySpec", "LoadedPolicy", "PolicyConflictError", "combine_results", "COMBINERS"]

COMBINERS = ("or", "and", "first", "sum")


class PolicyConflictError(LockError):
    """Two policies cannot share a (hook, lock) slot."""


class PolicySpec:
    """A userspace policy, before loading.

    Args:
        name: unique policy name.
        hook: one of the seven Table 1 hook points.
        source: restricted-Python source (see :mod:`repro.bpf.frontend`).
        maps: name -> map bindings the source references.
        lock_selector: glob over registered lock names ("*" = all).
        combiner: how to merge this hook's chained results.
        exclusive: refuse to share the (hook, lock) slot.
        priority: chain position — higher runs earlier.
    """

    def __init__(
        self,
        name: str,
        hook: str,
        source: str,
        maps: Optional[Dict[str, BPFMap]] = None,
        lock_selector: str = "*",
        combiner: str = "or",
        exclusive: bool = False,
        priority: int = 0,
    ) -> None:
        if hook not in ALL_HOOKS:
            raise ValueError(f"unknown hook {hook!r}")
        if combiner not in COMBINERS:
            raise ValueError(f"combiner must be one of {COMBINERS}")
        self.name = name
        self.hook = hook
        self.source = source
        self.maps = dict(maps or {})
        self.lock_selector = lock_selector
        self.combiner = combiner
        self.exclusive = exclusive
        self.priority = priority

    def __repr__(self) -> str:
        return f"PolicySpec({self.name!r}, hook={self.hook}, locks={self.lock_selector!r})"


class LoadedPolicy:
    """A policy after compile + verify + store (framework-internal)."""

    def __init__(self, spec: PolicySpec, program, verdict, pinned_path: str) -> None:
        self.spec = spec
        self.program = program
        self.verdict = verdict
        self.pinned_path = pinned_path
        self.attached_locks: List[str] = []
        #: runtime circuit breaker (fail-open degradation)
        self.fault_count = 0
        self.tripped = False

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return (
            f"LoadedPolicy({self.name!r}, hook={self.spec.hook}, "
            f"locks={len(self.attached_locks)})"
        )


def conflict(existing: PolicySpec, new: PolicySpec) -> Optional[str]:
    """Why ``new`` cannot share a (hook, lock) chain with ``existing``
    (one of them is exclusive, or their combiners differ); ``None``
    when the two compose.  The one rule behind load/attach and every
    admission check."""
    if existing.exclusive or new.exclusive:
        return f"{(existing if existing.exclusive else new).name!r} is exclusive"
    if existing.combiner != new.combiner:
        return f"they disagree on the combiner ({existing.combiner!r} vs {new.combiner!r})"
    return None


def check_conflicts(existing: Sequence[LoadedPolicy], new: PolicySpec, lock_name: str) -> None:
    """Raise if ``new`` cannot join the chain on (hook, lock)."""
    for policy in existing:
        reason = conflict(policy.spec, new)
        if reason is not None:
            raise PolicyConflictError(
                f"policy {new.name!r} conflicts with {policy.name!r} on "
                f"{new.hook}@{lock_name}: {reason}"
            )


def combine_results(combiner: str, results: Sequence[int]) -> int:
    """Fold chained program results into one hook decision."""
    if not results:
        return 0
    if combiner == "or":
        for value in results:
            if value:
                return value
        return 0
    if combiner == "and":
        for value in results:
            if not value:
                return 0
        return results[-1]
    if combiner == "first":
        return results[0]
    if combiner == "sum":
        return sum(results) & ((1 << 64) - 1)
    raise ValueError(f"unknown combiner {combiner!r}")
