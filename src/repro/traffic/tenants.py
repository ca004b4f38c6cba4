"""Per-tenant request mixes.

A :class:`Tenant` is a named traffic source with a relative weight (its
share of arrivals) and an op mix (which lock workload each of its
requests exercises, by op key).  A :class:`TenantSet` assigns every
arrival to a tenant and an op with two weighted draws from the trace
generator's RNG — deterministic given the seed, and recorded in the
trace so per-tenant attribution survives into guard evidence.
"""

from __future__ import annotations

from bisect import bisect_right
from random import Random
from typing import Any, Sequence, Tuple

__all__ = ["Tenant", "TenantSet"]


def _cumulative(weights: Sequence[float]) -> Tuple[Tuple[float, ...], float]:
    """Running sums of ``weights`` and their total, computed once.

    Both add in the order given, the total with the builtin ``sum``:
    another order can round differently and move a draw, and with it
    every trace a seed names (``tests/golden/traffic/traces.jsonl``).
    """
    sums = []
    acc = 0.0
    for weight in weights:
        acc += weight
        sums.append(acc)
    return tuple(sums), sum(weights)


def _weighted(
    rng: Random, items: Sequence[Any], sums: Sequence[float], total: float
) -> Any:
    """One weighted draw: the first item whose running sum exceeds the roll.

    One ``rng.random()`` per draw, whatever the number of items.
    """
    i = bisect_right(sums, rng.random() * total)
    return items[i] if i < len(items) else items[-1]


class Tenant:
    """One traffic source: a share of arrivals and an op mix."""

    def __init__(
        self, name: str, weight: float, mix: Sequence[Tuple[str, float]]
    ) -> None:
        if weight <= 0:
            raise ValueError(f"tenant {name!r}: weight must be positive")
        if not mix or any(w <= 0 for _, w in mix):
            raise ValueError(f"tenant {name!r}: mix needs positive-weight ops")
        self.name = name
        self.weight = weight
        self.mix: Tuple[Tuple[str, float], ...] = tuple(mix)
        self._ops = tuple(op for op, _ in self.mix)
        self._sums, self._total = _cumulative([w for _, w in self.mix])

    def draw_op(self, rng: Random) -> str:
        return _weighted(rng, self._ops, self._sums, self._total)

    def __repr__(self) -> str:
        ops = "/".join(op for op, _ in self.mix)
        return f"Tenant({self.name}, w={self.weight:g}, {ops})"


class TenantSet:
    """A weighted population of tenants."""

    def __init__(self, tenants: Sequence[Tenant]) -> None:
        if not tenants:
            raise ValueError("a tenant set needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.tenants: Tuple[Tenant, ...] = tuple(tenants)
        self._sums, self._total = _cumulative([t.weight for t in self.tenants])

    def assign(self, rng: Random) -> Tuple[str, str]:
        """Draw ``(tenant_name, op_key)`` for one arrival."""
        tenant = _weighted(rng, self.tenants, self._sums, self._total)
        return tenant.name, tenant.draw_op(rng)

    def op_keys(self) -> Tuple[str, ...]:
        """Every op key any tenant can emit (sorted, deduplicated)."""
        keys = {op for t in self.tenants for op, _ in t.mix}
        return tuple(sorted(keys))

    def __len__(self) -> int:
        return len(self.tenants)

    def __iter__(self):
        return iter(self.tenants)

    @classmethod
    def single(cls, ops: Sequence[Tuple[str, float]], name: str = "default") -> "TenantSet":
        """Convenience: one tenant owning the whole mix."""
        return cls([Tenant(name, 1.0, ops)])
