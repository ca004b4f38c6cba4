"""Blocking mutex with a tunable spin-then-park policy.

Models the kernel's generic mutex: an acquirer spins optimistically for
a while (hoping the holder releases soon) and then parks.  The spin
budget is the knob §3.1.1 calls the "adaptable parking/wake-up
strategy": kernels hard-code it, C3 lets applications set it from
userspace — either directly (``spin_budget_ns``) or per-acquisition
through the ``schedule_waiter`` hook, which can consult a BPF map with
the measured critical-section length.
"""

from __future__ import annotations

from typing import Iterator, List

from ..sim.ops import CAS, Delay, Load, Park, Store, Unpark
from ..sim.task import Task
from .base import HOOK_SCHEDULE_WAITER, Lock

__all__ = ["SpinParkMutex"]

_UNLOCKED = 0
_LOCKED = 1

_POLL_NS = 200


class SpinParkMutex(Lock):
    kind = "mutex"

    def __init__(self, engine, name: str = "", spin_budget_ns: int = 5000) -> None:
        super().__init__(engine, name)
        self.word = engine.cell(_UNLOCKED, name=f"{self.name}.word")
        self.spin_budget_ns = spin_budget_ns
        self._parked: List[Task] = []
        self.park_count = 0

    def acquire(self, task: Task) -> Iterator:
        contended = False
        spun = 0
        while True:
            value = yield Load(self.word)
            if value == _UNLOCKED:
                ok, _old = yield CAS(self.word, _UNLOCKED, _LOCKED)
                if ok:
                    break
            contended = True
            budget = yield from self._spin_budget_for(task)
            if spun < budget:
                yield Delay(_POLL_NS)
                spun += _POLL_NS
                continue
            # Register, re-check, park.
            self._parked.append(task)
            value = yield Load(self.word)
            if value == _UNLOCKED:
                try:
                    self._parked.remove(task)
                except ValueError:
                    pass
            else:
                self.park_count += 1
                yield Park()
                try:
                    self._parked.remove(task)
                except ValueError:
                    pass
            spun = 0
        self._mark_acquired(task, contended)

    def _spin_budget_for(self, task: Task) -> Iterator:
        """Per-acquisition spin budget; overridable via schedule_waiter."""
        if self.hooks is not None and HOOK_SCHEDULE_WAITER in self.hooks:
            value, cost_ns = self._fire(task, HOOK_SCHEDULE_WAITER, {"curr_node": None})
            yield Delay(cost_ns)
            if value is not None and value >= 0:
                return int(value)
        return self.spin_budget_ns

    def release(self, task: Task) -> Iterator:
        self._mark_released(task)
        yield Store(self.word, _UNLOCKED)
        if self._parked:
            target = self._parked.pop(0)
            yield Unpark(target)

    def try_acquire(self, task: Task) -> Iterator:
        ok, _old = yield CAS(self.word, _UNLOCKED, _LOCKED)
        if ok:
            self._mark_acquired(task)
        return ok
