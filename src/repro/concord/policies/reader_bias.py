"""BRAVO reader-bias control: the Figure 2(a) lock modification.

"For the BRAVO, we explicitly switch between a neutral readers-writer
lock to a distributed version for readers" — i.e. Concord livepatches a
BRAVO layer over the stock rw-semaphore and userspace can toggle the
reader bias at run time (a *parameter* change rather than a program).
"""

from __future__ import annotations

from ...locks.bravo import BravoLock
from ..framework import Concord

__all__ = ["install_bravo", "set_reader_bias"]


def install_bravo(concord: Concord, lock_name: str, start_biased: bool = True):
    """Livepatch a BRAVO layer over an existing rw lock call site.

    Returns the applied patch; the switch engages once in-flight
    critical sections drain (``concord.switch_latency(lock_name)``).
    """
    engine = concord.kernel.engine

    def factory(old_impl):
        return BravoLock(engine, old_impl, name=f"bravo.{lock_name}", start_biased=start_biased)

    return concord.switch_lock(lock_name, factory)


def set_reader_bias(concord: Concord, lock_name: str, enabled: bool) -> None:
    """Toggle an installed BRAVO layer's reader bias from userspace."""
    impl = concord._site(lock_name).impl
    if not isinstance(impl, BravoLock):
        raise TypeError(f"{lock_name} is not backed by a BravoLock (got {type(impl).__name__})")
    concord.kernel.engine.external_store(impl.rbias, 1 if enabled else 0)
    concord._notify("param", f"{lock_name}: reader bias {'on' if enabled else 'off'}")
