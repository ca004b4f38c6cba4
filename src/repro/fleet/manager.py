"""Fleet membership: named kernels and their per-kernel control planes.

A :class:`FleetMember` bundles everything one shard needs — the kernel,
its :class:`~repro.concord.Concord`, and a :class:`Concordd` with its
own journal shard, SLO guard, impl registry, and admission gates.  The
:class:`FleetManager` is the directory: members register and deregister
at runtime, and the coordinator/planner address them by name.

Members are deliberately *independent*: separate simulated clocks,
separate bpffs, separate journals.  Everything cross-kernel (wave
ordering, verdict aggregation, fleet-level recovery) lives above, in
:mod:`repro.fleet.coordinator` — so a member can be run, crashed, and
recovered exactly like a standalone single-kernel daemon.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..concord.framework import Concord
from ..controlplane.daemon import Concordd
from ..controlplane.lifecycle import ControlPlaneError
from ..kernel.core import Kernel

__all__ = ["FleetError", "FleetManager", "FleetMember"]


class FleetError(ControlPlaneError):
    """Fleet membership misuse (duplicate name, unknown member, ...)."""


class FleetMember:
    """One shard of the fleet: a kernel plus its control plane.

    Args:
        name: fleet-unique member name (``k0``, ``cell-eu-1``, ...).
        kernel: the member's simulated kernel (the member builds its own
            :class:`~repro.concord.Concord` over it).
        replica_group: optional replica group (duck-typed: anything with
            ``journal()`` and ``fence(epoch)``) backing this member's
            policy store.  When set and no explicit ``journal`` kwarg is
            given, the daemon journals through the group's replicated
            journal, and every restart fences the group's leader lease
            forward alongside the member epoch.
        **daemon_kwargs: forwarded to :class:`Concordd` — guard,
            journal, impl_registry, canary knobs.  Remembered so
            :meth:`restart` can rebuild the daemon after a crash with
            identical configuration.
    """

    def __init__(
        self,
        name: str,
        kernel: Kernel,
        replica_group=None,
        **daemon_kwargs,
    ) -> None:
        self.name = name
        self.kernel = kernel
        self.concord = Concord(kernel)
        self.replica_group = replica_group
        if replica_group is not None and "journal" not in daemon_kwargs:
            daemon_kwargs["journal"] = replica_group.journal()
        journal = daemon_kwargs.get("journal")
        if journal is not None and journal.member is None:
            # Stamp the owning member into the shard so corruption errors
            # name whose journal rotted, not just which file.
            journal.member = name
        self._daemon_kwargs = dict(daemon_kwargs)
        self.daemon = Concordd(self.concord, **self._daemon_kwargs)
        #: Fencing token: bumped on every restart/reinstate, never
        #: reset.  A coordinator that observed epoch N refuses to apply
        #: wave state to the member at epoch N+1 — the member must be
        #: re-planned, not blindly patched.
        self.epoch = 0

    # ------------------------------------------------------------------
    def restart(self) -> Concordd:
        """Model the member's daemon process restarting.

        The old daemon is detached (a dead process journals nothing and
        reacts to nothing); a fresh one is built with the same
        configuration — including the *same* journal object, which for a
        file-backed journal means appending to the same file a restarted
        ``concordd`` would reopen.  The caller decides whether to run
        :meth:`Concordd.recover` on the result.
        """
        if self.daemon is not None and not self.daemon._detached:
            self.daemon.detach()
        self.daemon = Concordd(self.concord, **self._daemon_kwargs)
        self.epoch += 1
        if self.replica_group is not None:
            # The lease epoch rides the member's fencing epoch: any
            # writer holding a pre-restart lease on this member's
            # replica group is rejected (StaleLeaderFenced) exactly as
            # a coordinator holding the pre-restart rollout epoch is
            # rejected (EpochFenced).
            self.replica_group.fence(self.epoch)
        return self.daemon

    @property
    def journal(self):
        return self._daemon_kwargs.get("journal")

    def register_impl(self, impl_name: str, factory) -> None:
        """Register a lock-implementation factory on the live daemon AND
        in the remembered config, so a daemon rebuilt by :meth:`restart`
        can still re-attach a recovered policy by ``impl_name`` (the
        adaptation loop registers its ``culling-cap{N}`` factories this
        way before proposing a cull)."""
        self.daemon.impl_registry[impl_name] = factory
        registry = dict(self._daemon_kwargs.get("impl_registry") or {})
        registry[impl_name] = factory
        self._daemon_kwargs["impl_registry"] = registry

    def select_locks(self, selector: str) -> List[str]:
        return self.kernel.locks.select_names(selector)

    def __repr__(self) -> str:
        return (
            f"FleetMember({self.name!r}, {len(self.kernel.locks)} locks, "
            f"{len(self.daemon.records)} records)"
        )


class FleetManager:
    """The membership directory: register, deregister, look up, select."""

    def __init__(self) -> None:
        self._members: Dict[str, FleetMember] = {}
        #: name -> cause for members pulled out of service.
        self._quarantined: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        kernel: Kernel,
        replica_group=None,
        **daemon_kwargs,
    ) -> FleetMember:
        """Add a kernel to the fleet under ``name``.

        Raises :class:`FleetError` on a duplicate name — member names
        are the unit of addressing in plans and journals, so reusing one
        would corrupt any in-flight rollout.
        """
        if name in self._members:
            raise FleetError(f"fleet member {name!r} is already registered")
        member = FleetMember(name, kernel, replica_group=replica_group, **daemon_kwargs)
        self._members[name] = member
        return member

    def deregister(self, name: str, force: bool = False) -> FleetMember:
        """Remove a member from the fleet.

        A member whose daemon still holds live policies is refused
        unless ``force`` — dropping it would orphan installed state that
        no fleet-level rollback could ever reach again.  The departing
        member's daemon is detached either way.
        """
        member = self.member(name)
        live = [r.name for r in member.daemon.records.values() if r.live]
        if live and not force:
            raise FleetError(
                f"fleet member {name!r} still has live policies "
                f"({', '.join(sorted(live))}); withdraw them or pass force=True"
            )
        del self._members[name]
        self._quarantined.pop(name, None)
        if not member.daemon._detached:
            member.daemon.detach()
        return member

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(self, name: str, cause: str = "") -> FleetMember:
        """Pull ``name`` out of service without deregistering it.

        A quarantined member keeps its kernel, daemon, and installed
        state, but is excluded from placement learning, planning, and
        waves — the coordinator treats it as unreachable and tracks its
        installed policies as revert debt.  Idempotent: re-quarantining
        keeps the original cause.
        """
        member = self.member(name)
        self._quarantined.setdefault(name, cause)
        return member

    def reinstate(self, name: str) -> FleetMember:
        """Return a quarantined member to service.

        The member's epoch is fenced forward (via :meth:`FleetMember.\
restart`): whatever happened while it was out — reboots, manual
        surgery, missed waves — any coordinator still holding its old
        epoch must re-plan rather than resume patching it.  The restart
        also models the operator bouncing the daemon before readmission;
        run :meth:`Concordd.recover` on the result to reattach journaled
        state.
        """
        member = self.member(name)
        if name not in self._quarantined:
            raise FleetError(f"fleet member {name!r} is not quarantined")
        del self._quarantined[name]
        member.restart()
        return member

    def is_quarantined(self, name: str) -> bool:
        return name in self._quarantined

    def quarantined(self) -> Dict[str, str]:
        """``name -> cause`` for every quarantined member."""
        return dict(self._quarantined)

    def active_members(self) -> List[FleetMember]:
        """Members in service: registered and not quarantined."""
        return [m for m in self.members() if m.name not in self._quarantined]

    def active_names(self) -> List[str]:
        return [m.name for m in self.active_members()]

    # ------------------------------------------------------------------
    def member(self, name: str) -> FleetMember:
        try:
            return self._members[name]
        except KeyError:
            raise FleetError(f"no fleet member named {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._members)

    def members(self) -> List[FleetMember]:
        return [self._members[name] for name in self.names()]

    def select(self, selector: str) -> Dict[str, List[str]]:
        """``member name -> matching lock names`` across the fleet
        (members with no match are omitted)."""
        matches = {}
        for member in self.members():
            names = member.select_locks(selector)
            if names:
                matches[member.name] = names
        return matches

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[FleetMember]:
        return iter(self.members())

    def describe(self) -> Dict[str, object]:
        return {
            name: {
                "locks": len(member.kernel.locks),
                "policies": len(member.daemon.records),
                "clients": member.daemon.admission.clients(),
                "epoch": member.epoch,
                "quarantined": name in self._quarantined,
            }
            for name, member in sorted(self._members.items())
        }
