"""The simulated network fabric: named endpoints, modelled links.

A :class:`Fabric` is the wire every cross-member message in the fleet
crosses: coordinator → member calls, health probes, and a replica
group's appends/reads/catch-ups all ask the fabric for a delivery and
either get back a latency (simulated ns the caller charges to the
destination's clock) or a :class:`~repro.netsim.errors.NetError`.

Links are *directed* and lazily created, so a freshly constructed
``Fabric()`` is the identity network — every endpoint connected to
every other at zero latency, no drops, no reordering.  That default is
load-bearing: a component not handed a fabric makes itself a private
flat one, so every cross-member call takes one code path, and a flat
fabric draws no randomness and adds no delay.  Partitions, latency
models, chaos faults, and schedules only change behaviour once someone
configures them.

**Partitions.**  :meth:`Fabric.partition` cuts the links between named
groups; with ``asymmetric=True`` the first group still *hears* the
others (their messages to it are delivered) but nothing it sends
crosses out — the classic half-open failure where a deposed leader
keeps receiving acknowledgements it can no longer earn.
:meth:`Fabric.heal` restores every link.

**Time.**  The fabric has no clock of its own; it tracks the high-water
mark of the ``now_ns`` values callers pass (each simulated kernel keeps
its own clock) and uses it to apply the attached
:class:`~repro.netsim.schedule.PartitionSchedule`'s events and to expire
injected timed partitions (``net.partition.flip`` stalls).

**Chaos.**  Every delivery consults two fault sites: a fail-rule at
``net.partition.flip`` raises :class:`LinkDown` and a *stall*-rule
there partitions the link for the stall's duration of simulated time
(self-healing — the adversary cannot strand the fleet forever); at
``net.link.deliver`` a fail-rule drops the one message and a stall-rule
adds latency to it.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..faults import SITE_NET_LINK_DELIVER, SITE_NET_PARTITION_FLIP, fault_point
from .errors import LinkDown, MessageDropped, NetError

__all__ = ["Fabric", "Link", "LinkModel"]


class LinkModel(NamedTuple):
    """Per-link delivery model.  The default is a perfect wire.

    ``latency_ns`` is charged on every delivery; ``jitter_ns`` adds a
    uniform draw on top.  ``drop`` loses the message outright
    (:class:`MessageDropped`).  ``duplicate`` delivers a spurious second
    copy — counted by the fabric; the RPC layers above are at-least-once
    and idempotent, so a duplicate costs nothing but is observable.
    ``reorder`` delays the message behind its successors by
    ``reorder_ns`` extra (or one more latency when unset), the visible
    effect reordering has on a request/response wire.
    """

    latency_ns: int = 0
    jitter_ns: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_ns: int = 0


class Link:
    """One directed ``src -> dst`` edge and its state."""

    __slots__ = ("src", "dst", "model", "up", "down_until_ns")

    def __init__(self, src: str, dst: str, model: LinkModel) -> None:
        self.src = src
        self.dst = dst
        self.model = model
        self.up = True
        #: A timed (injected) partition: the link is dark until the
        #: fabric's clock passes this mark, then self-heals.
        self.down_until_ns = 0

    def describe(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"{self.src}->{self.dst}: {state} {self.model}"

    def __repr__(self) -> str:
        return f"Link({self.describe()})"


class Fabric:
    """A mesh of named endpoints with per-link delivery models.

    Args:
        seed: drives every stochastic knob (jitter, drop, duplicate,
            reorder) — same seed, same call sequence, same outcomes.  A
            fabric whose models have no stochastic knobs never touches
            the RNG, so attaching one to an existing scenario perturbs
            nothing.
        schedule: optional :class:`~repro.netsim.schedule.\
PartitionSchedule` applied as observed simulated time passes
            (:meth:`advance`).
    """

    def __init__(self, seed: int = 0, schedule=None) -> None:
        self._rng = Random(seed)
        #: The model lazily-created links start with (:meth:`set_model`
        #: with neither end named replaces it).
        self.default_model = LinkModel()
        self.endpoints: List[str] = []
        self._links: Dict[Tuple[str, str], Link] = {}
        self.schedule = schedule
        self._next_event = 0
        #: High-water mark of the ``now_ns`` values deliveries carried.
        self.clock_ns = 0
        # Observability counters.
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.rejected = 0  # deliveries refused by a partitioned link
        self.flips = 0  # injected timed partitions
        #: Schedule events applied so far (for assertions/replay audits).
        self.applied: List[object] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_endpoint(self, name: str) -> str:
        if name not in self.endpoints:
            self.endpoints.append(name)
        return name

    def link(self, src: str, dst: str) -> Link:
        """The directed link, lazily created with the default model."""
        if src == dst:
            raise NetError(f"no self-link: {src!r}")
        self.add_endpoint(src)
        self.add_endpoint(dst)
        key = (src, dst)
        found = self._links.get(key)
        if found is None:
            found = self._links[key] = Link(src, dst, self.default_model)
        return found

    def set_model(
        self,
        model: LinkModel,
        src: Optional[str] = None,
        dst: Optional[str] = None,
    ) -> None:
        """Install ``model`` on matching links (and on future ones when
        neither end is named: it becomes the default)."""
        if src is None and dst is None:
            self.default_model = model
            for link in self._links.values():
                link.model = model
            return
        for link in self._links.values():
            if (src is None or link.src == src) and (dst is None or link.dst == dst):
                link.model = model
        if src is not None and dst is not None:
            self.link(src, dst).model = model

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def cut(self, src: str, dst: str, symmetric: bool = False) -> None:
        """Take the directed link down (both directions when
        ``symmetric``)."""
        self.link(src, dst).up = False
        if symmetric:
            self.link(dst, src).up = False

    def restore(self, src: str, dst: str, symmetric: bool = False) -> None:
        link = self.link(src, dst)
        link.up = True
        link.down_until_ns = 0
        if symmetric:
            self.restore(dst, src)

    def partition(
        self,
        groups: Sequence[Iterable[str]],
        asymmetric: bool = False,
    ) -> None:
        """Split the named endpoints into isolated groups.

        Links *within* a group stay up; links *between* groups go down.
        Endpoints in no group keep full connectivity.  With
        ``asymmetric=True``, ``groups[0]`` still hears the other groups
        (their links into it stay up) but nothing it sends crosses out
        — "A hears B, B doesn't hear A" with A = ``groups[0]``.
        """
        sides = [list(g) for g in groups]
        if len(sides) < 2:
            raise NetError("a partition needs at least two groups")
        for i, left in enumerate(sides):
            for j, right in enumerate(sides):
                if i == j:
                    continue
                for src in left:
                    for dst in right:
                        if src == dst:
                            continue
                        if asymmetric and j == 0:
                            # Traffic *into* groups[0] survives: it
                            # hears everyone, nobody hears it.
                            continue
                        self.cut(src, dst)

    def heal(self) -> None:
        """Restore every link (scheduled, operator, and timed cuts)."""
        for link in self._links.values():
            link.up = True
            link.down_until_ns = 0

    def reachable(self, src: str, dst: str) -> bool:
        link = self.link(src, dst)
        return link.up and self.clock_ns >= link.down_until_ns

    # ------------------------------------------------------------------
    # Time + schedule
    # ------------------------------------------------------------------
    def advance(self, now_ns: int) -> None:
        """Note that simulated time reached ``now_ns`` somewhere, and
        apply any schedule events that are now due.  Monotonic: stale
        clocks (another member lagging behind) never rewind it."""
        if now_ns > self.clock_ns:
            self.clock_ns = now_ns
        if self.schedule is None:
            return
        events = self.schedule.events
        while self._next_event < len(events):
            event = events[self._next_event]
            if event.at_ns > self.clock_ns:
                break
            self._next_event += 1
            self.schedule.apply(self, event)
            self.applied.append(event)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(
        self,
        src: str,
        dst: str,
        op: Optional[str] = None,
        now_ns: Optional[int] = None,
    ) -> int:
        """Attempt one ``src -> dst`` message; returns the latency (ns)
        the caller should charge, or raises a :class:`NetError`.

        ``now_ns`` (the sender's or destination's simulated clock) feeds
        :meth:`advance`, so schedules and timed partitions progress with
        the traffic that observes them.
        """
        link = self.link(src, dst)
        if now_ns is not None:
            self.advance(now_ns)
        # An injected timed partition: a stall-rule here takes this link
        # dark for the stall's duration; a fail-rule rejects just this
        # message as already-partitioned.
        flip = fault_point(
            SITE_NET_PARTITION_FLIP,
            default_exc=LinkDown,
            src=src,
            dst=dst,
            op=op,
        )
        if flip:
            link.down_until_ns = max(link.down_until_ns, self.clock_ns + flip)
            self.flips += 1
        if not link.up or self.clock_ns < link.down_until_ns:
            self.rejected += 1
            raise LinkDown(
                f"link {src}->{dst} is partitioned"
                + (
                    f" until t={link.down_until_ns}ns"
                    if link.up and link.down_until_ns
                    else ""
                )
            )
        # Per-message chaos: fail drops this message, stall delays it.
        extra = fault_point(
            SITE_NET_LINK_DELIVER,
            default_exc=MessageDropped,
            src=src,
            dst=dst,
            op=op,
        )
        model = link.model
        if model.drop and self._rng.random() < model.drop:
            self.dropped += 1
            raise MessageDropped(f"message {src}->{dst} ({op or 'msg'}) dropped")
        latency = model.latency_ns
        if model.jitter_ns:
            latency += self._rng.randint(0, model.jitter_ns)
        if model.duplicate and self._rng.random() < model.duplicate:
            self.duplicated += 1
        if model.reorder and self._rng.random() < model.reorder:
            self.reordered += 1
            latency += model.reorder_ns or model.latency_ns
        self.delivered += 1
        return latency + extra

    # ------------------------------------------------------------------
    def describe(self) -> str:
        down = sorted(
            f"{l.src}->{l.dst}"
            for l in self._links.values()
            if not l.up or self.clock_ns < l.down_until_ns
        )
        rows = [
            f"fabric: {len(self.endpoints)} endpoints, "
            f"{len(self._links)} links ({len(down)} down), "
            f"t={self.clock_ns}ns",
            f"  delivered {self.delivered}, dropped {self.dropped}, "
            f"duplicated {self.duplicated}, reordered {self.reordered}, "
            f"rejected {self.rejected}",
        ]
        if down:
            rows.append(f"  down: {', '.join(down)}")
        return "\n".join(rows)

    def __repr__(self) -> str:
        return (
            f"Fabric({len(self.endpoints)} endpoints, "
            f"{self.delivered} delivered, {self.rejected} rejected)"
        )
