"""Randomized "chaos" fault plans: sampled, not hand-written.

Hand-written :class:`~repro.faults.plan.FaultPlan`\\ s test the failure
modes someone thought of; the chaos sampler tests the ones nobody did.
:func:`sample_plan` draws a small plan — a few transient failures,
stalls, and at most one crash — from a seeded RNG, so a CI job can run
the same scenario under many adversaries (``pytest --chaos-seed N``)
and any red seed reproduces locally bit-for-bit.

The sampled rules are deliberately *survivable*: transient fail-rules
fire a bounded number of times at sites the pipeline either retries
(recovery's verifier/pin retries) or resolves fail-open (admission
denial → REJECTED, canary install failure → ROLLED_BACK); stalls are
bounded; crashes only hit the checkpoints the drill and fleet recovery
machinery are built to survive.  The contract a chaos test asserts is
therefore not "everything succeeded" but the system's *invariants*:
no split fleet, no leaked installation, journal and kernel agreeing.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .plan import FaultPlan
from .registry import (
    SITE_ADAPTIVE_DETECT,
    SITE_ADAPTIVE_PROPOSE,
    SITE_ADMISSION_DECISION,
    SITE_BPFFS_PIN,
    SITE_BPFFS_UNPIN,
    SITE_CANARY_CHECKPOINT,
    SITE_FLEET_DEBT_DRAIN,
    SITE_FLEET_HEARTBEAT,
    SITE_FLEET_MEMBER_CALL,
    SITE_FLEET_PROBE,
    SITE_FLEET_WAVE,
    SITE_JOURNAL_APPEND,
    SITE_JOURNAL_FSYNC,
    SITE_NET_LINK_DELIVER,
    SITE_NET_PARTITION_FLIP,
    SITE_PATCH_DRAIN,
    SITE_PROFILER_HISTOGRAM,
    SITE_PROFILER_SNAPSHOT,
    SITE_REPLICATION_APPEND,
    SITE_REPLICATION_CATCHUP,
    SITE_REPLICATION_READ,
    SITE_STORAGE_CORRUPT_DIGEST,
    SITE_STORAGE_CORRUPT_LINE,
    SITE_STORAGE_CORRUPT_SNAPSHOT,
    SITE_TRAFFIC_PHASE_SHIFT,
    SITE_VERIFIER,
)

__all__ = [
    "sample_plan",
    "CHAOS_ADAPTIVE_SITES",
    "CHAOS_FAIL_SITES",
    "CHAOS_STALL_SITES",
    "CHAOS_CRASH_SITES",
    "CHAOS_MEMBER_SITES",
    "CHAOS_NET_SITES",
    "CHAOS_REPLICATION_SITES",
    "CHAOS_STORAGE_SITES",
    "CHAOS_TRAFFIC_SITES",
]

#: Sites where a sampled *transient* failure is survivable by design.
CHAOS_FAIL_SITES = (
    SITE_VERIFIER,
    SITE_BPFFS_PIN,
    SITE_BPFFS_UNPIN,
    SITE_ADMISSION_DECISION,
    SITE_JOURNAL_APPEND,
    SITE_JOURNAL_FSYNC,
)

#: Sites that interpret an injected delay as simulated latency.  The
#: histogram site models a stalled bucket-range read: it fires on live
#: snapshots only, so guard evaluation is exercised under profiler
#: faults while the final (quiesced) stop() collect stays safe.
CHAOS_STALL_SITES = (
    SITE_PATCH_DRAIN,
    SITE_PROFILER_SNAPSHOT,
    SITE_PROFILER_HISTOGRAM,
)

#: Checkpoints the crash-recovery machinery is built to survive.
CHAOS_CRASH_SITES = (SITE_CANARY_CHECKPOINT, SITE_FLEET_WAVE)

#: Member-outage sites: a sampled failure here models a fleet member
#: going dark (probe/heartbeat loss, a member call timing out, a debt
#: drain bouncing).  Survivable because the coordinator's degraded path
#: quarantines the member and books revert debt instead of raising.
CHAOS_MEMBER_SITES = (
    SITE_FLEET_MEMBER_CALL,
    SITE_FLEET_PROBE,
    SITE_FLEET_HEARTBEAT,
    SITE_FLEET_DEBT_DRAIN,
)

#: Replica-site incident sites: a sampled failure here models one site
#: of a member's replica group dying mid-append, mid-read, or
#: mid-catch-up.  Survivable at replication factor 3 because the group
#: fails the site, keeps quorum on the remaining two, and fails over if
#: the casualty was the leader.
CHAOS_REPLICATION_SITES = (
    SITE_REPLICATION_APPEND,
    SITE_REPLICATION_READ,
    SITE_REPLICATION_CATCHUP,
)

#: Silent-corruption sites: a sampled rule here flips one byte of a
#: durable record (journal line / site record), a snapshot blob, or a
#: digest read during a scrub.  The operation still reports success —
#: survivable because the scrubber detects the rot by checksum or
#: cross-site digest and repairs the casualty from quorum peers; the
#: invariant a chaos test asserts is "post-repair quorum reads equal
#: the pre-corruption committed prefix".
CHAOS_STORAGE_SITES = (
    SITE_STORAGE_CORRUPT_LINE,
    SITE_STORAGE_CORRUPT_SNAPSHOT,
    SITE_STORAGE_CORRUPT_DIGEST,
)

#: Traffic-timing sites: a sampled stall here shifts one trace phase's
#: arrivals earlier at install time, so a burst the rollout plan placed
#: after the bake window lands *inside* it.  Survivable because the
#: pooled guards are exactly the machinery that must hold under
#: unplanned load — the invariant is "halt with an attributed breach or
#: complete", never a split fleet.
CHAOS_TRAFFIC_SITES = (SITE_TRAFFIC_PHASE_SHIFT,)

#: Network-fabric sites: a sampled rule here drops or delays fabric
#: messages (``net.link.deliver``) or takes a link dark for a bounded
#: window of simulated time (a ``net.partition.flip`` stall — a timed
#: partition that self-heals).  Survivable because every undeliverable
#: message feeds the degraded machinery that already exists: the
#: coordinator's retry envelope, quarantine + revert debt, and the
#: replica groups' quorum/failover path.
CHAOS_NET_SITES = (SITE_NET_LINK_DELIVER, SITE_NET_PARTITION_FLIP)

#: Adaptation-loop sites: a transient failure at either is survivable
#: by construction — a faulted detect pass is skipped and retried next
#: pass, a faulted propose aborts before any install (or, post-journal,
#: is resolved by the loop's recovery as rolled-back).
CHAOS_ADAPTIVE_SITES = (SITE_ADAPTIVE_DETECT, SITE_ADAPTIVE_PROPOSE)


#: Upper bound of the main loop's rule count (it draws 2 to this many).
MAX_RULES = 4


# One rule per optional group; each group's ``CHAOS_*_SITES`` comment
# says why its rule is survivable.
def _draw_replication(plan: FaultPlan, rng: Random, site: str) -> None:
    plan.fail(site, times=1, after=rng.randint(0, 2))


def _draw_storage(plan: FaultPlan, rng: Random, site: str) -> None:
    plan.fail(site, times=1, after=rng.randint(0, 3))


def _draw_traffic(plan: FaultPlan, rng: Random, site: str) -> None:
    plan.stall(
        site,
        delay_ns=rng.choice((50_000, 100_000, 200_000)),
        times=1,
        after=rng.randint(0, 2),
    )


def _draw_net(plan: FaultPlan, rng: Random, site: str) -> None:
    if site == SITE_NET_PARTITION_FLIP:
        plan.stall(
            site,
            delay_ns=rng.choice((100_000, 200_000, 400_000)),
            times=1,
            after=rng.randint(0, 3),
        )
    elif rng.random() < 0.5:
        plan.fail(site, times=rng.randint(1, 2), after=rng.randint(0, 3))
    else:
        plan.stall(
            site,
            delay_ns=rng.choice((5_000, 20_000, 50_000)),
            times=rng.randint(1, 3),
            after=rng.randint(0, 3),
        )


def _draw_adaptive(plan: FaultPlan, rng: Random, site: str) -> None:
    if rng.random() < 0.5:
        plan.fail(site, times=1, after=rng.randint(0, 2))
    else:
        plan.stall(
            site,
            delay_ns=rng.choice((20_000, 50_000, 100_000)),
            times=1,
            after=rng.randint(0, 2),
        )


#: The optional site groups as ``(keyword argument, draw)``, walked in
#: this order after the main loop.  A group given sites adds at most one
#: rule, with probability 1/2; a group left empty consumes no random
#: draws.  New groups append at the end, so every plan drawn without
#: them stays identical.
OPTIONAL_GROUPS = (
    ("replication_sites", _draw_replication),
    ("storage_sites", _draw_storage),
    ("traffic_sites", _draw_traffic),
    ("net_sites", _draw_net),
    ("adaptive_sites", _draw_adaptive),
)


def sample_plan(
    seed: int,
    *,
    replication_sites: Sequence[str] = (),
    storage_sites: Sequence[str] = (),
    traffic_sites: Sequence[str] = (),
    net_sites: Sequence[str] = (),
    adaptive_sites: Sequence[str] = (),
) -> FaultPlan:
    """Draw a chaos :class:`FaultPlan` named ``chaos-<seed>`` from
    ``seed``: 2 to :data:`MAX_RULES` rules over the fail, stall, crash
    (at most one) and member-outage sites, then at most one rule per
    optional group in :data:`OPTIONAL_GROUPS` order.

    The sampler's RNG is separate from the plan's own (which drives
    ``probability`` rolls), so the *shape* of the plan is a pure
    function of ``seed`` regardless of how often sites are hit.
    """
    rng = Random(seed)
    plan = FaultPlan(seed=seed, name=f"chaos-{seed}")
    crashed = False
    for _ in range(rng.randint(2, MAX_RULES)):
        roll = rng.random()
        if roll < 0.2 and not crashed:
            crashed = True
            plan.crash(
                rng.choice(CHAOS_CRASH_SITES),
                after=rng.randint(1, 3),
                times=1,
            )
        elif roll < 0.35:
            # A member outage: `times` is drawn large enough to outlast
            # the coordinator's retry envelope some of the time, so the
            # degraded path (quarantine + revert debt) actually runs.
            plan.fail(
                rng.choice(CHAOS_MEMBER_SITES),
                times=rng.randint(1, 6),
                after=rng.randint(0, 4),
            )
        elif roll < 0.6:
            plan.stall(
                rng.choice(CHAOS_STALL_SITES),
                delay_ns=rng.choice((20_000, 50_000, 100_000)),
                times=rng.randint(1, 3),
                after=rng.randint(0, 2),
            )
        else:
            plan.fail(
                rng.choice(CHAOS_FAIL_SITES),
                times=rng.randint(1, 2),
                after=rng.randint(0, 3),
            )
    given = {
        "replication_sites": replication_sites,
        "storage_sites": storage_sites,
        "traffic_sites": traffic_sites,
        "net_sites": net_sites,
        "adaptive_sites": adaptive_sites,
    }
    for group, draw in OPTIONAL_GROUPS:
        sites = given[group]
        if sites and rng.random() < 0.5:
            draw(plan, rng, rng.choice(list(sites)))
    return plan
