"""Deterministic simulated networking for the fleet.

Until this package, every cross-member call in the fleet — coordinator
→ member operations, health probes, a replica group's quorum appends —
was a direct in-process call.  Faults could make any one call fail, but
only *independently*; correlated failures (a rack partition, an
asymmetric link where A hears B but B doesn't hear A) had no way to
exist, so the "no split fleet" invariant had never met an adversary
that could actually split the network.

* :mod:`.fabric` — :class:`Fabric`: named endpoints, directed links
  with latency/jitter/drop/duplicate/reorder models,
  ``partition(groups)`` / ``heal()`` (symmetric and asymmetric), timed
  chaos partitions via the ``net.partition.flip`` / ``net.link.deliver``
  fault sites.  A freshly built fabric is the identity network, which
  is what keeps existing scenarios byte-identical.
* :mod:`.schedule` — :class:`PartitionSchedule`: seeded, serializable
  partition/heal event sequences applied as simulated time passes,
  replayable like :mod:`repro.traffic` traces.
* :mod:`.envelope` — :class:`RpcEnvelope`: the coordinator's retry
  policy with seeded backoff jitter, a per-call timeout, a total
  simulated-time deadline, and classified exhaustion
  (``unreachable`` / ``fenced`` / ``corrupt`` / ``deadline-exceeded``),
  and :func:`retry`, the bounded loop the control plane's other
  retries share.
* :mod:`.errors` — the transport (:class:`NetError`) and envelope
  (:class:`RpcExhausted`) failure vocabulary.
"""

from .envelope import RpcEnvelope, retry
from .errors import (
    CLASSIFICATIONS,
    LinkDown,
    MessageDropped,
    NetError,
    RpcError,
    RpcExhausted,
)
from .fabric import Fabric, Link, LinkModel
from .schedule import PartitionEvent, PartitionSchedule, sample_partition_schedule

__all__ = [
    "CLASSIFICATIONS",
    "Fabric",
    "Link",
    "LinkDown",
    "LinkModel",
    "MessageDropped",
    "NetError",
    "PartitionEvent",
    "PartitionSchedule",
    "RpcEnvelope",
    "RpcError",
    "RpcExhausted",
    "retry",
    "sample_partition_schedule",
]
