"""Machine topology: sockets, cores, NUMA distances, asymmetric cores.

The paper evaluates on an eight-socket, 80-core machine.  We model the
pieces of that machine that determine lock behaviour:

* which socket (NUMA node) each CPU belongs to — cache-line transfer
  latency depends on whether two CPUs share a socket;
* per-CPU speed factors, so asymmetric multicore (AMP) platforms like
  big.LITTLE can be modelled for the §3.1.2 AMP use case;
* the latency table itself (:class:`LatencyModel`), which the cache model
  consults on every load/store/atomic.

All latencies are integer nanoseconds.  The defaults are calibrated to
publicly reported figures for large Xeon boxes (L1 hit a few ns, on-socket
cache-to-cache transfer tens of ns, cross-socket transfer >100 ns) — the
absolute values only set the scale; the *ratios* drive every result shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import TopologyError

__all__ = ["LatencyModel", "Topology", "paper_machine", "amp_machine"]


@dataclass(frozen=True)
class LatencyModel:
    """Latency parameters (ns) consumed by the cache model.

    Attributes:
        l1_hit: access to a line this CPU already owns.
        local_transfer: cache-to-cache transfer within a socket.
        remote_transfer: cache-to-cache transfer across sockets.
        remote_hop_extra: additional cost per NUMA hop beyond the first
            (relevant for 8-socket glueless/QPI topologies).
        atomic_extra: extra cost of a locked RMW over a plain access.
        park_cost: CPU-side cost to deschedule (context switch out).
        wake_latency: delay from wake-up call until the target runs.
        wake_cost: cost charged to the waker.
        context_switch: cost to switch between two runnable tasks.
    """

    l1_hit: int = 4
    local_transfer: int = 40
    remote_transfer: int = 130
    remote_hop_extra: int = 25
    atomic_extra: int = 8
    park_cost: int = 1500
    wake_latency: int = 3500
    wake_cost: int = 400
    context_switch: int = 1200

    def transfer(self, hops: int) -> int:
        """Line-transfer latency for a given NUMA hop count."""
        if hops == 0:
            return self.local_transfer
        return self.remote_transfer + (hops - 1) * self.remote_hop_extra


class Topology:
    """An immutable description of the simulated machine.

    Args:
        sockets: number of NUMA nodes.
        cores_per_socket: CPUs per node; CPU ids are dense, socket-major
            (cpu 0..c-1 on socket 0, etc.), matching Linux's usual layout.
        latency: the :class:`LatencyModel` for this machine.
        speed: optional per-CPU speed factors; ``1.0`` is a "big" core,
            values above 1.0 scale *up* the time cost of computation on
            that CPU (a 2.0 core takes twice as long).  Defaults to all
            symmetric.
        numa_distance: optional socket-by-socket hop matrix.  Defaults to
            1 hop between any two distinct sockets (fully connected).

    The engine and the cache model read tables built once here:
    ``cpu_speed`` and ``cpu_socket`` (per CPU) and the sockets x sockets
    ``socket_hops`` and ``socket_transfer_ns``, indexed
    ``[from_socket][to_socket]``.  The socket tables cover two distinct
    CPUs; a CPU reaching its own line pays ``l1_hit``.
    """

    def __init__(
        self,
        sockets: int,
        cores_per_socket: int,
        latency: Optional[LatencyModel] = None,
        speed: Optional[Sequence[float]] = None,
        numa_distance: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        if sockets <= 0 or cores_per_socket <= 0:
            raise TopologyError("sockets and cores_per_socket must be positive")
        self.sockets = sockets
        self.cores_per_socket = cores_per_socket
        self.nr_cpus = sockets * cores_per_socket
        self.latency = latency or LatencyModel()
        if speed is None:
            self.cpu_speed: Tuple[float, ...] = (1.0,) * self.nr_cpus
        else:
            if len(speed) != self.nr_cpus:
                raise TopologyError(
                    f"speed table has {len(speed)} entries for {self.nr_cpus} cpus"
                )
            if any(s <= 0 for s in speed):
                raise TopologyError("speed factors must be positive")
            self.cpu_speed = tuple(float(s) for s in speed)
        if numa_distance is None:
            numa_distance = [[1] * sockets for _ in range(sockets)]
        elif len(numa_distance) != sockets or any(len(row) != sockets for row in numa_distance):
            raise TopologyError("numa_distance must be a sockets x sockets matrix")
        self.cpu_socket: Tuple[int, ...] = tuple(
            cpu // cores_per_socket for cpu in range(self.nr_cpus)
        )
        hops = [list(map(int, row)) for row in numa_distance]
        for socket, row in enumerate(hops):
            row[socket] = 0  # one socket is 0 hops whatever the matrix says
        transfer = {h: self.latency.transfer(h) for h in set().union(*hops)}
        self.socket_hops: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, hops))
        self.socket_transfer_ns: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(map(transfer.__getitem__, row)) for row in hops
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def socket_of(self, cpu: int) -> int:
        """NUMA node id of ``cpu``."""
        if not 0 <= cpu < self.nr_cpus:
            raise TopologyError(f"cpu {cpu} out of range (nr_cpus={self.nr_cpus})")
        return self.cpu_socket[cpu]

    def cpus_of_socket(self, socket: int) -> range:
        """The dense CPU id range belonging to ``socket``."""
        if not 0 <= socket < self.sockets:
            raise TopologyError(f"socket {socket} out of range")
        start = socket * self.cores_per_socket
        return range(start, start + self.cores_per_socket)

    def speed_of(self, cpu: int) -> float:
        """Computation time factor of ``cpu`` (1.0 is a big core)."""
        self.socket_of(cpu)  # range check
        return self.cpu_speed[cpu]

    def hops(self, cpu_a: int, cpu_b: int) -> int:
        """NUMA hop count between two CPUs (0 when they share a socket)."""
        return self.socket_hops[self.socket_of(cpu_a)][self.socket_of(cpu_b)]

    def transfer_ns(self, from_cpu: int, to_cpu: int) -> int:
        """Cache-line transfer latency between two CPUs."""
        sa, sb = self.socket_of(from_cpu), self.socket_of(to_cpu)
        if from_cpu == to_cpu:
            return self.latency.l1_hit
        return self.socket_transfer_ns[sa][sb]

    # ------------------------------------------------------------------
    # Enumeration helpers used by workloads
    # ------------------------------------------------------------------
    def spread_order(self) -> List[int]:
        """CPU ids in socket-round-robin order.

        will-it-scale style benchmarks pin thread *i* to the *i*-th CPU in
        a breadth-first walk of the sockets so that small thread counts
        already span sockets.  The paper's figures use the opposite
        (fill-socket) order — see :meth:`fill_order` — but both are
        useful for experiments.
        """
        order: List[int] = []
        for idx in range(self.cores_per_socket):
            for socket in range(self.sockets):
                order.append(socket * self.cores_per_socket + idx)
        return order

    def fill_order(self) -> List[int]:
        """CPU ids filling each socket completely before the next.

        This is the order the ShflLock/Concord evaluation uses: thread
        counts up to ``cores_per_socket`` stay on one socket, so NUMA
        effects appear only past that point.
        """
        return list(range(self.nr_cpus))

    def describe(self) -> Dict[str, object]:
        return {
            "sockets": self.sockets,
            "cores_per_socket": self.cores_per_socket,
            "nr_cpus": self.nr_cpus,
            "asymmetric": len(set(self.cpu_speed)) > 1,
        }

    def __repr__(self) -> str:
        return f"Topology({self.sockets}x{self.cores_per_socket})"


def paper_machine(latency: Optional[LatencyModel] = None) -> Topology:
    """The evaluation machine from the paper: 8 sockets x 10 cores.

    Eight-socket boxes pay far more for cross-socket transfers than
    dual-socket parts (multi-hop interconnects, directory lookups), so
    the default latency model uses a steeper remote penalty than
    :class:`LatencyModel`'s generic defaults.
    """
    if latency is None:
        latency = LatencyModel(remote_transfer=240, remote_hop_extra=40)
    return Topology(sockets=8, cores_per_socket=10, latency=latency)


def amp_machine(
    big_cores: int = 4,
    little_cores: int = 4,
    little_slowdown: float = 3.0,
    latency: Optional[LatencyModel] = None,
) -> Topology:
    """A single-socket asymmetric multicore machine (big.LITTLE style).

    The first ``big_cores`` CPUs run at full speed; the remaining
    ``little_cores`` take ``little_slowdown`` times longer for the same
    computation.  Used by the §3.1.2 AMP use-case experiments.
    """
    total = big_cores + little_cores
    speed = [1.0] * big_cores + [little_slowdown] * little_cores
    return Topology(sockets=1, cores_per_socket=total, latency=latency, speed=speed)
