"""§3.1.2 realtime scheduling: phase-fair reader latency bounds.

"Lock developers can design an algorithm based on the phase-fair
property ... eliminates jitters and guarantees an upper bound on tail
latency for latency-critical applications."

We run latency-critical readers against a writer herd on (a) the neutral
rw lock and (b) the phase-fair lock installed at run time through
Concord's lock switching, and compare reader tail latency.
"""

import pytest

from repro.concord import Concord
from repro.kernel import Kernel
from repro.locks import NeutralRWLock, PhaseFairRWLock
from repro.sim import Topology, ops, quantile

from .conftest import DURATION_NS

_WRITERS = 10
_READERS = 4


def _run(phase_fair, seed=51):
    topo = Topology(sockets=2, cores_per_socket=8)
    kernel = Kernel(topo, seed=seed)
    site = kernel.add_rwlock("rt.lock", NeutralRWLock(kernel.engine, name="neutral"))
    if phase_fair:
        concord = Concord(kernel)
        concord.switch_lock(
            "rt.lock", lambda old: PhaseFairRWLock(kernel.engine, name="pf")
        )
    rng = kernel.engine.rng
    reader_latencies = []

    def writer(task):
        while True:
            yield from site.write_acquire(task)
            yield ops.Delay(rng.randint(500, 3_000))
            yield from site.write_release(task)
            # Writers pause between bursts, keeping aggregate writer
            # demand just under capacity; without these gaps the neutral
            # lock starves readers *completely* (zero samples in the
            # whole window) — the pathology phase-fairness bounds.
            yield ops.Delay(rng.randint(8_000, 30_000))

    def reader(task):
        while True:
            start = task.engine.now
            yield from site.read_acquire(task)
            reader_latencies.append(task.engine.now - start)
            yield ops.Delay(200)
            yield from site.read_release(task)
            yield ops.Delay(rng.randint(500, 1_500))

    cpu = 0
    for _ in range(_WRITERS):
        kernel.spawn(writer, cpu=cpu, at=rng.randint(0, 5_000))
        cpu += 1
    for _ in range(_READERS):
        kernel.spawn(reader, cpu=cpu, at=rng.randint(0, 5_000))
        cpu += 1
    kernel.run(until=2 * DURATION_NS)
    return {
        "samples": len(reader_latencies),
        "p50": quantile(reader_latencies, 0.50),
        "p99": quantile(reader_latencies, 0.99),
        "max": max(reader_latencies),
    }


@pytest.fixture(scope="module")
def phase_fair():
    return {"neutral": _run(False), "phase-fair": _run(True)}


def test_usecase_phase_fair(benchmark, phase_fair, save_table):
    data = benchmark.pedantic(lambda: phase_fair, rounds=1, iterations=1)
    lines = [
        f"Use case: phase-fair switch for RT readers ({_READERS} readers vs {_WRITERS} writers)",
        f"  {'':12}{'p50':>10}{'p99':>10}{'max':>10}  (reader acquire latency, ns)",
    ]
    for label in ("neutral", "phase-fair"):
        row = data[label]
        lines.append(
            f"  {label:<12}{row['p50']:>10}{row['p99']:>10}{row['max']:>10}"
        )
    save_table("usecase_phase_fair", "\n".join(lines))
    benchmark.extra_info["neutral p99"] = data["neutral"]["p99"]
    benchmark.extra_info["phase-fair p99"] = data["phase-fair"]["p99"]

    # Phase fairness bounds the reader tail well below the neutral lock's
    # (which can stack a whole writer convoy in front of a reader).
    assert data["phase-fair"]["p99"] < 0.7 * data["neutral"]["p99"]
