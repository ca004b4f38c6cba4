"""Adaptive overload defense: what culling buys, and how fast the loop acts.

Two exhibits in one artifact (``results/BENCH_adaptive.json``):

* **Throughput around the knee** — the Malthusian bench swept stock
  (MCS admits everyone) vs pre-culled (``CullingLock`` cap 2) across
  the collapse.  Below the knee the two are equivalent; past it the
  stock curve falls off while the culled curve holds, which is the
  whole Malthusian claim in one table.
* **Detect -> keep latency** — the closed adaptation loop run against
  a live collapse: simulated nanoseconds from the first post-collapse
  window to the cull being judged *kept* (detection window + canary +
  clearance check).  This is the reaction time an operator no longer
  has to provide.
"""

from __future__ import annotations

import json
import os
import time

from repro.concord import Concord
from repro.controlplane import AdaptationLoop, Concordd, PolicyJournal
from repro.kernel import Kernel
from repro.locks.culling import CullingLock
from repro.sim import Topology
from repro.workloads import (
    MalthusianBench,
    ascii_chart,
    format_sweep_table,
    knee_threads,
    sweep,
)

from .conftest import REPO_ROOT, RESULTS_DIR, run_once

#: The bench's calibrated machine (the tests' 2x4 box, not the paper
#: machine): the knee must sit inside the swept range.
TOPO = Topology(sockets=2, cores_per_socket=4)
THREADS = [1, 2, 3, 4, 6, 8]
DURATION_NS = 2_000_000
WARMUP_NS = 200_000
CAP = 2


class CulledMalthusianBench(MalthusianBench):
    """The same crowd-sensitive workload with the cull pre-installed."""

    def __init__(self, cap: int = CAP, **kwargs) -> None:
        super().__init__(**kwargs)
        self.cap = cap
        self.name = f"malthus-cull{cap}"

    def setup(self, kernel: Kernel) -> None:
        self.site = kernel.add_lock(
            "bench.malthus",
            CullingLock(kernel.engine, name="bench.malthus", cap=self.cap),
        )


def _sweeps():
    stock = sweep(
        lambda: MalthusianBench(),
        TOPO,
        THREADS,
        duration_ns=DURATION_NS,
        warmup_ns=WARMUP_NS,
    )
    culled = sweep(
        lambda: CulledMalthusianBench(),
        TOPO,
        THREADS,
        duration_ns=DURATION_NS,
        warmup_ns=WARMUP_NS,
    )
    return stock, culled


def _adaptation_latency():
    """Drive the closed loop over a live collapse; returns sim-ns from
    the first collapsed window to the kept verdict."""
    kernel = Kernel(TOPO, seed=42)
    bench = MalthusianBench()
    bench.setup(kernel)
    daemon = Concordd(Concord(kernel), journal=PolicyJournal())
    loop = AdaptationLoop(
        daemon=daemon,
        selector="bench.*",
        window_ns=400_000,
        baseline_ns=80_000,
        canary_ns=120_000,
        check_every_ns=20_000,
    )
    order = kernel.topology.fill_order()

    def spawn(start, count):
        for i in range(start, start + count):
            kernel.spawn(
                lambda task, i=i: bench.worker(task, i),
                cpu=order[i],
                name=f"malthus-{i}",
            )

    spawn(0, 4)
    kernel.run(until=kernel.now + 100_000)
    assert loop.run_once().outcome == "idle"  # the healthy reference
    spawn(4, 4)
    kernel.run(until=kernel.now + 100_000)
    collapse_starts = kernel.now
    decisions = loop.run(passes=6)
    kept = decisions[-1]
    assert kept.outcome == "kept", kept.describe()
    return kernel.now - collapse_starts, kept


def _run_all():
    start = time.perf_counter()
    stock, culled = _sweeps()
    latency_ns, kept = _adaptation_latency()
    wall_s = time.perf_counter() - start
    return stock, culled, latency_ns, kept, wall_s


def test_adaptive_recovery(benchmark, save_table):
    stock, culled, latency_ns, kept, wall_s = run_once(_run_all)(benchmark)

    knee = knee_threads(stock)
    stock_at = {p.threads: p.ops_per_msec for p in stock.points}
    culled_at = {p.threads: p.ops_per_msec for p in culled.points}
    recovery = culled_at[8] / stock_at[8]

    payload = {
        "bench": "adaptive_recovery",
        "threads": THREADS,
        "stock_ops_per_msec": {str(t): round(r, 1) for t, r in stock_at.items()},
        "culled_ops_per_msec": {str(t): round(r, 1) for t, r in culled_at.items()},
        "cull_cap": CAP,
        "measured_knee_threads": knee,
        "recovery_at_8_threads": round(recovery, 3),
        "adaptation_latency_sim_ns": latency_ns,
        "kept_policy": kept.policy,
        "wall_s": round(wall_s, 4),
    }
    json_path = os.path.join(RESULTS_DIR, "BENCH_adaptive.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    benchmark.extra_info.update(payload)

    table = format_sweep_table(
        [stock, culled], "Malthusian collapse: stock vs culled (ops/msec)"
    )
    chart = ascii_chart(
        {"stock": stock.series(), f"cull{CAP}": culled.series()},
        title="throughput around the knee",
    )
    lines = [
        table,
        "",
        chart,
        "",
        f"  measured knee: {knee} threads; "
        f"recovery at 8 threads: {recovery:.2f}x stock",
        f"  detect -> keep: {latency_ns} sim-ns "
        f"({kept.policy}, cap {CAP})",
        f"  [saved to {os.path.relpath(json_path, REPO_ROOT)}]",
    ]
    save_table("adaptive_recovery", "\n".join(lines))

    # The claims the artifact rides on: the stock curve has an interior
    # knee, the cull restores most of the lost throughput past it, and
    # the loop judged a cull without operator input.
    assert knee is not None and knee < 8
    assert recovery > 1.5, f"culling recovered only {recovery:.2f}x"
    assert culled_at[8] > 0.6 * max(stock_at.values())
    assert latency_ns > 0
