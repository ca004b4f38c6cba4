"""Trace replay throughput: how fast the simulator chews traffic.

Generates one sizable trace (a diurnal day with a burst riding the
peak), replays it into a sharded kernel, and records the *host*
replay rate — simulated events per wall-clock second — plus per-phase
replay tails.  The JSON artifact (``results/BENCH_traffic.json``) is
the perf trajectory later PRs measure against: the event-driven fleet
engine (ROADMAP) should move events/sec up, and regressions in the
engine's hot path show up here first.
"""

from __future__ import annotations

import json
import os
import time

from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.sim import Topology
from repro.traffic import (
    LockBinding,
    Phase,
    PhaseSchedule,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
    TraceRunner,
)

from .conftest import REPO_ROOT, RESULTS_DIR, run_once

#: One simulated "day": a diurnal arc with a burst spliced onto the peak.
DAY_NS = 20_000_000
RATE_PER_MS = 120.0
SHARDS = 4
SEED = 7


def _schedule() -> PhaseSchedule:
    arc = PhaseSchedule.diurnal(DAY_NS, steps=6, trough_scale=0.3)
    phases = list(arc.phases)
    # Splice a 6x burst into the early peak (after step 2).
    phases.insert(3, Phase("burst", DAY_NS // 10, 6.0))
    return PhaseSchedule(phases)


def _build():
    schedule = _schedule()
    tenants = TenantSet(
        [
            Tenant("web", 6.0, [(f"shard{i}", 1.0) for i in range(SHARDS)]),
            Tenant("batch", 1.0, [("shard0", 1.0), ("shard1", 1.0)]),
        ]
    )
    trace = TraceGenerator(
        schedule, PoissonProcess(RATE_PER_MS), tenants, seed=SEED
    ).generate()
    bindings = {
        f"shard{i}": LockBinding(f"svc.shard{i}.lock", cs_ns=400)
        for i in range(SHARDS)
    }
    kernel = Kernel(Topology(sockets=2, cores_per_socket=8), seed=SEED)
    for i in range(SHARDS):
        kernel.add_lock(f"svc.shard{i}.lock", ShflLock(kernel.engine, name=f"s{i}"))
    return trace, TraceRunner(trace, bindings), kernel


def _replay():
    trace, runner, kernel = _build()
    start = time.perf_counter()
    runner.install(kernel, tag="bench")
    kernel.run(until=trace.total_ns + 5_000_000)
    wall_s = time.perf_counter() - start
    return trace, runner, kernel, wall_s


def test_traffic_replay(benchmark, save_table):
    trace, runner, kernel, wall_s = run_once(_replay)(benchmark)

    phases = {}
    for phase in trace.phase_names():
        stats = runner.phase_stats(phase)
        phases[phase] = {
            "arrivals": stats.arrivals,
            "completions": stats.completions,
            "wait_p50_ns": stats.wait_p50(),
            "wait_p99_ns": stats.wait_p99(),
        }
    payload = {
        "bench": "traffic_replay",
        "trace_events": len(trace),
        "trace_total_ns": trace.total_ns,
        "sim_events_processed": kernel.engine.events_processed,
        "replay_wall_s": round(wall_s, 4),
        "trace_events_per_sec": round(len(trace) / wall_s, 1),
        "sim_events_per_sec": round(kernel.engine.events_processed / wall_s, 1),
        "phases": phases,
    }
    json_path = os.path.join(RESULTS_DIR, "BENCH_traffic.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    benchmark.extra_info.update(
        {k: v for k, v in payload.items() if k != "phases"}
    )

    lines = [
        "traffic replay throughput",
        f"  trace: {len(trace)} events over {trace.total_ns / 1e6:.1f}ms "
        f"({len(trace.phase_names())} phases, {SHARDS} shards)",
        f"  replay: {wall_s:.3f}s wall, "
        f"{payload['trace_events_per_sec']:,.0f} trace events/sec, "
        f"{payload['sim_events_per_sec']:,.0f} sim events/sec",
        "",
        runner.report(),
        "",
        f"  [saved to {os.path.relpath(json_path, REPO_ROOT)}]",
    ]
    save_table("traffic_replay", "\n".join(lines))

    # Sanity: every request completed and the burst is visible.
    for phase, stats in phases.items():
        assert stats["completions"] == stats["arrivals"], phase
    assert phases["burst"]["wait_p99_ns"] > phases["diurnal-0"]["wait_p99_ns"]
