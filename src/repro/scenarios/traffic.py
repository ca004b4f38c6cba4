"""``traffic``: the trace-driven load acceptance path, in three phases.

1. **Malthusian knee.**  The collapse workload's thread sweep must peak
   where the closed-loop model predicts and fall measurably past it —
   the scenario corpus actually contains a collapse.
2. **Steady trace.**  A Poisson trace at the base rate drives a 3-kernel
   rollout of a benign metering policy; the pooled ``TailWaitGuard``
   sees comparable baseline/canary tails and the wave COMPLETEs.
3. **Burst trace.**  The *same* policy, budgets, seed, and tenants — but
   the schedule spikes 8× exactly while the canary window is open.  The
   pooled p99 evidence breaches, the fleet HALTs, and the breach is
   journaled with per-lock attribution.  Same policy, opposite verdict:
   the decision is about the load, which is the point of the traffic
   layer.
"""

from __future__ import annotations

import os

from ..controlplane import PolicyJournal, TailWaitGuard
from ..fleet import FleetCoordinator, FleetRolloutState
from ..sim import Topology
from ..traffic import (
    LockBinding,
    PhaseSchedule,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
    TraceRunner,
)
from ..workloads import MalthusianBench, format_sweep_table, knee_threads, sweep
from .harness import (
    Checks,
    build_fleet,
    burst_schedule,
    canary_wave,
    fleet_active,
    fleet_stock,
    journal_dir,
    journal_entries,
    shard_kernel,
    steady_submission,
)

CS_NS = 500  #: per-request hold time
#: base Poisson arrival rate per kernel (events per simulated ms)
RATE_PER_MS = 150.0
#: pooled p99 regression budget for the tail guard
MAX_TAIL_REGRESSION = 0.60


def _traffic_rollout(args, schedule, directory: str, label: str):
    """One trace-driven 3-kernel rollout of the benign metering policy.

    The trace (same seed, same tenants, same bindings for both runs) is
    installed into every member *before* the wave executes, so the
    baseline and canary windows of each member's rollout are measured
    against whatever load the schedule delivers in those windows.  Only
    the schedule differs between the steady and burst runs — the policy,
    guard, and budgets are identical, which is what makes the verdict
    load-dependent rather than policy-dependent.
    """
    tenants = TenantSet(
        [
            Tenant("web", 3.0, [("shard0", 2.0), ("shard1", 1.0)]),
            Tenant("batch", 1.0, [("shard1", 1.0)]),
        ]
    )
    trace = TraceGenerator(
        schedule, PoissonProcess(rate_per_ms=RATE_PER_MS), tenants, seed=args.seed
    ).generate()
    runner = TraceRunner(
        trace,
        {
            "shard0": LockBinding("svc.shard0.lock", cs_ns=CS_NS),
            "shard1": LockBinding("svc.shard1.lock", cs_ns=CS_NS),
        },
    )
    # Per-member guards defer; the pooled cross-kernel verdict decides
    # alone, so the two runs differ only in the load the pooled
    # evidence saw.
    fleet, _ = build_fleet(
        3,
        lambda index: shard_kernel(args.seed + 1 + index, 2),
        journal_dir=directory,
        shard=f"journal.{label}.k{{}}.jsonl",
    )
    runner.drive_fleet(fleet)
    coordinator = FleetCoordinator(
        fleet,
        journal=PolicyJournal(os.path.join(directory, f"fleet.{label}.jsonl")),
        pooled_guard=TailWaitGuard(max_tail_regression=MAX_TAIL_REGRESSION),
    )
    window = args.duration_ns // 4
    result = coordinator.execute(
        canary_wave("traffic-meter", window // 2),
        lambda member: steady_submission("traffic-meter"),
        baseline_ns=window,
        canary_ns=2 * window,
        check_every_ns=window // 2,
    )
    # Drain the replay tail so per-phase stats cover the whole trace.
    for member in fleet.members():
        member.kernel.run(until=trace.total_ns + args.duration_ns)
    return trace, runner, coordinator, fleet, result


def run(args) -> int:
    check = Checks("traffic scenario")

    # -- phase 1: the corpus has a real concurrency knee ---------------
    print("phase 1: malthusian collapse — throughput knees and falls")
    result = sweep(
        lambda: MalthusianBench(),
        Topology(sockets=2, cores_per_socket=4),
        [1, 2, 3, 4, 5, 6, 8],
        duration_ns=400_000,
        warmup_ns=100_000,
        seed=args.seed,
    )
    print(format_sweep_table([result], title="malthus sweep (ops/msec)"))
    knee = knee_threads(result)
    expected = MalthusianBench().expected_knee()
    peak = max(p.ops_per_msec for p in result.points)
    tail = result.at(8).ops_per_msec
    print(f"knee: measured n={knee}, predicted n={expected}, "
          f"collapse at n=8: {tail / peak:.2f}x of peak")
    check(abs(knee - expected) <= 1, "knee lands where the model predicts")
    check(tail < 0.7 * peak, "throughput collapses past the knee")

    directory = journal_dir(args, "traffic")
    window = args.duration_ns // 4

    # -- phase 2: steady load, the policy clears the pooled guard ------
    print("\nphase 2: steady trace — same policy, pooled tail guard passes")
    steady = PhaseSchedule.steady(args.duration_ns)
    trace_s, runner_s, _coord_s, fleet_s, result_s = _traffic_rollout(
        args, steady, directory, "steady"
    )
    print(f"trace: {trace_s.describe()}")
    print(runner_s.report())
    print(result_s.describe())
    check(result_s.state is FleetRolloutState.COMPLETE, "steady-load wave COMPLETEs")
    check(
        fleet_active(fleet_s, "traffic-meter"),
        "policy ACTIVE on every kernel under steady load",
    )

    # -- phase 3: burst mid-canary, the same policy is halted ----------
    print("\nphase 3: burst trace — same policy, pooled tail guard halts the fleet")
    burst = burst_schedule(args.duration_ns)
    print(f"schedule: {burst.describe()} (canary window [{window}ns, {3 * window}ns))")
    trace_b, runner_b, coord_b, fleet_b, result_b = _traffic_rollout(
        args, burst, directory, "burst"
    )
    print(f"trace: {trace_b.describe()}")
    print(runner_b.report())
    print(result_b.describe())
    check(
        result_b.state is FleetRolloutState.HALTED,
        "burst-load wave HALTED by the pooled verdict",
    )
    check(
        result_b.halt_cause is not None and "pooled breach" in result_b.halt_cause,
        "halt cause is the pooled breach",
    )
    check(
        fleet_stock(fleet_b, "traffic-meter"),
        "every kernel reverted to stock after the halt",
    )
    check(
        any(
            e.get("lock", "").startswith("svc.shard")
            and e.get("kernels") == ["k0", "k1", "k2"]
            for e in journal_entries(coord_b.journal, "pooled-breach")
        ),
        "fleet journal records the attributed pooled-breach event",
    )
    burst_p99 = runner_b.phase_stats("burst").wait_p99()
    pre_p99 = runner_b.phase_stats("pre").wait_p99()
    print(f"replay tails: pre p99 {pre_p99}ns, burst p99 {burst_p99}ns")
    check(burst_p99 > pre_p99, "burst phase degrades the replay tail")
    return check.report(
        "traffic scenario PASSED: the same policy cleared guards under "
        "steady load and was halted with an attributed breach under burst"
    )
