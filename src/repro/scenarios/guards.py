"""``guards``: the guard library's acceptance path, in two phases.

1. **Tail blindness.**  One kernel, four shard locks, the tail-spike
   policy attached to ``svc.shard0.lock`` only.  The canary-set
   *average* wait stays inside the 20 % budget (the old ``SLOGuard``
   passes on the very same reports) while shard0's p99 multiplies — the
   ``TailWaitGuard`` trips and its breach names the lock, the metric,
   and observed-vs-budget.
2. **Pooled fleet verdict.**  The same policy rolls onto a 3-kernel
   wave whose members' guards each need more canary samples than any one
   kernel sees — every member promotes on verifier trust — but the
   coordinator's pooled guard, fed the wave's *summed* histograms,
   crosses readiness and trips; the fleet halts and reverts, the breach
   naming all three kernels.
"""

from __future__ import annotations

import os

from ..concord import Concord
from ..controlplane import Concordd, PolicyJournal, PolicyState, TailWaitGuard
from ..fleet import FleetCoordinator, FleetRolloutState
from ..userspace import PolicyClient
from .harness import (
    CANARY_LOCKS,
    Checks,
    build_fleet,
    canary_wave,
    fleet_stock,
    journal_dir,
    journal_entries,
    shard_kernel,
    slo_guard,
    spawn_shard_workload,
    tail_spike_submission,
)

TASKS_PER_LOCK = 2
CS_NS = 400
#: per-lock p99 regression budget for the tail guard
MAX_TAIL_REGRESSION = 0.50


def run(args) -> int:
    check = Checks("guards scenario")

    # -- phase 1: one lock's p99 regresses, averages stay in budget ----
    print("phase 1: tail-spike on shard0 — avg guard blind, tail guard trips")
    kernel = shard_kernel(args.seed)
    daemon = Concordd(
        Concord(kernel),
        guard=TailWaitGuard(max_tail_regression=MAX_TAIL_REGRESSION),
        canary_fraction=0.5,
    )
    alice = PolicyClient.connect(daemon, "alice", allowed_selectors=("svc.*",))
    spawn_shard_workload(kernel, args.duration_ns, TASKS_PER_LOCK, CS_NS)

    window = args.duration_ns // 4
    timing = dict(baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 2)
    alice.submit(tail_spike_submission(kernel.lock_id_by_name("svc.shard0.lock")))
    record = alice.rollout("tail-spike", canary_locks=list(CANARY_LOCKS), **timing)
    kernel.run()

    print(f"tail guard  : {record.state.name:<12} {record.verdict.describe()}")
    old_verdict = slo_guard().evaluate(record.baseline_report, record.canary_report)
    print(f"avg guard   : {'pass' if old_verdict.ok else 'FAIL':<12} {old_verdict.describe()}")
    check(record.state is PolicyState.ROLLED_BACK, "tail guard rolled the policy back")
    check(
        old_verdict.ready and old_verdict.ok,
        "old SLOGuard passes the same reports (average within budget)",
    )
    breaches = record.verdict.attributed
    check(
        any(b.lock_name == "svc.shard0.lock" and b.metric == "p99_wait_ns" for b in breaches),
        "breach attributes the regression to svc.shard0.lock p99",
    )
    for breach in breaches:
        print(f"  breach: {breach.describe()}")

    # -- phase 2: pooled evidence trips what no member alone can ------
    print("\nphase 2: 3-kernel wave — pooled histograms trip the fleet verdict")
    directory = journal_dir(args, "guards")
    fleet, _ = build_fleet(
        3,
        lambda index: shard_kernel(args.seed + 1 + index),
        journal_dir=directory,
        spawn=lambda name, kernel: spawn_shard_workload(
            kernel, args.duration_ns, TASKS_PER_LOCK, CS_NS
        ),
    )
    coordinator = FleetCoordinator(
        fleet,
        journal=PolicyJournal(os.path.join(directory, "fleet.jsonl")),
        pooled_guard=TailWaitGuard(max_tail_regression=MAX_TAIL_REGRESSION),
    )
    result = coordinator.execute(
        canary_wave("tail-spike", window // 2),
        lambda member: tail_spike_submission(
            member.kernel.lock_id_by_name("svc.shard0.lock")
        ),
        **timing,
    )
    print(result.describe())
    check(result.state is FleetRolloutState.HALTED, "pooled verdict HALTED the wave")
    check(
        result.halt_cause is not None and "pooled breach" in result.halt_cause,
        "halt cause is the pooled breach",
    )
    check(
        result.halt_cause is not None
        and "svc.shard0.lock" in result.halt_cause
        and all(k in result.halt_cause for k in ("k0", "k1", "k2")),
        "pooled breach names the lock and all three kernels",
    )
    check(fleet_stock(fleet, "tail-spike"), "every kernel reverted to stock")
    check(
        any(
            e.get("lock") == "svc.shard0.lock" and e.get("kernels") == ["k0", "k1", "k2"]
            for e in journal_entries(coordinator.journal, "pooled-breach")
        ),
        "fleet journal records the attributed pooled-breach event",
    )
    return check.report("guards scenario PASSED")
