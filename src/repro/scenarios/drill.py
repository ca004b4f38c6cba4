"""``drill``: the robustness layer's acceptance path.

Kills the daemon (:class:`~repro.faults.InjectedCrash`) mid-canary
under an adversarial fault plan, restarts it over the same journal, and
asserts :meth:`Concordd.recover` restores the world — the healthy ACTIVE
policy re-attached with the same hook programs and lock impls, the
crashed canary ROLLED_BACK with its installation gone, journal and audit
in agreement — then trips the runtime circuit breaker on the survivor
and asserts fail-open degradation to stock lock behaviour.  ``--kernels
N`` drills N independent kernels, each over its own journal shard
(``<path>.kI``).
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from ..concord import Concord
from ..controlplane import Concordd, PolicyJournal, PolicyState, SLOGuard
from ..faults import FaultPlan, InjectedCrash, injected
from ..locks.base import HOOK_LOCK_ACQUIRED
from ..userspace import PolicyClient
from .harness import (
    SELECTOR,
    Checks,
    doomed_submission,
    per_kernel,
    print_audit,
    shard_kernel,
    spawn_shard_workload,
    spin_park,
    steady_submission,
)


def run(args) -> int:
    def once(seed: int, index: int) -> int:
        journal = args.journal
        if journal is not None and args.kernels > 1:
            journal = f"{journal}.k{index}"
        return _once(args, seed, journal)

    return per_kernel(args, once)


def _once(args, seed: int, journal: Optional[str]) -> int:
    journal_path = journal or os.path.join(
        tempfile.mkdtemp(prefix="concordd-drill-"), "journal.jsonl"
    )
    registry = {"spin_park": spin_park}
    kernel = shard_kernel(seed)
    concord = Concord(kernel, fault_threshold=5)
    selector_locks = kernel.locks.select_names(SELECTOR)
    original_impls = {
        name: kernel.locks.get(name).core.impl for name in selector_locks
    }
    check = Checks("drill")

    def daemon() -> Concordd:
        return Concordd(
            concord,
            guard=SLOGuard(max_avg_wait_regression=0.50),
            journal=PolicyJournal(journal_path),
            impl_registry=registry,
        )

    daemon_a = daemon()
    ops_client = PolicyClient.connect(daemon_a, "ops", allowed_selectors=("svc.*",))
    window = args.duration_ns // 8
    tasks = spawn_shard_workload(kernel, args.duration_ns)

    # -- phase 1: a healthy policy reaches ACTIVE ----------------------
    print(f"phase 1: steady policy rollout (journal: {journal_path})")
    ops_client.submit(steady_submission())
    steady_a = ops_client.rollout("steady", baseline_ns=window, canary_ns=window)
    check(steady_a.state is PolicyState.ACTIVE, "steady is ACTIVE")
    steady_program = concord.policies["steady"].program

    # -- phase 2: kill -9 mid-canary under an adversarial plan ---------
    print("phase 2: daemon killed mid-canary (adversarial fault plan)")
    kill_plan = FaultPlan(seed=seed, name="kill9")
    kill_plan.crash("controlplane.canary.checkpoint", after=1)
    kill_plan.stall("livepatch.drain", delay_ns=4 * window, times=4)
    ops_client.submit(doomed_submission())
    crashed = False
    try:
        with injected(kill_plan):
            ops_client.rollout(
                "doomed",
                baseline_ns=window,
                canary_ns=4 * window,
                check_every_ns=window // 2,
            )
    except InjectedCrash:
        crashed = True
    daemon_a.detach()  # the process is gone; nothing was torn down
    check(crashed, "InjectedCrash unwound the rollout, no teardown ran")
    check("doomed" in concord.policies, "doomed's canary programs still loaded")
    check(bool(kernel.patcher.active), "doomed's impl patches still active")

    # -- phase 3: restart + recover under verifier flakes --------------
    print("phase 3: new daemon recovers from the journal (flaky verifier)")
    daemon_b = daemon()
    flake_plan = FaultPlan(seed=seed, name="flaky-recovery")
    flake_plan.fail("concord.verifier", times=2)
    with injected(flake_plan):
        summary = daemon_b.recover()
    steady_b = daemon_b.status("steady")
    doomed_b = daemon_b.status("doomed")
    check(summary["reattached"] == ["steady"], "recover() re-attached steady")
    check(steady_b.state is PolicyState.ACTIVE, "steady still ACTIVE after recovery")
    check(
        concord.policies["steady"].program is steady_program
        and sorted(concord.policies["steady"].attached_locks) == selector_locks,
        "steady's hook program unchanged and attached to every target lock",
    )
    check(doomed_b.state is PolicyState.ROLLED_BACK, "doomed is ROLLED_BACK")
    check(not kernel.patcher.active, "doomed's impl patches reverted")
    check(
        flake_plan.fired["concord.verifier"] == 2,
        "recovery retried through 2 injected verifier flakes",
    )
    journal = PolicyJournal(journal_path)
    check(
        journal.last_transition("steady")["to"] == steady_b.state.name
        and journal.last_transition("doomed")["to"] == doomed_b.state.name,
        "journal and audit agree on both final states",
    )
    kernel.run(until=kernel.now + window)  # let revert drains finish
    check(
        all(
            kernel.locks.get(name).core.impl is original_impls[name]
            for name in selector_locks
        ),
        "every lock is back on its pre-drill implementation",
    )

    # -- phase 4: trip the circuit breaker on the survivor -------------
    # Three equal windows on the still-running workload: policy attached
    # and healthy, then faulting (the breaker trips within the first few
    # acquisitions), then pure stock.  Stock out-producing the attached
    # window is the measurable revert: no trampoline dispatch and no
    # hook program left on the acquisition path.
    print("phase 4: runtime faults trip the breaker (fail-open)")

    def total_ops():
        return sum(t.stats.get("ops", 0) for t in tasks)

    start_ops = total_ops()
    kernel.run(until=kernel.now + window)
    active_ops = total_ops() - start_ops  # window 1: policy attached
    fault_plan = FaultPlan(seed=seed, name="helper-faults")
    fault_plan.fail("bpf.helper", times=None, match={"program": "steady*"})
    with injected(fault_plan):
        kernel.run(until=kernel.now + window)  # window 2: faults trip it
    after_faulting = total_ops()
    kernel.run(until=kernel.now + window)
    stock_ops = total_ops() - after_faulting  # window 3: pure stock
    check(steady_b.state is PolicyState.ROLLED_BACK, "breaker rolled steady back")
    check("steady" not in concord.policies, "steady's programs detached")
    check(
        all(not concord.chain(name, HOOK_LOCK_ACQUIRED) for name in selector_locks),
        "no hook chain left on any lock (stock behaviour)",
    )
    check(
        stock_ops >= active_ops,
        f"stock lock out-produces the policy-attached window "
        f"({stock_ops} vs {active_ops} ops): the detach is measurable",
    )
    check(
        PolicyJournal(journal_path).last_transition("steady")["to"] == "ROLLED_BACK",
        "the fail-open rollback was journaled",
    )

    kernel.run()  # drain the workload
    if args.audit:
        print_audit(daemon_b)
    return check.report("drill passed: crash, recovery, and fail-open all behaved")
