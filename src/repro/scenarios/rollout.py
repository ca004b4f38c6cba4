"""``rollout``: the control plane's acceptance path.

Two clients share one kernel running a contended shard workload;
*alice* submits a **bad NUMA policy** (anti-NUMA waiter grouping plus an
expensive per-acquisition accounting program — Table 1's "increase
critical section" hazard), *bob* submits the paper's **good NUMA
policy**.  Both roll out through the canary engine; the SLO guard must
catch alice's policy mid-benchmark and roll it back, while bob's reaches
ACTIVE.  Exit status 0 means exactly that happened — on every kernel
when ``--kernels N`` repeats the scenario on N independent kernels.
"""

from __future__ import annotations

import sys

from ..concord import Concord
from ..controlplane import Concordd, PolicyState
from ..userspace import PolicyClient
from .harness import (
    SELECTOR,
    bad_numa_submission,
    good_numa_submission,
    per_kernel,
    print_audit,
    shard_kernel,
    slo_guard,
    spawn_shard_workload,
)


def run(args) -> int:
    return per_kernel(args, lambda seed, index: _once(args, seed))


def _once(args, seed: int) -> int:
    kernel = shard_kernel(seed)
    daemon = Concordd(Concord(kernel), guard=slo_guard(), canary_fraction=0.5)
    alice = PolicyClient.connect(daemon, "alice", allowed_selectors=("svc.*",))
    bob = PolicyClient.connect(daemon, "bob", allowed_selectors=("svc.*",))
    tasks = spawn_shard_workload(kernel, args.duration_ns)

    window = args.duration_ns // 8
    timing = dict(baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 4)
    alice.submit(bad_numa_submission(SELECTOR))
    bad = alice.rollout("bad-numa", **timing)
    bob.submit(good_numa_submission())
    good = bob.rollout("numa-good", **timing)
    kernel.run()  # drain the workload

    print(f"bad policy  : {bad.state.name:<12} {bad.verdict.describe()}")
    print(f"good policy : {good.state.name:<12} {good.verdict.describe()}")
    stalled = [t for t in tasks if t.stats.get("ops", 0) == 0]
    print(
        f"workload    : {len(tasks)} tasks, "
        f"{sum(t.stats.get('ops', 0) for t in tasks)} ops, "
        f"{len(stalled)} stalled"
    )
    if args.audit:
        print_audit(daemon)

    ok = (
        bad.state is PolicyState.ROLLED_BACK
        and good.state is PolicyState.ACTIVE
        and not stalled
    )
    if not ok:
        print("scenario FAILED: expected bad-numa ROLLED_BACK + numa-good ACTIVE", file=sys.stderr)
    return 0 if ok else 1
