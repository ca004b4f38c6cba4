"""Exact bytes of generated traffic traces.

``tests/golden/traffic/traces.jsonl`` holds one line per seed 0-15 of
every combination of

* a ~2 ms schedule: steady, burst (pre/burst/post) and diurnal;
* an arrival process: open-loop Poisson and closed-loop think time;
* a tenant set: one tenant with two ops, and two weighted tenants;

with the trace's event count and the sha256 of its canonical
:meth:`~repro.traffic.Trace.to_jsonl`.  The weights are inexact in
binary, so a change to how a draw sums them shows here.  A trace is the
unit of reproducibility for every replay, so a change that is meant to
keep what a seed generates must leave this file matching; a deliberate
change rewrites it in the same commit with::

    PYTHONPATH=src python -m tests.test_trace_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.traffic import (
    ClosedLoopProcess,
    PhaseSchedule,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
)

GOLDEN = Path(__file__).parent / "golden" / "traffic" / "traces.jsonl"

SEEDS = range(16)

SCHEDULES = {
    "steady": lambda: PhaseSchedule.steady(2_000_000),
    "burst": lambda: PhaseSchedule.burst(800_000, 400_000, 800_000, burst_scale=4.0),
    "diurnal": lambda: PhaseSchedule.diurnal(2_000_000, steps=4, trough_scale=0.3),
}

PROCESSES = {
    "poisson": lambda: PoissonProcess(150.0),
    "closed-loop": lambda: ClosedLoopProcess(clients=6, think_ns=25_000, service_ns=1_500),
}

TENANTS = {
    "single": lambda: TenantSet.single([("shard0", 0.3), ("shard1", 0.1)]),
    "weighted": lambda: TenantSet(
        [
            Tenant("web", 0.7, [("shard0", 0.1), ("shard1", 0.2), ("shard2", 0.3)]),
            Tenant("batch", 0.2, [("shard0", 0.6), ("shard3", 0.1)]),
        ]
    ),
}

CASES = [
    (schedule, process, tenants)
    for schedule in SCHEDULES
    for process in PROCESSES
    for tenants in TENANTS
]


def rows(schedule, process, tenants):
    """``[schedule, process, tenants, seed, events, sha256]`` JSON lines."""
    found = []
    for seed in SEEDS:
        trace = TraceGenerator(
            SCHEDULES[schedule](), PROCESSES[process](), TENANTS[tenants](), seed=seed
        ).generate()
        digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
        found.append([schedule, process, tenants, seed, len(trace), digest])
    return [json.dumps(row) for row in found]


@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_trace_matches_golden(case):
    with open(GOLDEN) as fh:
        golden = [line.rstrip("\n") for line in fh if tuple(json.loads(line)[:3]) == case]
    assert rows(*case) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.writelines(line + "\n" for case in CASES for line in rows(*case))
