"""Exact output of the seeded chaos samplers.

``tests/golden/chaos/samplers.jsonl`` holds one line per seed 0-63 of:

* ``sample_plan``: the plan name and every rule (its repr plus ``after``
  and ``delay_ns``) under seven group settings: no optional group, each
  of the five optional groups alone, and all five together;
* ``sample_partition_schedule``: the serialized schedule for two
  endpoint sets.

A chaos seed names an adversary in CI and in bug reports, so a change
that is meant to keep the samplers' draws must leave this file
matching; a deliberate change to what a seed draws rewrites it in the
same commit with::

    PYTHONPATH=src python -m tests.test_sampler_golden
"""

import json
from pathlib import Path

import pytest

from repro.faults.chaos import (
    CHAOS_ADAPTIVE_SITES,
    CHAOS_NET_SITES,
    CHAOS_REPLICATION_SITES,
    CHAOS_STORAGE_SITES,
    CHAOS_TRAFFIC_SITES,
    sample_plan,
)
from repro.netsim import sample_partition_schedule

GOLDEN = Path(__file__).parent / "golden" / "chaos" / "samplers.jsonl"

SEEDS = range(64)

OPTIONAL_GROUPS = {
    "replication_sites": CHAOS_REPLICATION_SITES,
    "storage_sites": CHAOS_STORAGE_SITES,
    "traffic_sites": CHAOS_TRAFFIC_SITES,
    "net_sites": CHAOS_NET_SITES,
    "adaptive_sites": CHAOS_ADAPTIVE_SITES,
}

GROUP_SETTINGS = {
    "none": {},
    **{name: {name: sites} for name, sites in OPTIONAL_GROUPS.items()},
    "all": dict(OPTIONAL_GROUPS),
}

ENDPOINT_SETS = {
    "fleet": (["k0", "k1", "k2", "k3", "fleet"], 2_000_000),
    "group": (["g", "g/site0", "g/site1", "g/site2"], 600_000),
}


def _plan(seed, groups):
    plan = sample_plan(seed, **groups)
    return [plan.name] + [
        f"{rule!r} after={rule.after} delay_ns={rule.delay_ns}" for rule in plan.rules
    ]


def rows(sampler):
    """``[sampler, setting, seed, output]`` rows, one JSON line each."""
    if sampler == "sample_plan":
        found = [
            [sampler, setting, seed, _plan(seed, groups)]
            for setting, groups in GROUP_SETTINGS.items()
            for seed in SEEDS
        ]
    else:
        found = [
            [sampler, label, seed, sample_partition_schedule(seed, ends, total_ns).serialize()]
            for label, (ends, total_ns) in ENDPOINT_SETS.items()
            for seed in SEEDS
        ]
    return [json.dumps(row, sort_keys=True) for row in found]


SAMPLERS = ("sample_plan", "sample_partition_schedule")


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sampler_matches_golden(sampler):
    with open(GOLDEN) as fh:
        golden = [line.rstrip("\n") for line in fh if json.loads(line)[0] == sampler]
    assert rows(sampler) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.writelines(line + "\n" for sampler in SAMPLERS for line in rows(sampler))
