"""The ``concordd`` CLI: scripted control-plane scenarios.

Usage::

    python -m repro.tools.concordd rollout
    python -m repro.tools.concordd rollout --seed 3 --audit
    python -m repro.tools.concordd drill --seed 5
    python -m repro.tools.concordd fleet --kernels 5 --journal-dir fleet-journals

Each scenario lives in :mod:`repro.scenarios`; this module is the table
of scenarios and the flags each one takes.  Exit status 0 means every
check held, 1 that one failed, 2 a bad invocation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, NamedTuple

from ..scenarios import (
    adapt,
    drill,
    fleet,
    fleet_degraded,
    guards,
    partition,
    replicated,
    rollout,
    scrub,
    traffic,
)

__all__ = ["FLAGS", "SCENARIOS", "Scenario", "build_parser", "main"]

#: Every flag a scenario can take, declared once; each scenario picks
#: its flags and their defaults in :data:`SCENARIOS`.
FLAGS = {
    "--seed": dict(type=int, help="simulation seed"),
    "--duration-ms": dict(type=float, help="simulated duration in milliseconds"),
    "--kernels": dict(
        type=int, help="independent kernels to run, or the fleet size in fleet scenarios"
    ),
    "--journal": dict(help="journal path (default: a fresh temp directory)"),
    "--journal-dir": dict(help="journal directory (default: a fresh temp directory)"),
    "--audit": dict(action="store_true", help="print the full audit log"),
}


class Scenario(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    #: flag -> default, for the flags this scenario takes
    flags: Dict[str, object]
    min_kernels: int = 1


SCENARIOS = {
    "rollout": Scenario(
        rollout.run,
        "bad policy canaries and rolls back; good policy goes ACTIVE",
        {"--duration-ms": 4.0, "--seed": 7, "--kernels": 1, "--audit": False},
    ),
    "drill": Scenario(
        drill.run,
        "kill the daemon mid-canary, recover from the journal, "
        "then trip the circuit breaker",
        {"--duration-ms": 4.0, "--journal": None, "--seed": 7, "--kernels": 1, "--audit": False},
    ),
    "fleet": Scenario(
        fleet.run,
        "placement-aware waves across many kernels: bad policy halts the "
        "fleet and reverts; good policy goes fleet-wide; mid-wave crash "
        "recovers from the journals",
        {"--kernels": 3, "--duration-ms": 8.0, "--journal-dir": None, "--seed": 7, "--audit": False},
        min_kernels=3,
    ),
    "fleet-degraded": Scenario(
        fleet_degraded.run,
        "kill a member mid-wave: any-breach halts and converges to stock, "
        "quorum completes degraded; reinstate + recover drains the "
        "journaled revert debt",
        {"--kernels": 4, "--duration-ms": 8.0, "--journal-dir": None, "--seed": 7, "--audit": False},
        min_kernels=4,
    ),
    "replicated": Scenario(
        replicated.run,
        "journals replicated over 3-site groups: leader death fails over "
        "mid-wave, a recovered follower is read-gated until a committed "
        "write, and concurrent overlapping rollouts serialize (first "
        "committer wins)",
        {"--kernels": 3, "--duration-ms": 8.0, "--seed": 7, "--audit": False},
        min_kernels=3,
    ),
    "scrub": Scenario(
        scrub.run,
        "flip bytes in replicated and unreplicated policy stores: scrub "
        "detects, quorum peers repair, snapshots replay, and a rotten "
        "unreplicated shard quarantines with salvage + debt",
        {"--kernels": 3, "--duration-ms": 8.0, "--journal-dir": None, "--seed": 7, "--audit": False},
        min_kernels=3,
    ),
    "partition": Scenario(
        partition.run,
        "simulated network fabric: a mid-rollout partition halts any-breach "
        "with classified rpc-exhausted debt, a deadline rollout completes "
        "degraded under quorum, a scheduled asymmetric split fences the "
        "stale leader, and the heal reconciles every replica",
        {"--kernels": 4, "--duration-ms": 8.0, "--seed": 7, "--audit": False},
        min_kernels=4,
    ),
    "guards": Scenario(
        guards.run,
        "tail guard catches a per-lock p99 regression the avg guard misses; "
        "pooled fleet verdict trips on cross-kernel evidence",
        {"--duration-ms": 4.0, "--seed": 7, "--journal-dir": None},
    ),
    "traffic": Scenario(
        traffic.run,
        "trace-driven load: malthusian knee check, then the same policy "
        "passes the pooled tail guard under a steady trace and is halted "
        "with an attributed breach under a burst trace",
        {"--duration-ms": 4.0, "--seed": 7, "--journal-dir": None, "--audit": False},
    ),
    "adapt": Scenario(
        adapt.run,
        "adaptive overload defense: the loop detects a trace-driven collapse "
        "on pooled fleet evidence, self-proposes a Malthusian cull and keeps "
        "it; a mid-propose kill is recovered without leaving an unjudged "
        "cull; an over-aggressive cap is rolled back by the fairness guard",
        {"--duration-ms": 4.0, "--seed": 42, "--journal-dir": None, "--audit": False},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.concordd",
        description="Run scripted concordd control-plane scenarios.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, scenario in SCENARIOS.items():
        command = sub.add_parser(name, help=scenario.help)
        for flag, default in scenario.flags.items():
            command.add_argument(flag, default=default, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenario = SCENARIOS[args.scenario]
    if args.duration_ms <= 0:
        print("error: --duration-ms must be positive", file=sys.stderr)
        return 2
    if getattr(args, "kernels", 1) < scenario.min_kernels:
        print(
            f"error: {args.scenario} scenario needs --kernels >= {scenario.min_kernels}",
            file=sys.stderr,
        )
        return 2
    args.duration_ns = int(args.duration_ms * 1e6)
    return scenario.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
