"""The benchmark runner: measure, check, trace and profile the workloads.

One run repeats one workload — set-up, then the measured phase — until
``--seconds`` have passed (at least :data:`MIN_ITERATIONS` times) and
reports medians.  Every iteration is one attempted operation.  It fails
if it raises, if one of the workload's correctness checks misses, if its
simulated-output digest differs from the committed golden digest for
the seed, or if it differs from the run's first iteration (the
simulation must be deterministic).  Host times are in reference-speed
seconds: each iteration's are divided by the host slowdown that
:mod:`perfbench.hostspeed` sampled while it ran.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations, prints the per-layer metrics of the
traced ones (medians) plus ``trace.overhead``, and writes the span table
of the last traced iteration under ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a run in which no iteration
completed prints none and exits with status 1.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import hashlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from perfbench.hostspeed import HostSpeedProbe
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Iteration

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")

#: The seed runs use unless told otherwise.
DEFAULT_SEED = 1
#: The seed kept out of development; gains are claimed on it.
HELD_OUT_SEED = 97
#: Each kind of iteration (untraced, traced) runs at least this often.
MIN_ITERATIONS = 3

#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_ops_per_host_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_ops_per_ms": ("1/ms", "higher"),
    "sim_wait_p99_ns": ("ns", "lower"),
    "rollout_sim_ms": ("ms", "lower"),
}

_COUNT = ("count", "higher")
_WORK = ("count", "lower")
_SECONDS = ("s", "lower")
_MICROS = ("us", "lower")

#: name -> (unit, better)
PER_LAYER = {
    "host.slowdown": ("ratio", "lower"),
    "host.wall_raw_s": _SECONDS,
    "sim.engine.events": _WORK,
    "sim.engine.host_ns_per_event": ("ns", "lower"),
    "sim.engine.run_s": _SECONDS,
    "sim.sched.context_switches": _WORK,
    "sim.sched.parks": _WORK,
    "sim.sched.wakeups": _WORK,
    "sim.tasks_spawned": _WORK,
    "sim.cache.accesses": _WORK,
    "sim.cache.remote_transfers": _WORK,
    "sim.cache.atomics": _WORK,
    "sim.cache.local_spins": _WORK,
    "sim.cache.host_s": _SECONDS,
    "sim.topology.calls": _WORK,
    "sim.topology.host_s": _SECONDS,
    **{
        f"locks.{family}.{metric}": spec
        for family in ("shfllock", "mcs", "switchable")
        for metric, spec in (
            ("acquires", _COUNT),
            ("acquire_host_us", _MICROS),
            ("release_host_us", _MICROS),
        )
    },
    "locks.shfllock.shuffle_passes": _WORK,
    "concord.hook.calls": _WORK,
    "concord.hook.host_us": _MICROS,
    "concord.pack.host_s": _SECONDS,
    "concord.profiler.snapshots": _WORK,
    "concord.profiler.snapshot_host_s": _SECONDS,
    "bpf.vm.runs": _WORK,
    "bpf.vm.host_s": _SECONDS,
    "bpf.vm.share": ("ratio", "lower"),
    "bpf.vm.sim_cost_ns": ("ns", "lower"),
    "bpf.verifier.calls": _WORK,
    "bpf.verifier.host_s": _SECONDS,
    "livepatch.enables": _WORK,
    "livepatch.host_s": _SECONDS,
    "controlplane.canary.runs": _WORK,
    "controlplane.canary.self_s": _SECONDS,
    "controlplane.journal.appends": _WORK,
    "controlplane.journal.append_host_us": _MICROS,
    "replication.appends": _WORK,
    "replication.append_host_us": _MICROS,
    "replication.noquorum": _WORK,
    "replication.compact_host_s": _SECONDS,
    "storage.scrubs": _WORK,
    "storage.scrub_host_s": _SECONDS,
    "storage.repairs": _WORK,
    "netsim.deliveries": _WORK,
    "netsim.deliver_host_us": _MICROS,
    "netsim.dropped": _WORK,
    "netsim.rejected": _WORK,
    "fleet.waves": _WORK,
    "fleet.coordinator.self_s": _SECONDS,
    "fleet.coordinator.self_share": ("ratio", "lower"),
    "fleet.placement.learn_s": _SECONDS,
    "traffic.generate_s": _SECONDS,
    "traffic.install_s": _SECONDS,
    "traffic.requests_completed": _COUNT,
    "trace.overhead": ("ratio", "lower"),
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest(outputs: Dict[str, object]) -> str:
    """Stable digest of an iteration's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, Dict[str, object]]]:
    with open(path) as fh:
        return json.load(fh)["workloads"]


def expected_for(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """The committed golden entry for ``(workload, seed)``, if any."""
    return load_golden().get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# One iteration
# ----------------------------------------------------------------------
def iterate(name: str, seed: int, tracer: Optional[Tracer] = None) -> Iteration:
    """Set up and measure ``name`` once, optionally under ``tracer``.

    The returned ``setup_s`` and ``wall_s`` are in reference-speed
    seconds: the host time of each phase, less the probe's own spins,
    divided by the slowdown :class:`HostSpeedProbe` saw meanwhile."""
    gc.collect()
    marks: List[int] = []

    def mark() -> None:
        marks.append(time.perf_counter_ns())
        if tracer is not None:
            tracer.phase = "measure"

    probe = HostSpeedProbe()
    if tracer is not None:
        tracer.install()
    probe.start()
    try:
        begin = time.perf_counter_ns()
        it = WORKLOADS[name].run(seed, mark)
        end = time.perf_counter_ns()
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    slowdown = probe.slowdown()
    return dataclasses.replace(
        it,
        setup_s=(it.setup_s - probe.spent_s(begin, marks[0])) / slowdown,
        wall_s=(it.wall_s - probe.spent_s(marks[0], end)) / slowdown,
        slowdown=slowdown,
    )


def check(
    iteration: Iteration,
    expect: Optional[Dict[str, object]],
    first: Optional[str],
    tracer: Optional[Tracer] = None,
) -> List[str]:
    """Every reason ``iteration`` counts as failed."""
    problems = list(iteration.errors)
    got = digest(iteration.outputs)
    if expect is not None and got != expect["digest"]:
        problems.append(f"simulated outputs digest {got} != committed {expect['digest']}")
    if first is not None and got != first:
        problems.append(f"simulated outputs digest {got} != this run's first {first}")
    if (
        tracer is not None
        and expect is not None
        and tracer.vm_sim_cost_ns != expect["vm_sim_cost_ns"]
    ):
        problems.append(
            f"bpf.vm.sim_cost_ns {tracer.vm_sim_cost_ns} != committed "
            f"{expect['vm_sim_cost_ns']}"
        )
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(plain: List[Iteration]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(it.wall_s for it in plain),
        "setup_s": statistics.median(it.setup_s for it in plain),
        "sim_ops_per_host_s": statistics.median(it.ops / it.wall_s for it in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **plain[0].sim,
    }


def per_layer(it: Iteration, tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Counts and host times cover the whole iteration (set-up and measured
    phase).  ``*_host_us`` is inclusive host time per call, ``*_s`` a
    layer's total: self time for the simulator layers, the VM, the pack,
    livepatch and the ``self_s`` metrics, inclusive otherwise.  Like
    ``wall_s``, host times are in reference-speed units (divided by the
    iteration's probe slowdown).  Shares divide measured-phase self time
    by the untraced ``wall_s``."""
    counters = it.counters
    out: Dict[str, float] = {name: 0 for name in PER_LAYER}
    out.update({k: v for k, v in counters.items() if k in out})
    ns = it.slowdown  # host ns -> reference-speed ns

    def calls(layer: str) -> int:
        return tracer.layer(layer)[0]

    def inclusive_s(layer: str) -> float:
        return tracer.layer(layer)[1] / ns / 1e9

    def self_s(layer: str, phase: Optional[str] = None) -> float:
        return tracer.layer(layer, phase)[2] / ns / 1e9

    def per_call_us(layer: str, count: Optional[int] = None) -> float:
        n = calls(layer) if count is None else count
        return tracer.layer(layer)[1] / ns / 1e3 / n if n else 0.0

    events = counters["sim.engine.events"]
    out["sim.engine.run_s"] = inclusive_s("sim.engine")
    out["sim.engine.host_ns_per_event"] = inclusive_s("sim.engine") * 1e9 / events if events else 0.0
    out["sim.cache.host_s"] = self_s("sim.cache")
    out["sim.topology.calls"] = calls("sim.topology")
    out["sim.topology.host_s"] = self_s("sim.topology")
    for family in ("shfllock", "mcs", "switchable"):
        acquires = tracer.generators.get(f"locks.{family}.acquire", 0)
        releases = tracer.generators.get(f"locks.{family}.release", 0)
        out[f"locks.{family}.acquires"] = acquires
        out[f"locks.{family}.acquire_host_us"] = per_call_us(f"locks.{family}.acquire", acquires)
        out[f"locks.{family}.release_host_us"] = per_call_us(f"locks.{family}.release", releases)
    out["concord.hook.calls"] = calls("concord.hook")
    out["concord.hook.host_us"] = per_call_us("concord.hook")
    out["concord.pack.host_s"] = self_s("concord.pack")
    out["concord.profiler.snapshots"] = calls("concord.profiler")
    out["concord.profiler.snapshot_host_s"] = inclusive_s("concord.profiler")
    out["bpf.vm.runs"] = calls("bpf.vm")
    out["bpf.vm.host_s"] = self_s("bpf.vm")
    out["bpf.vm.share"] = self_s("bpf.vm", "measure") / wall_s
    out["bpf.vm.sim_cost_ns"] = tracer.vm_sim_cost_ns
    out["bpf.verifier.calls"] = calls("bpf.verifier")
    out["bpf.verifier.host_s"] = inclusive_s("bpf.verifier")
    out["livepatch.enables"] = calls("livepatch")
    out["livepatch.host_s"] = self_s("livepatch")
    out["controlplane.canary.runs"] = calls("controlplane.canary")
    out["controlplane.canary.self_s"] = self_s("controlplane.canary")
    out["controlplane.journal.appends"] = calls("controlplane.journal")
    out["controlplane.journal.append_host_us"] = per_call_us("controlplane.journal")
    out["replication.appends"] = calls("replication.append")
    out["replication.append_host_us"] = per_call_us("replication.append")
    out["replication.noquorum"] = tracer.layer("replication.append")[3]
    out["replication.compact_host_s"] = inclusive_s("replication.compact")
    out["storage.scrubs"] = calls("storage.scrub")
    out["storage.scrub_host_s"] = inclusive_s("storage.scrub")
    out["netsim.deliveries"] = calls("netsim.deliver")
    out["netsim.deliver_host_us"] = per_call_us("netsim.deliver")
    out["fleet.coordinator.self_s"] = self_s("fleet.coordinator")
    out["fleet.coordinator.self_share"] = self_s("fleet.coordinator", "measure") / wall_s
    out["fleet.placement.learn_s"] = inclusive_s("fleet.placement")
    out["traffic.generate_s"] = inclusive_s("traffic.generate")
    out["traffic.install_s"] = inclusive_s("traffic.install")
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class NoResult(Exception):
    """No iteration of the run completed, so nothing can be reported."""


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    expect: Optional[Dict[str, object]] = None,
    log=sys.stderr,
) -> Dict[str, object]:
    """One benchmark run; returns the result object the CLI prints.

    ``expect`` is the golden entry the outputs must match (``None``:
    only run-to-run determinism and the workload's own checks apply).
    """
    deadline = time.perf_counter() + seconds
    plain: List[Iteration] = []
    traced: List[Tuple[Iteration, Tracer]] = []
    first: Optional[str] = None
    attempted = failed = 0
    while True:
        tracer = Tracer() if trace and len(traced) < len(plain) else None
        attempted += 1
        try:
            it = iterate(name, seed, tracer)
        except Exception as exc:  # a raising iteration is a failed operation
            failed += 1
            print(f"[{name} seed {seed}] iteration {attempted} raised {exc!r}", file=log)
        else:
            problems = check(it, expect, first, tracer)
            if first is None:
                first = digest(it.outputs)
            if problems:
                failed += 1
                for problem in problems:
                    print(f"[{name} seed {seed}] iteration {attempted}: {problem}", file=log)
            if tracer is None:
                plain.append(it)
            else:
                traced.append((it, tracer))
        enough = attempted >= MIN_ITERATIONS * (2 if trace else 1)
        if enough and time.perf_counter() >= deadline:
            break
    if not plain or (trace and not traced):
        raise NoResult(f"{name}: no iteration of {attempted} completed")

    e2e = end_to_end(plain)
    if trace:
        rows = [per_layer(it, tr, e2e["wall_s"]) for it, tr in traced]
        values = {key: statistics.median(row[key] for row in rows) for key in PER_LAYER}
        values["trace.overhead"] = (
            statistics.median(it.wall_s for it, _ in traced) / e2e["wall_s"]
        )
        # What the untraced iterations saw before normalisation.
        values["host.slowdown"] = statistics.median(it.slowdown for it in plain)
        values["host.wall_raw_s"] = statistics.median(it.wall_s * it.slowdown for it in plain)
        units = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json")
        traced[-1][1].dump(path, {"workload": name, "seed": seed})
        print(f"spans written to {path}", file=log)
    else:
        values = e2e
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key][0]} for key in units},
    }


# ----------------------------------------------------------------------
# Maintenance modes
# ----------------------------------------------------------------------
def profile(name: str, seed: int) -> str:
    """Profile one iteration of ``name``; returns the pstats path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}.pstats")
    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    WORKLOADS[name].run(seed, lambda: None)
    profiler.disable()
    profiler.dump_stats(path)
    pstats.Stats(path, stream=sys.stdout).sort_stats("tottime").print_stats(15)
    return path


def parse_seeds(text: str) -> List[int]:
    """``"0-3,97"`` -> ``[0, 1, 2, 3, 97]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def write_golden(seeds: List[int], path: str = GOLDEN_PATH) -> None:
    """Record the digest and VM cost of every (workload, seed) from a
    traced iteration.  Only for a change that is labelled as moving
    simulated results."""
    workloads: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in WORKLOADS:
        workloads[name] = {}
        for seed in seeds:
            tracer = Tracer()
            it = iterate(name, seed, tracer)
            if it.errors:
                raise SystemExit(f"{name} seed {seed}: {it.errors}")
            workloads[name][str(seed)] = {
                "digest": digest(it.outputs),
                "vm_sim_cost_ns": tracer.vm_sim_cost_ns,
            }
            print(f"{name} seed {seed}: {workloads[name][str(seed)]}", file=sys.stderr)
    doc = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": workloads,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _print_table(name: str, result: Dict[str, object]) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<14} {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{name:<14} failed {result['failed']} of {result['attempted']} attempted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn (default)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", action="store_true",
        help="profile one iteration per workload into perfbench/out/*.pstats",
    )
    parser.add_argument(
        "--write-golden", metavar="SEEDS",
        help="re-record golden digests for seeds like 0-31,97 (moves the baseline)",
    )
    return parser


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of its own (so
    ``peak_rss_mb`` is per workload); one combined result line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        _print_table(name, results[name])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": entry
                    for name, r in results.items()
                    for metric, entry in r["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.write_golden:
        write_golden(parse_seeds(args.write_golden))
        return 0
    if args.profile:
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            print(f"profile written to {profile(name, args.seed)}")
        return 0
    if args.workload == "all":
        return run_all(args)
    name = args.workload
    try:
        result = measure(name, args.seed, args.seconds, bool(args.trace), expected_for(name, args.seed))
    except NoResult as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_table(name, result)
    print(json.dumps(result))
    return 0
