"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest perfbench/test_perfbench.py -q
"""

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import bench
from perfbench.hostspeed import HostSpeedProbe
from perfbench.tracer import _CALLS, _GENERATORS, Tracer
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(bench.HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_golden_seeds_pass(name):
    for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED):
        expect = bench.expected_for(name, seed)
        assert expect is not None, f"no golden digest for {name} seed {seed}"
        it = bench.iterate(name, seed)
        assert bench.check(it, expect, None) == []


def test_perturbed_seed_is_reported_failed():
    """Simulated outputs that differ from the committed digest — here, a
    run of seed 2 judged against seed 1's digest — fail every iteration."""
    log = io.StringIO()
    result = bench.measure("trace_replay", 2, 0, False, bench.expected_for("trace_replay", 1), log)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= bench.MIN_ITERATIONS
    assert "committed" in log.getvalue()


def test_traced_run_reports_every_layer_and_simulates_the_same():
    expect = bench.expected_for("trace_replay", bench.DEFAULT_SEED)
    result = bench.measure("trace_replay", bench.DEFAULT_SEED, 0, True, expect)
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == set(bench.PER_LAYER)
    # The trace replay reaches neither hooks nor the VM.
    assert metrics["concord.hook.calls"]["value"] == 0
    assert metrics["bpf.vm.runs"]["value"] == 0
    assert metrics["traffic.requests_completed"]["value"] > 0
    assert metrics["trace.overhead"]["value"] > 1.0


def test_untraced_run_reports_every_end_to_end_metric():
    result = bench.measure("lock2_numa", bench.DEFAULT_SEED, 0, False,
                           bench.expected_for("lock2_numa", bench.DEFAULT_SEED))
    assert result["correct"], result
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_tracer_uninstall_restores_every_attribute():
    targets = [(owner, attr) for owner, attr, *_ in _CALLS + _GENERATORS]
    before = [vars(owner).get(attr) for owner, attr in targets]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert [vars(owner).get(attr) for owner, attr in targets] == before


def test_generator_wrapper_is_transparent():
    def inner():
        got = yield 1
        try:
            yield got + 1
        except KeyError:
            yield "caught"
        return "done"

    tracer = Tracer()
    gen = tracer._timed_generator("test.layer", inner())
    assert next(gen) == 1
    assert gen.send(41) == 42
    assert gen.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    calls, _inclusive, _self, raised = tracer.layer("test.layer")
    assert (calls, raised, tracer.generators["test.layer"]) == (4, 0, 1)


def test_host_speed_probe_samples_and_disarms():
    previous = signal.getsignal(signal.SIGALRM)
    probe = HostSpeedProbe()
    probe.start()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    probe.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) >= 5
    assert probe.slowdown() > 0
    assert 0 < probe.spent_s(0, time.perf_counter_ns()) < 0.3


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lock2_numa",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
