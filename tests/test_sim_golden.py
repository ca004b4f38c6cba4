"""Exact engine behaviour on small fixed-seed configurations.

``tests/golden/sim/<config>.json`` holds, for each configuration below,
every task's per-yield log (the simulated ns at which each request
completed and the value it resumed with), ``events_processed``, the
final clock and the engine's ``stats.snapshot()``.  Counters that stayed
zero are left out of the snapshot: a zero counter and an absent one say
the same thing.  Together the configurations reach the scheduler and
coherence paths that the scenario goldens and the benchmark digests do
not: frozen CPUs, futex parking, asymmetric speed factors, non-uniform
NUMA distances, external stores and injected calls.

A change to ``repro.sim`` that is meant to keep behaviour must leave
every file matching; a deliberate behaviour change rewrites them in the
same commit with::

    PYTHONPATH=src python -m tests.test_sim_golden
"""

import json
from pathlib import Path

import pytest

from repro.sim import Engine, Topology, amp_machine, ops

GOLDEN = Path(__file__).parent / "golden" / "sim"


class _Run:
    """One engine plus the per-yield log of every task spawned on it."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.log = {}

    def spawn(self, script, cpu, name, **kwargs):
        entries = self.log[name] = []

        def body(task):
            gen = script(task)
            value = None
            while True:
                try:
                    request = gen.send(value)
                except StopIteration:
                    return
                value = yield request
                entries.append(f"{task.engine.now} {value!r}")

        return self.engine.spawn(body, cpu, name=name, **kwargs)

    def note(self, name, text):
        """Log an event that happens outside any task."""
        self.log.setdefault(name, []).append(f"{self.engine.now} {text}")

    def record(self):
        eng = self.engine
        return {
            "log": self.log,
            "events": eng.events_processed,
            "now": eng.now,
            "stats": {k: v for k, v in eng.stats.snapshot().items() if v},
        }


def _delays(*ns):
    def script(task):
        for n in ns:
            yield ops.Delay(n)

    return script


def freeze():
    """Frozen CPUs defer completions, wake-ups, dispatches and starts;
    overlapping freezes stack to the longest."""
    eng = Engine(Topology(sockets=1, cores_per_socket=4), seed=7)
    run = _Run(eng)
    cell = eng.cell(0, name="cell")

    def sleeper(task):
        yield ops.Park()
        yield ops.Delay(100)

    def spinner(task):
        yield ops.WaitValue(cell, lambda v: v == 1)
        yield ops.Delay(50)

    run.spawn(_delays(*[1_000] * 4), 0, "worker")
    run.spawn(_delays(200, 200), 0, "late", at=2_000)
    sleeper_task = run.spawn(sleeper, 1, "sleeper")
    run.spawn(spinner, 2, "spinner")

    def waker(task):
        yield ops.Delay(2_000)
        yield ops.Unpark(sleeper_task)
        yield ops.Delay(6_000)
        yield ops.Store(cell, 1)

    run.spawn(waker, 3, "waker", at=10)
    eng.call_at(1_500, lambda: eng.freeze_cpu(0, 5_000))
    eng.call_at(1_600, lambda: eng.freeze_cpu(0, 1_000))
    eng.call_at(1_800, lambda: eng.freeze_cpu(1, 10_000))
    eng.call_at(7_000, lambda: eng.freeze_cpu(2, 3_000))
    eng.run()
    return run.record()


def park():
    """Park/Unpark, a token left before the park, and a no-op unpark of
    a finished task."""
    eng = Engine(Topology(sockets=1, cores_per_socket=4), seed=11)
    run = _Run(eng)

    def parker(task):
        yield ops.Park()
        yield ops.Delay(100)

    def token(task):
        yield ops.Delay(5_000)
        yield ops.Park()
        yield ops.Delay(100)

    sleeper = run.spawn(parker, 0, "sleeper")
    run.spawn(_delays(300, 300, 300), 0, "neighbour", at=5)
    token_task = run.spawn(token, 1, "token")
    quick = run.spawn(_delays(10), 2, "quick", at=20_000)

    def waker(task):
        yield ops.Delay(100)
        yield ops.Unpark(token_task)
        yield ops.Delay(2_000)
        yield ops.Unpark(sleeper)
        yield ops.Delay(2_000)
        yield ops.Delay(20_000)
        yield ops.Unpark(quick)

    run.spawn(waker, 3, "waker", at=50)
    eng.run()
    return run.record()


def amp_speeds():
    """Speed factors scale Delay (truncating fractional products,
    clamping negatives to zero) but not memory operations."""
    topo = amp_machine(big_cores=2, little_cores=2, little_slowdown=2.5)
    run = _Run(Engine(topo, seed=17))
    counter = run.engine.cell(0, name="counter")

    def script(task):
        for ns in (333, 10.5, 0, -7, 1_001):
            yield ops.Delay(ns)
            yield ops.FetchAdd(counter, 1)
        yield ops.Load(counter)

    for cpu in range(topo.nr_cpus):
        run.spawn(script, cpu, f"cpu{cpu}")
    run.engine.run()
    return run.record()


def numa_distance():
    """Contended atomics, shared reads and spinners on a 4-socket box
    whose hop matrix is non-uniform and says 0 between sockets 1 and 2."""
    topo = Topology(
        sockets=4,
        cores_per_socket=2,
        numa_distance=[[0, 1, 2, 3], [1, 0, 0, 2], [2, 0, 0, 1], [3, 2, 1, 0]],
    )
    eng = Engine(topo, seed=19)
    run = _Run(eng)
    lock = eng.cell(0, name="lock")
    count = eng.cell(0, name="count")
    shared = eng.cell(0, name="shared")
    slot = eng.cell(None, name="slot")

    def worker(task):
        rng = task.engine.rng
        for _ in range(6):
            yield ops.Load(shared)
            while True:
                ok, _old = yield ops.CAS(lock, 0, task.tid)
                if ok:
                    break
                yield ops.WaitValue(lock, lambda v: v == 0)
            yield ops.FetchAdd(count, 1)
            yield ops.Xchg(slot, task.tid)
            yield ops.Delay(rng.randint(50, 300))
            yield ops.Store(lock, 0)
            if task.cpu_id % 3 == 0:
                yield ops.Store(shared, task.tid)
            yield ops.Delay(rng.randint(0, 200))

    for cpu in range(topo.nr_cpus):
        run.spawn(worker, cpu, f"w{cpu}", at=cpu * 7)
    eng.run()
    return run.record()


def external_store():
    """Stores from outside any task wake spinners across sockets in
    staggered order; a false predicate re-arms its waiter."""
    eng = Engine(Topology(sockets=2, cores_per_socket=3), seed=23)
    run = _Run(eng)
    cell = eng.cell(0, name="cell")

    def spinner(want):
        def script(task):
            yield ops.WaitValue(cell, lambda v: v >= want)
            yield ops.Delay(100)

        return script

    for cpu, want in ((1, 1), (2, 2), (3, 1), (4, 3), (5, 2)):
        run.spawn(spinner(want), cpu, f"spin{cpu}")
    run.spawn(spinner(0), 0, "already")
    eng.call_at(1_000, lambda: eng.external_store(cell, 1, cpu=0))
    eng.call_at(3_000, lambda: eng.external_store(cell, 2, cpu=4))
    eng.call_at(6_000, lambda: eng.external_store(cell, 3))
    eng.run()
    return run.record()


def call_at():
    """Injected calls and spawns (past times clamp to now), a bounded
    run, a bounded resume, a drain, then a bound past the drain."""
    eng = Engine(Topology(sockets=1, cores_per_socket=2), seed=29)
    run = _Run(eng)
    run.spawn(_delays(*[100] * 60), 0, "ticker")
    run.spawn(_delays(*[370] * 12), 1, "slow", at=30)
    eng.call_at(1_234, lambda: run.note("calls", "at"))
    eng.call_after(777, lambda: run.note("calls", "after"))
    run.note("calls", f"until {eng.run(until=2_500)}")
    eng.call_at(1_000, lambda: run.note("calls", "past"))
    run.spawn(_delays(50, 50), 1, "past", at=1_000)
    run.note("calls", f"until {eng.run(until=4_000)}")
    run.note("calls", f"drained {eng.run()}")
    run.note("calls", f"idle {eng.run(until=eng.now + 500)}")
    return run.record()


CONFIGS = {
    fn.__name__: fn
    for fn in (
        freeze,
        park,
        amp_speeds,
        numa_distance,
        external_store,
        call_at,
    )
}


def _load(name):
    with open(GOLDEN / f"{name}.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_engine_matches_golden(name):
    assert CONFIGS[name]() == _load(name)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        with open(GOLDEN / f"{name}.json", "w") as fh:
            json.dump(config(), fh, indent=1, sort_keys=True)
            fh.write("\n")
