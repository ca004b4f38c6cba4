"""Engine behaviour: time, effects, scheduling, determinism."""

import weakref

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.sim import (
    DeadlockError,
    Engine,
    SimLimitError,
    TaskState,
    Topology,
    TopologyError,
    ops,
)


def make_engine(**kw):
    return Engine(Topology(sockets=2, cores_per_socket=4), **kw)


class TestBasics:
    def test_delay_advances_time(self):
        eng = make_engine()

        def body(task):
            yield ops.Delay(100)
            yield ops.Delay(250)

        task = eng.spawn(body, cpu=0)
        eng.run()
        assert task.done
        assert eng.now == 350

    def test_task_result_and_finish_time(self):
        eng = make_engine()

        def body(task):
            yield ops.Delay(10)
            return "payload"

        task = eng.spawn(body, cpu=0)
        eng.run()
        assert task.result == "payload"
        assert task.finish_time == 10

    def test_spawn_at_future_time(self):
        eng = make_engine()
        times = []

        def body(task):
            times.append(task.engine.now)
            yield ops.Delay(1)

        eng.spawn(body, cpu=0, at=500)
        eng.run()
        assert times == [500]

    def test_spawn_rejects_bad_cpu(self):
        eng = make_engine()
        with pytest.raises(Exception):
            eng.spawn(lambda t: iter(()), cpu=99)

    def test_non_generator_body_rejected(self):
        eng = make_engine()
        eng.spawn(lambda t: 42, cpu=0)
        with pytest.raises(TypeError):
            eng.run()

    def test_yielding_garbage_rejected(self):
        eng = make_engine()

        def body(task):
            yield "not a request"

        eng.spawn(body, cpu=0)
        with pytest.raises(Exception):
            eng.run()


class TestMemoryOps:
    def test_load_store_roundtrip(self):
        eng = make_engine()
        cell = eng.cell(7)
        seen = []

        def body(task):
            value = yield ops.Load(cell)
            seen.append(value)
            yield ops.Store(cell, 99)
            seen.append((yield ops.Load(cell)))

        eng.spawn(body, cpu=0)
        eng.run()
        assert seen == [7, 99]

    def test_cas_success_and_failure(self):
        eng = make_engine()
        cell = eng.cell(5)
        results = []

        def body(task):
            results.append((yield ops.CAS(cell, 5, 6)))
            results.append((yield ops.CAS(cell, 5, 7)))

        eng.spawn(body, cpu=0)
        eng.run()
        assert results == [(True, 5), (False, 6)]
        assert cell.peek() == 6

    def test_xchg_and_fetch_add(self):
        eng = make_engine()
        cell = eng.cell(10)
        results = []

        def body(task):
            results.append((yield ops.Xchg(cell, 20)))
            results.append((yield ops.FetchAdd(cell, 5)))

        eng.spawn(body, cpu=0)
        eng.run()
        assert results == [10, 20]
        assert cell.peek() == 25

    def test_concurrent_fetch_add_is_atomic(self):
        eng = make_engine()
        cell = eng.cell(0)

        def body(task):
            for _ in range(200):
                yield ops.FetchAdd(cell, 1)

        for cpu in range(8):
            eng.spawn(body, cpu=cpu)
        eng.run()
        assert cell.peek() == 1600


class TestWaitValue:
    def test_wait_already_satisfied(self):
        eng = make_engine()
        cell = eng.cell(1)

        def body(task):
            value = yield ops.WaitValue(cell, lambda v: v == 1)
            assert value == 1

        task = eng.spawn(body, cpu=0)
        eng.run()
        assert task.done

    def test_wait_wakes_on_store(self):
        eng = make_engine()
        cell = eng.cell(0)
        wake_time = []

        def waiter(task):
            yield ops.WaitValue(cell, lambda v: v == 3)
            wake_time.append(task.engine.now)

        def setter(task):
            yield ops.Delay(1000)
            yield ops.Store(cell, 2)  # does not satisfy
            yield ops.Delay(1000)
            yield ops.Store(cell, 3)

        eng.spawn(waiter, cpu=1)
        eng.spawn(setter, cpu=0)
        eng.run()
        assert wake_time and wake_time[0] > 2000

    def test_closer_spinner_wakes_first(self):
        """Cache locality: a same-socket spinner sees the write sooner."""
        eng = make_engine()
        cell = eng.cell(0)
        order = []

        def spinner(task):
            yield ops.WaitValue(cell, lambda v: v == 1)
            order.append(task.name)

        def setter(task):
            yield ops.Delay(100)
            yield ops.Store(cell, 1)

        eng.spawn(spinner, cpu=1, name="near")   # socket 0, same as setter
        eng.spawn(spinner, cpu=4, name="far")    # socket 1
        eng.spawn(setter, cpu=0, name="setter")
        eng.run()
        assert order[0] == "near"


class TestParkUnpark:
    def test_park_then_unpark(self):
        eng = make_engine()

        def sleeper(task):
            woken = yield ops.Park()
            task.stats["woken"] = woken

        def waker(task, target):
            yield ops.Delay(500)
            yield ops.Unpark(target)

        target = eng.spawn(sleeper, cpu=0)
        eng.spawn(lambda t: waker(t, target), cpu=1)
        eng.run()
        assert target.stats["woken"] is True
        # Wake-up latency must be charged.
        assert target.finish_time > 500

    def test_unpark_before_park_leaves_token(self):
        eng = make_engine()

        def sleeper(task):
            yield ops.Delay(1000)  # unpark arrives during this
            woken = yield ops.Park()
            task.stats["woken_at"] = task.engine.now
            assert woken

        def waker(task, target):
            yield ops.Unpark(target)

        target = eng.spawn(sleeper, cpu=0)
        eng.spawn(lambda t: waker(t, target), cpu=1)
        eng.run()
        # Token consumed without a real sleep: fast path, no wake latency.
        assert target.stats["woken_at"] < 1500


class TestScheduling:
    def test_oversubscribed_cpu_round_robins(self):
        """Three tasks share CPU 0 and the CPU turns over only when its
        occupant parks or finishes: each runs all its steps in one go,
        the queue's head takes over, and woken tasks rejoin in wake-up
        order."""
        eng = make_engine()
        steps = []

        def body(task):
            for round_ in range(2):
                if round_:
                    yield ops.Park()
                for _ in range(3):
                    yield ops.Delay(1_000)
                    steps.append(task.name)

        workers = [eng.spawn(body, cpu=0, name=f"t{index}") for index in range(3)]

        def waker(task):
            yield ops.Delay(20_000)  # every worker has parked by now
            for worker in workers:
                yield ops.Unpark(worker)

        eng.spawn(waker, cpu=1)
        eng.run()
        assert steps == [name for name in ("t0", "t1", "t2") * 2 for _ in range(3)]
        assert eng.stats.counter("sched.parks").value == 3
        assert all(worker.done for worker in workers)

    def test_park_releases_cpu_to_peer(self):
        eng = make_engine()
        order = []

        def sleeper(task):
            order.append("sleeper-start")
            yield ops.Park()

        def peer(task):
            yield ops.Delay(10)
            order.append("peer-ran")

        eng.spawn(sleeper, cpu=0, name="sleeper")
        eng.spawn(peer, cpu=0, name="peer")
        with pytest.raises(DeadlockError):
            eng.run()  # sleeper never woken: deadlock detected at drain
        assert "peer-ran" in order

    def test_priority_dispatch_order(self):
        eng = make_engine()
        order = []

        def blocker(task):
            yield ops.Delay(1_000)

        def lo(task):
            yield ops.Delay(1)
            order.append("lo")

        def hi(task):
            yield ops.Delay(1)
            order.append("hi")

        eng.spawn(blocker, cpu=0)
        eng.spawn(lo, cpu=0, priority=0, at=10)
        eng.spawn(hi, cpu=0, priority=5, at=20)
        eng.run()
        assert order == ["hi", "lo"]

    def test_freeze_cpu_stalls_progress(self):
        eng = make_engine()

        def body(task):
            yield ops.Delay(100)
            task.stats["mid"] = task.engine.now
            yield ops.Delay(100)

        task = eng.spawn(body, cpu=0)
        eng.call_at(50, lambda: eng.freeze_cpu(0, 10_000))
        eng.run()
        # The second half could only run after the thaw.
        assert task.finish_time >= 10_050

    def test_freeze_cpu_rejects_bad_cpu_and_negative_duration(self):
        eng = Engine(Topology(sockets=1, cores_per_socket=4))
        for cpu in (-1, 4):
            with pytest.raises(TopologyError):
                eng.freeze_cpu(cpu, 1_000)
        with pytest.raises(ValueError):
            eng.freeze_cpu(0, -500)
        assert [cpu.frozen_until for cpu in eng.cpus] == [0, 0, 0, 0]
        assert eng.stats.snapshot().get("sched.cpu_freezes", 0) == 0


class TestRunControl:
    def test_run_until_stops_midway(self):
        eng = make_engine()

        def forever(task):
            while True:
                yield ops.Delay(100)

        eng.spawn(forever, cpu=0)
        end = eng.run(until=10_000)
        assert end == 10_000

    def test_max_events_guard(self):
        eng = make_engine(max_events=100)

        def forever(task):
            while True:
                yield ops.Delay(1)

        eng.spawn(forever, cpu=0)
        with pytest.raises(SimLimitError):
            eng.run()

    def test_deadlock_report_names_tasks(self):
        eng = make_engine()

        def stuck(task):
            yield ops.Park()

        eng.spawn(stuck, cpu=0, name="stucky")
        with pytest.raises(DeadlockError) as err:
            eng.run()
        assert "stucky" in str(err.value)

    def test_finished_task_releases_its_generator(self):
        eng = make_engine()

        def body(task):
            yield ops.Delay(10)
            yield ops.Delay(10)

        task = eng.spawn(body, cpu=0)
        eng.run(until=15)
        gen = weakref.ref(task.gen)
        assert gen() is not None
        eng.run()
        assert task.done
        assert task.gen is None
        assert gen() is None

    def test_call_at_and_after(self):
        eng = make_engine()
        fired = []

        def body(task):
            yield ops.Delay(10_000)

        eng.spawn(body, cpu=0)
        eng.call_at(5_000, lambda: fired.append(eng.now))
        eng.call_after(7_000, lambda: fired.append(eng.now))
        eng.run()
        assert fired == [5_000, 7_000]

    def test_external_store_wakes_waiters(self):
        eng = make_engine()
        cell = eng.cell(0)

        def waiter(task):
            yield ops.WaitValue(cell, lambda v: v == 9)

        task = eng.spawn(waiter, cpu=0)
        eng.call_at(1_000, lambda: eng.external_store(cell, 9))
        eng.run()
        assert task.done


class TestEventOrder:
    """Task starts and other events run in exact (time, schedule) order,
    however the starts were spawned."""

    def test_spawns_and_callbacks_interleave_in_schedule_order(self):
        eng = make_engine()
        seen = []

        def body(task):
            seen.append((eng.now, task.name))
            yield ops.Delay(1)

        # Equal start times, then decreasing ones, with callbacks at the
        # same instants scheduled in between.
        plan = [
            (500, "spawn"), (500, "call"), (500, "spawn"), (300, "spawn"),
            (300, "call"), (700, "spawn"), (100, "spawn"), (700, "call"),
            (100, "call"), (300, "spawn"), (0, "call"), (700, "spawn"),
        ]
        spawned = 0
        for index, (at, kind) in enumerate(plan):
            name = f"{kind}{index}"
            if kind == "spawn":
                eng.spawn(body, cpu=spawned, name=name, at=at)
                spawned += 1
            else:
                eng.call_at(at, lambda name=name: seen.append((eng.now, name)))
        eng.run()
        order = sorted(range(len(plan)), key=lambda index: (plan[index][0], index))
        assert seen == [(plan[i][0], f"{plan[i][1]}{i}") for i in order]
        # One start and one Delay completion per task, one per callback.
        assert eng.events_processed == len(plan) + spawned

    @pytest.mark.parametrize("times", [(1_000, 2_000), (2_000, 1_000)])
    def test_run_until_stops_before_a_pending_arrival(self, times):
        eng = make_engine()
        started = []

        def body(task):
            started.append(eng.now)
            yield ops.Delay(10)

        for cpu, at in enumerate(times):
            eng.spawn(body, cpu=cpu, at=at)
        assert eng.run(until=1_500) == 1_500
        assert started == [1_000]
        assert eng.run(until=2_000) == 2_000
        assert started == [1_000, 2_000]
        eng.run()
        assert eng.now == 2_010
        assert eng.events_processed == 4


class TestDeterminism:
    def _trace(self, seed):
        eng = make_engine(seed=seed)
        cell = eng.cell(0)
        log = []

        def body(task):
            for _ in range(50):
                old = yield ops.FetchAdd(cell, 1)
                log.append((task.name, task.engine.now, old))
                yield ops.Delay(task.engine.rng.randint(1, 100))

        for cpu in range(6):
            eng.spawn(body, cpu=cpu, name=f"t{cpu}")
        eng.run()
        return log

    def test_same_seed_same_trace(self):
        assert self._trace(7) == self._trace(7)

    def test_different_seed_different_trace(self):
        assert self._trace(7) != self._trace(8)


class _RunToParkEngine(Engine):
    """An engine that checks, as it runs, the rule its scheduler rests
    on: a task keeps its CPU from the moment it is dispatched until it
    parks or finishes.  So every resume and every spinner recheck finds
    the task current on its CPU, and a CPU's resumes pass from one task
    to another only once the first has parked or finished."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked_resumes = 0
        self._last_resumed = {}

    def _resume(self, task, result):
        assert task.state is not TaskState.DONE, task
        cpu = self.cpus[task.cpu_id]
        if cpu.frozen_until <= self.now:
            assert cpu.current is task, (task, cpu)
            assert task.state is TaskState.RUNNING, task
            last = self._last_resumed.get(task.cpu_id, task)
            assert last is task or last.state in (TaskState.PARKED, TaskState.DONE), (
                last,
                task,
            )
            self._last_resumed[task.cpu_id] = task
            self.checked_resumes += 1
        super()._resume(task, result)

    def _waiter_recheck(self, waiter):
        task = waiter.task
        assert task.state is TaskState.SPINNING, task
        assert self.cpus[task.cpu_id].current is task, task
        assert task._spin_waiter[1] is waiter, task
        super()._waiter_recheck(waiter)


_CELLS = 3
_STEPS = st.one_of(
    st.tuples(st.just("delay"), st.integers(0, 3_000)),
    st.tuples(st.just("load"), st.integers(0, _CELLS - 1)),
    st.tuples(st.just("store"), st.integers(0, _CELLS - 1), st.integers(0, 3)),
    st.tuples(
        st.just("cas"), st.integers(0, _CELLS - 1), st.integers(0, 3), st.integers(0, 3)
    ),
    st.tuples(st.just("fetch_add"), st.integers(0, _CELLS - 1), st.integers(1, 2)),
    st.tuples(st.just("wait"), st.integers(0, _CELLS - 1), st.integers(0, 2)),
    st.tuples(st.just("park")),
    st.tuples(st.just("unpark"), st.integers(0, 5)),
)


@st.composite
def _oversubscribed_mixes(draw):
    """1–3 CPUs, more tasks than CPUs (each pinned, prioritised and
    started at random), scripts over a few shared cells, and up to two
    CPU freezes."""
    cpus = draw(st.integers(1, 3))
    tasks = [
        (
            draw(st.integers(0, cpus - 1)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2_000)),
            draw(st.lists(_STEPS, min_size=1, max_size=6)),
        )
        for _ in range(draw(st.integers(cpus + 1, cpus + 3)))
    ]
    freezes = draw(
        st.lists(
            st.tuples(
                st.integers(0, cpus - 1), st.integers(0, 10_000), st.integers(0, 3_000)
            ),
            max_size=2,
        )
    )
    return cpus, tasks, freezes


def _script(steps, cells, tasks):
    def body(task):
        for step in steps:
            kind = step[0]
            if kind == "delay":
                yield ops.Delay(step[1])
            elif kind == "load":
                yield ops.Load(cells[step[1]])
            elif kind == "store":
                yield ops.Store(cells[step[1]], step[2])
            elif kind == "cas":
                yield ops.CAS(cells[step[1]], step[2], step[3])
            elif kind == "fetch_add":
                yield ops.FetchAdd(cells[step[1]], step[2])
            elif kind == "wait":
                yield ops.WaitValue(cells[step[1]], lambda v, at_least=step[2]: v >= at_least)
            elif kind == "park":
                yield ops.Park()
            else:
                yield ops.Unpark(tasks[step[1] % len(tasks)])

    return body


class TestRunToPark:
    @settings(max_examples=60, deadline=None)
    @given(_oversubscribed_mixes())
    def test_a_task_keeps_its_cpu_until_it_parks_or_finishes(self, mix):
        cpus, specs, freezes = mix
        eng = _RunToParkEngine(Topology(sockets=1, cores_per_socket=cpus), seed=0)
        cells = [eng.cell(0, name=f"c{index}") for index in range(_CELLS)]
        tasks = []
        for cpu, priority, at, steps in specs:
            tasks.append(
                eng.spawn(_script(steps, cells, tasks), cpu, priority=priority, at=at)
            )
        for cpu, at, ns in freezes:
            eng.call_at(at, lambda cpu=cpu, ns=ns: eng.freeze_cpu(cpu, ns))
        try:
            eng.run()
        except DeadlockError as err:
            # Allowed: a park nobody unparks, a spinner whose value never
            # comes, or a task queued behind such a spinner, which only
            # preemption could run.
            stuck = {task.state for task in err.blocked_tasks}
            event(f"deadlock: {'spinner' if TaskState.SPINNING in stuck else 'parked only'}")
            assert stuck <= {TaskState.PARKED, TaskState.SPINNING, TaskState.READY}
        else:
            event("drained")
            assert all(task.done for task in tasks)
        assert eng.checked_resumes > 0
        # At the drain only a spinner can hold a CPU, and only a CPU held
        # by a spinner can leave tasks waiting in its queue.
        for cpu in eng.cpus:
            assert cpu.current is None or cpu.current.state is TaskState.SPINNING
            assert not cpu.runqueue or cpu.current is not None
            assert all(task.state is TaskState.READY for task in cpu.runqueue)
