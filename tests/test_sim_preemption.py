"""Preemption is the hypervisor's alone: a frozen CPU stalls everything
on it (the vCPU use case), while a task is never taken off its CPU by
another task, whatever its priority — it keeps the CPU until it parks
or finishes."""

from repro.sim import Engine, Topology, ops


def make_engine():
    return Engine(Topology(sockets=1, cores_per_socket=4))


class TestPreemptivePriorities:
    def test_no_preemption_without_flag(self):
        """Priority orders the run queue and never preempts: a
        higher-priority task queued behind a running one, and unparked
        while it waits, runs only once the occupant finishes."""
        eng = make_engine()
        order = []

        def low(task):
            for _ in range(10):
                yield ops.Delay(1_000)
            order.append("low-done")

        def high(task):
            woken = yield ops.Park()
            order.append("high-ran")

        eng.spawn(low, cpu=0, priority=0)
        high_task = eng.spawn(high, cpu=0, priority=5)

        def waker(task):
            yield ops.Delay(2_000)
            yield ops.Unpark(high_task)

        eng.spawn(waker, cpu=1)
        eng.run()
        assert order == ["low-done", "high-ran"]


class TestFreezeInteractions:
    def test_freeze_defers_wakeup(self):
        eng = make_engine()

        def sleeper(task):
            woken = yield ops.Park()
            task.stats["woke_at"] = task.engine.now

        target = eng.spawn(sleeper, cpu=0)

        def waker(task):
            yield ops.Delay(1_000)
            yield ops.Unpark(target)

        eng.spawn(waker, cpu=1)
        eng.call_at(500, lambda: eng.freeze_cpu(0, 50_000))
        eng.run()
        assert target.stats["woke_at"] >= 50_000

    def test_freeze_stacks_to_longest(self):
        eng = make_engine()

        def body(task):
            yield ops.Delay(100)
            task.stats["end"] = task.engine.now

        task = eng.spawn(body, cpu=0)
        eng.call_at(10, lambda: eng.freeze_cpu(0, 1_000))
        eng.call_at(20, lambda: eng.freeze_cpu(0, 100_000))
        eng.run()
        assert task.stats["end"] >= 100_000

    def test_other_cpus_unaffected(self):
        eng = make_engine()

        def body(task):
            yield ops.Delay(1_000)
            task.stats["end"] = task.engine.now

        frozen = eng.spawn(body, cpu=0)
        free = eng.spawn(body, cpu=1)
        eng.call_at(10, lambda: eng.freeze_cpu(0, 30_000))
        eng.run()
        assert free.stats["end"] == 1_000
        assert frozen.stats["end"] >= 30_000
