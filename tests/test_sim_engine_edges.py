"""Remaining engine edges: external stores, unparks of finished tasks,
error propagation, run-loop bookkeeping."""

import pytest

from repro.sim import Engine, Topology, TopologyError, ops


def make_engine(**kw):
    return Engine(Topology(sockets=1, cores_per_socket=4), **kw)


class TestExternalControls:
    def test_external_store_checks_its_cpu(self):
        eng = make_engine()
        with pytest.raises(TopologyError):
            eng.external_store(eng.cell(0), 1, cpu=4)

    def test_unpark_done_task_is_noop(self):
        eng = make_engine()

        def quick(task):
            yield ops.Delay(10)

        def waker(task):
            yield ops.Delay(1_000)
            yield ops.Unpark(target)

        target = eng.spawn(quick, cpu=0)
        eng.spawn(waker, cpu=1)
        eng.run()  # must not blow up
        assert target.done
        assert not target.park_token


class TestErrorPropagation:
    def test_task_exception_surfaces_and_is_recorded(self):
        eng = make_engine()

        def exploder(task):
            yield ops.Delay(10)
            raise ValueError("boom")

        task = eng.spawn(exploder, cpu=0)
        with pytest.raises(ValueError, match="boom"):
            eng.run()
        assert isinstance(task.error, ValueError)
        assert task.done

    def test_cpu_released_after_task_error(self):
        eng = make_engine()

        def exploder(task):
            yield ops.Delay(10)
            raise RuntimeError("x")

        def survivor(task):
            yield ops.Delay(100)
            task.stats["done"] = True

        eng.spawn(exploder, cpu=0)
        other = eng.spawn(survivor, cpu=0, at=5)
        with pytest.raises(RuntimeError):
            eng.run()
        eng.run()  # remaining events proceed: the CPU was released
        assert other.stats.get("done") is True


class TestBookkeeping:
    def test_events_processed_counts(self):
        eng = make_engine()

        def body(task):
            for _ in range(10):
                yield ops.Delay(10)

        eng.spawn(body, cpu=0)
        eng.run()
        assert eng.events_processed >= 10

    def test_run_until_is_idempotent_at_idle(self):
        eng = make_engine()

        def body(task):
            yield ops.Delay(50)

        eng.spawn(body, cpu=0)
        eng.run(until=1_000)
        assert eng.now == 1_000
        eng.run(until=2_000)
        assert eng.now == 2_000

    def test_cell_names_flow_to_repr(self):
        eng = make_engine()
        cell = eng.cell(5, name="glock")
        assert "glock" in repr(cell)
        assert cell.peek() == 5
