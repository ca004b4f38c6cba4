"""Cache-coherence cost model: latency structure and serialization."""

from repro.sim import Engine, Topology, ops
from repro.sim.cache import CacheModel, Cell, CellWaiter
from repro.sim.stats import StatsRegistry
from repro.sim.topology import LatencyModel


def make_model(sockets=2, cores=4, **lat):
    topo = Topology(sockets=sockets, cores_per_socket=cores, latency=LatencyModel(**lat))
    return topo, CacheModel(topo, StatsRegistry())


class TestAccessCosts:
    def test_first_touch_is_cheap(self):
        topo, model = make_model()
        cell = Cell(0)
        finish, value = model.load(0, cpu=0, cell=cell)
        assert finish == topo.latency.l1_hit
        assert value == 0

    def test_repeat_load_stays_cheap(self):
        topo, model = make_model()
        cell = Cell(0)
        model.load(0, cpu=3, cell=cell)
        finish, _ = model.load(100, cpu=3, cell=cell)
        assert finish == 100 + topo.latency.l1_hit

    def test_cross_socket_load_pays_transfer(self):
        topo, model = make_model()
        cell = Cell(0)
        model.store(0, cpu=0, cell=cell, value=1)  # owner: cpu 0 (socket 0)
        finish, _ = model.load(1000, cpu=4, cell=cell)  # socket 1
        assert finish == 1000 + topo.latency.remote_transfer

    def test_same_socket_load_pays_local_transfer(self):
        topo, model = make_model()
        cell = Cell(0)
        model.store(0, cpu=0, cell=cell, value=1)
        finish, _ = model.load(1000, cpu=1, cell=cell)
        assert finish == 1000 + topo.latency.local_transfer

    def test_owner_rewrite_is_cheap(self):
        topo, model = make_model()
        cell = Cell(0)
        model.store(0, cpu=2, cell=cell, value=1)
        finish, _none, _ = model.store(1000, cpu=2, cell=cell, value=2)
        assert finish == 1000 + topo.latency.l1_hit

    def test_store_invalidates_remote_sharer(self):
        """Writing a line shared remotely pays the invalidation round-trip."""
        topo, model = make_model()
        cell = Cell(0)
        model.store(0, cpu=0, cell=cell, value=1)
        model.load(100, cpu=4, cell=cell)  # remote shared copy
        finish, _none, _ = model.store(1000, cpu=0, cell=cell, value=2)
        assert finish == 1000 + topo.latency.remote_transfer
        assert not cell.sharers  # sharers invalidated

    def test_atomic_extra_cost(self):
        topo, model = make_model()
        cell = Cell(0)
        model.store(0, cpu=4, cell=cell, value=0)
        finish, result, _ = model.cas(1000, cpu=0, cell=cell, expected=0, new=1)
        assert result == (True, 0)
        assert finish == 1000 + topo.latency.remote_transfer + topo.latency.atomic_extra

    def test_failed_cas_still_pays(self):
        topo, model = make_model()
        cell = Cell(5)
        model.store(0, cpu=4, cell=cell, value=5)
        finish, result, _ = model.cas(1000, cpu=0, cell=cell, expected=0, new=1)
        assert result == (False, 5)
        assert finish > 1000 + topo.latency.l1_hit


class TestSerialization:
    def test_contended_atomics_serialize(self):
        """N same-time CASes on one line finish one after another."""
        topo, model = make_model()
        cell = Cell(0)
        finishes = []
        for cpu in range(4):
            finish, _res, _ = model.cas(0, cpu=cpu, cell=cell, expected=cpu, new=cpu + 1)
            finishes.append(finish)
        assert finishes == sorted(finishes)
        assert len(set(finishes)) == 4  # strictly increasing

    def test_loads_do_not_extend_busy(self):
        topo, model = make_model()
        cell = Cell(0)
        model.cas(0, cpu=0, cell=cell, expected=0, new=1)
        busy = cell.busy_until
        model.load(0, cpu=1, cell=cell)
        model.load(0, cpu=2, cell=cell)
        assert cell.busy_until == busy


class TestWaiters:
    def test_recheck_stagger_orders_waiters(self):
        """k-th spinner on a line is rechecked later (serialized refills)."""
        topo, model = make_model()
        cell = Cell(0)

        class _FakeTask:
            def __init__(self, cpu):
                self.cpu_id = cpu

        waiters = [CellWaiter(_FakeTask(cpu), lambda v: True) for cpu in (1, 2, 3)]
        for waiter in waiters:
            model.add_waiter(cell, waiter)
        _finish, _none, rechecks = model.store(0, cpu=0, cell=cell, value=1)
        times = [at for _w, at in rechecks]
        assert times == sorted(times)
        assert times[1] > times[0] and times[2] > times[1]

    def test_recheck_from_the_waiters_own_cpu_pays_l1(self):
        """A writer on the spinner's own CPU (spinner descheduled, or an
        external store attributed to it) refills the line at l1 cost."""
        topo, model = make_model()
        cell = Cell(0)

        class _FakeTask:
            cpu_id = 0

        waiter = CellWaiter(_FakeTask(), lambda v: True)
        model.add_waiter(cell, waiter)
        _finish, _none, rechecks = model.store(0, cpu=0, cell=cell, value=1)
        assert rechecks == [(waiter, topo.latency.l1_hit * 2)]

    def test_asymmetric_distances_are_priced_from_source_to_requester(self):
        """Reads pay owner->reader, invalidations sharer->writer, rechecks
        writer->spinner."""
        topo = Topology(sockets=2, cores_per_socket=1, numa_distance=[[0, 1], [3, 0]])
        lat = topo.latency
        model = CacheModel(topo, StatsRegistry())
        cell = Cell(0)
        model.store(0, cpu=1, cell=cell, value=1)
        finish, _ = model.load(1_000, cpu=0, cell=cell)
        assert finish == 1_000 + lat.transfer(3)
        line = Cell(0)
        model.load(0, cpu=1, cell=line)
        finish, _none, _ = model.store(1_000, cpu=0, cell=line, value=1)
        assert finish == 1_000 + lat.transfer(3)

        class _FakeTask:
            cpu_id = 1

        waiter = CellWaiter(_FakeTask(), lambda v: True)
        model.add_waiter(line, waiter)
        finish, _none, rechecks = model.store(2_000, cpu=0, cell=line, value=2)
        assert rechecks == [(waiter, finish + lat.transfer(1))]

    def test_zero_hop_sockets_are_not_remote(self):
        """Remote means more than 0 hops, not a different socket."""
        topo = Topology(sockets=2, cores_per_socket=1, numa_distance=[[0, 0], [0, 0]])
        stats = StatsRegistry()
        model = CacheModel(topo, stats)
        cell = Cell(0)
        model.store(0, cpu=0, cell=cell, value=1)
        finish, _ = model.load(100, cpu=1, cell=cell)
        assert finish == 100 + topo.latency.local_transfer
        model.load(200, cpu=0, cell=cell)
        model.store(300, cpu=1, cell=cell, value=2)
        snap = stats.snapshot()
        assert snap["cache.transfers"] == 2
        assert snap["cache.remote_transfers"] == 0

    def test_cancelled_waiter_not_rechecked(self):
        topo, model = make_model()
        cell = Cell(0)

        class _FakeTask:
            cpu_id = 1

        waiter = CellWaiter(_FakeTask(), lambda v: True)
        model.add_waiter(cell, waiter)
        model.remove_waiter(cell, waiter)
        _f, _n, rechecks = model.store(0, cpu=0, cell=cell, value=1)
        assert rechecks == ()


class TestEndToEndCosts:
    def test_remote_ping_pong_slower_than_local(self):
        def run(cpu_a, cpu_b):
            eng = Engine(Topology(sockets=2, cores_per_socket=4))
            cell = eng.cell(0)

            def bouncer(task, expect):
                for _ in range(100):
                    yield ops.WaitValue(cell, lambda v, e=expect: v % 2 == e)
                    yield ops.FetchAdd(cell, 1)

            eng.spawn(lambda t: bouncer(t, 0), cpu=cpu_a)
            eng.spawn(lambda t: bouncer(t, 1), cpu=cpu_b)
            eng.run()
            return eng.now

        local = run(0, 1)
        remote = run(0, 4)
        assert remote > local * 1.5
