"""Topology: socket mapping, latencies, AMP, enumeration orders."""

import pytest

from repro.sim import LatencyModel, Topology, TopologyError, amp_machine, paper_machine


class TestLayout:
    def test_socket_mapping_is_dense_socket_major(self):
        topo = Topology(sockets=3, cores_per_socket=4)
        assert [topo.socket_of(c) for c in range(12)] == [0] * 4 + [1] * 4 + [2] * 4

    def test_cpus_of_socket(self):
        topo = Topology(sockets=2, cores_per_socket=3)
        assert list(topo.cpus_of_socket(1)) == [3, 4, 5]

    def test_bad_args_rejected(self):
        with pytest.raises(TopologyError):
            Topology(sockets=0, cores_per_socket=4)
        with pytest.raises(TopologyError):
            Topology(sockets=2, cores_per_socket=2, speed=[1.0])
        with pytest.raises(TopologyError):
            Topology(sockets=2, cores_per_socket=2, speed=[1.0, 1.0, 0.0, 1.0])

    def test_out_of_range_cpu(self):
        topo = Topology(sockets=1, cores_per_socket=2)
        with pytest.raises(TopologyError):
            topo.socket_of(5)
        paper = paper_machine()
        for lookup in (
            lambda: paper.socket_of(-1),
            lambda: paper.hops(-1, 0),
            lambda: paper.transfer_ns(0, -80),
            lambda: paper.transfer_ns(-1, -1),
            lambda: paper.speed_of(80),
            lambda: paper.speed_of(-1),
        ):
            with pytest.raises(TopologyError):
                lookup()

    def test_socket_tables_are_indexed_from_then_to(self):
        topo = Topology(
            sockets=3,
            cores_per_socket=2,
            numa_distance=[[5, 1, 2], [3, 0, 0], [2, 0, 7]],
        )
        lat = topo.latency
        assert topo.cpu_socket == (0, 0, 1, 1, 2, 2)
        assert topo.socket_hops == ((0, 1, 2), (3, 0, 0), (2, 0, 0))
        assert topo.socket_transfer_ns[1] == (lat.transfer(3), lat.local_transfer, lat.local_transfer)
        assert (topo.hops(0, 2), topo.hops(2, 0), topo.hops(4, 5)) == (1, 3, 0)
        assert topo.transfer_ns(2, 0) == lat.transfer(3)
        assert topo.transfer_ns(4, 4) == lat.l1_hit

    def test_custom_distance_matrix(self):
        topo = Topology(
            sockets=3,
            cores_per_socket=1,
            numa_distance=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        )
        assert topo.hops(0, 2) == 2
        assert topo.transfer_ns(0, 2) > topo.transfer_ns(0, 1)

    def test_distance_matrix_shape_checked(self):
        with pytest.raises(TopologyError):
            Topology(sockets=2, cores_per_socket=1, numa_distance=[[0]])


class TestLatency:
    def test_same_cpu_is_l1(self):
        topo = Topology(sockets=2, cores_per_socket=2)
        assert topo.transfer_ns(1, 1) == topo.latency.l1_hit

    def test_local_vs_remote(self):
        topo = Topology(sockets=2, cores_per_socket=2)
        assert topo.transfer_ns(0, 1) == topo.latency.local_transfer
        assert topo.transfer_ns(0, 2) == topo.latency.remote_transfer

    def test_latency_model_hops(self):
        lat = LatencyModel(remote_transfer=100, remote_hop_extra=30)
        assert lat.transfer(0) == lat.local_transfer
        assert lat.transfer(1) == 100
        assert lat.transfer(3) == 160


class TestOrders:
    def test_fill_order_stays_on_socket_first(self):
        topo = Topology(sockets=2, cores_per_socket=4)
        order = topo.fill_order()
        assert all(topo.socket_of(c) == 0 for c in order[:4])

    def test_spread_order_alternates_sockets(self):
        topo = Topology(sockets=2, cores_per_socket=4)
        order = topo.spread_order()
        assert topo.socket_of(order[0]) != topo.socket_of(order[1])
        assert sorted(order) == list(range(8))


class TestFactories:
    def test_paper_machine_shape(self):
        topo = paper_machine()
        assert topo.sockets == 8
        assert topo.nr_cpus == 80

    def test_amp_machine_speeds(self):
        topo = amp_machine(big_cores=2, little_cores=2, little_slowdown=3.0)
        assert topo.speed_of(0) == 1.0
        assert topo.speed_of(3) == 3.0
        assert topo.describe()["asymmetric"] is True

    def test_amp_delay_scaling(self):
        from repro.sim import Engine, ops

        topo = amp_machine(big_cores=1, little_cores=1, little_slowdown=2.0)
        eng = Engine(topo)

        def body(task):
            yield ops.Delay(1000)

        big = eng.spawn(body, cpu=0)
        little = eng.spawn(body, cpu=1)
        eng.run()
        assert big.finish_time == 1000
        assert little.finish_time == 2000
