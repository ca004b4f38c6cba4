"""Workload harness and benchmark workloads (fast, reduced-size runs)."""

import pytest

from repro.sim import Topology
from repro.workloads import (
    HashTableBench,
    Lock2,
    MalthusianBench,
    MixedCSBench,
    PageFault2,
    RenameBench,
    SimHashTable,
    knee_threads,
    ascii_chart,
    format_normalized,
    format_sweep_table,
    normalized_series,
    run_throughput,
    sweep,
)

TOPO = Topology(sockets=2, cores_per_socket=4)
FAST = dict(duration_ns=400_000, warmup_ns=100_000)


class TestRunner:
    def test_run_produces_positive_throughput(self):
        result = run_throughput(Lock2("stock"), TOPO, threads=4, **FAST)
        assert result.ops > 0
        assert result.ops_per_msec > 0
        assert result.threads == 4

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            run_throughput(Lock2("stock"), TOPO, threads=100, **FAST)

    def test_sweep_collects_points(self):
        result = sweep(lambda: Lock2("stock"), TOPO, [1, 2, 4], **FAST)
        assert [p.threads for p in result.points] == [1, 2, 4]
        assert result.at(2) is not None
        assert result.at(99) is None
        assert len(result.series()) == 3

    def test_same_seed_reproducible(self):
        a = run_throughput(Lock2("stock"), TOPO, threads=4, seed=9, **FAST)
        b = run_throughput(Lock2("stock"), TOPO, threads=4, seed=9, **FAST)
        assert a.ops == b.ops

    def test_warmup_excluded_from_count(self):
        short = run_throughput(Lock2("stock"), TOPO, threads=2, duration_ns=200_000, warmup_ns=50_000)
        lng = run_throughput(Lock2("stock"), TOPO, threads=2, duration_ns=400_000, warmup_ns=50_000)
        assert lng.ops > short.ops
        # ...but rates should be comparable.
        assert lng.ops_per_msec == pytest.approx(short.ops_per_msec, rel=0.25)


class TestLock2:
    def test_all_modes_run(self):
        for mode in ("stock", "shfllock", "concord-shfllock"):
            result = run_throughput(Lock2(mode), TOPO, threads=4, **FAST)
            assert result.ops > 0, mode

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Lock2("nope")

    def test_concord_mode_attaches_policy(self):
        workload = Lock2("concord-shfllock")
        run_throughput(workload, TOPO, threads=4, **FAST)
        assert workload.concord is not None
        assert "lock2-numa" in workload.concord.policies

    def test_extras_report_shuffling(self):
        result = run_throughput(Lock2("shfllock"), TOPO, threads=6, **FAST)
        assert "shuffle_passes" in result.extras


class TestPageFault2:
    def test_modes_and_counters(self):
        for mode in ("stock", "bravo", "concord-bravo"):
            workload = PageFault2(mode, pages=32)
            result = run_throughput(workload, TOPO, threads=4, **FAST)
            assert result.ops > 0, mode
            assert workload.mm.faults > 0

    def test_bravo_uses_fastpath(self):
        workload = PageFault2("bravo", pages=32)
        result = run_throughput(workload, TOPO, threads=4, **FAST)
        assert result.extras["bravo_fastpath"] > 0

    def test_concord_bravo_switched_at_runtime(self):
        workload = PageFault2("concord-bravo", pages=32)
        run_throughput(workload, TOPO, threads=2, **FAST)
        from repro.locks import BravoLock

        assert isinstance(workload.mm.mmap_lock.core.impl, BravoLock)


class TestHashTable:
    def test_sim_hashtable_semantics(self):
        table = SimHashTable(buckets=8)
        table.insert(5)
        assert table.contains(5)
        assert table.size == 1
        table.insert(5)
        assert table.size == 1  # idempotent
        assert table.delete(5)
        assert not table.delete(5)
        assert table.lookup_cost(5) > 0

    def test_modes_run(self):
        for mode in ("shfllock", "concord-shfllock", "concord-nopolicy"):
            result = run_throughput(HashTableBench(mode), TOPO, threads=4, **FAST)
            assert result.ops > 0, mode

    def test_concord_overhead_visible(self):
        base = run_throughput(HashTableBench("shfllock"), TOPO, threads=4, seed=5, **FAST)
        patched = run_throughput(
            HashTableBench("concord-nopolicy"), TOPO, threads=4, seed=5, **FAST
        )
        ratio = patched.ops_per_msec / base.ops_per_msec
        assert ratio < 1.0  # patching costs something
        assert ratio > 0.6  # ...but not absurdly much


class TestRenameBench:
    def test_modes_run(self):
        for mode in ("fifo", "inheritance"):
            workload = RenameBench(mode, files=16)
            result = run_throughput(workload, TOPO, threads=4, **FAST)
            assert result.ops > 0, mode
            assert workload.vfs.renames > 0

    def test_latency_percentiles_reported(self):
        workload = RenameBench("fifo", files=16)
        result = run_throughput(workload, TOPO, threads=4, **FAST)
        assert "rename_p50_ns" in result.extras


class TestMixedCS:
    def test_hold_shares_sum_to_one(self):
        workload = MixedCSBench("fifo")
        result = run_throughput(workload, TOPO, threads=8, **FAST)
        shares = result.extras
        assert shares["hog_hold_share"] + shares["mouse_hold_share"] == pytest.approx(1.0)
        # Hogs hold the lock most of the time: the subversion premise.
        assert shares["hog_hold_share"] > 0.5

    def test_scl_mode_runs(self):
        result = run_throughput(MixedCSBench("scl"), TOPO, threads=8, **FAST)
        assert result.ops > 0


class TestRangeLockSemantics:
    """Direct interval-conflict correctness on a bare RangeLock."""

    def _kernel(self):
        from repro.kernel.core import Kernel

        return Kernel(TOPO, seed=1)

    def test_overlapping_writer_excludes_reader(self):
        from repro.locks import RangeLock

        kernel = self._kernel()
        rlock = RangeLock(kernel.engine, name="t")
        log = []

        def writer(task):
            yield from rlock.write_acquire(task, 10, 20)
            log.append(("w-in", kernel.now))
            from repro.sim.ops import Delay

            yield Delay(5_000)
            log.append(("w-out", kernel.now))
            yield from rlock.write_release(task, 10, 20)

        def reader(task):
            yield from rlock.read_acquire(task, 15, 16)  # overlaps the writer
            log.append(("r-in", kernel.now))
            yield from rlock.read_release(task, 15, 16)

        kernel.spawn(writer, cpu=0, name="w")
        kernel.spawn(reader, cpu=1, name="r", at=500)
        kernel.run()
        times = dict(log)
        assert times["r-in"] >= times["w-out"]

    def test_disjoint_writers_overlap_in_time(self):
        from repro.locks import RangeLock
        from repro.sim.ops import Delay

        kernel = self._kernel()
        rlock = RangeLock(kernel.engine, name="t")
        spans = {}

        def writer(task, lo, hi, tag):
            yield from rlock.write_acquire(task, lo, hi)
            start = kernel.now
            yield Delay(5_000)
            spans[tag] = (start, kernel.now)
            yield from rlock.write_release(task, lo, hi)

        kernel.spawn(lambda t: writer(t, 0, 10, "a"), cpu=0, name="a")
        kernel.spawn(lambda t: writer(t, 100, 110, "b"), cpu=1, name="b")
        kernel.run()
        (a0, a1), (b0, b1) = spans["a"], spans["b"]
        assert a0 < b1 and b0 < a1  # critical sections overlapped
        assert rlock.conflicts == 0

    def test_overlap_fifo_blocks_reader_behind_queued_writer(self):
        # reader A holds [0,10); writer W queues on [0,10); reader B
        # arriving later must queue behind W (no reader barging), so
        # B enters only after W finishes.
        from repro.locks import RangeLock
        from repro.sim.ops import Delay

        kernel = self._kernel()
        rlock = RangeLock(kernel.engine, name="t")
        order = []

        def reader_a(task):
            yield from rlock.read_acquire(task, 0, 10)
            yield Delay(5_000)
            order.append("a-out")
            yield from rlock.read_release(task, 0, 10)

        def writer(task):
            yield from rlock.write_acquire(task, 0, 10)
            order.append("w-in")
            yield Delay(1_000)
            yield from rlock.write_release(task, 0, 10)

        def reader_b(task):
            yield from rlock.read_acquire(task, 0, 10)
            order.append("b-in")
            yield from rlock.read_release(task, 0, 10)

        kernel.spawn(reader_a, cpu=0, name="ra")
        kernel.spawn(writer, cpu=1, name="w", at=1_000)
        kernel.spawn(reader_b, cpu=2, name="rb", at=2_000)
        kernel.run()
        assert order == ["a-out", "w-in", "b-in"]

    def test_bad_release_raises(self):
        from repro.locks import LockError, RangeLock
        from repro.sim.errors import SimError

        kernel = self._kernel()
        rlock = RangeLock(kernel.engine, name="t")

        def body(task):
            yield from rlock.write_release(task, 0, 10)

        kernel.spawn(body, cpu=0, name="bad")
        with pytest.raises((LockError, SimError)):
            kernel.run()

    def test_empty_range_rejected(self):
        from repro.locks import LockError, RangeLock

        kernel = self._kernel()
        rlock = RangeLock(kernel.engine, name="t")

        def body(task):
            yield from rlock.read_acquire(task, 10, 10)

        kernel.spawn(body, cpu=0, name="bad")
        with pytest.raises(LockError):
            kernel.run()


class TestMalthusianBench:
    def test_knee_matches_prediction(self):
        workload = MalthusianBench()
        result = sweep(lambda: MalthusianBench(), TOPO, [1, 2, 3, 4, 5, 6, 8], **FAST)
        knee = knee_threads(result)
        assert abs(knee - workload.expected_knee()) <= 1

    def test_throughput_collapses_past_knee(self):
        result = sweep(lambda: MalthusianBench(), TOPO, [1, 2, 3, 4, 5, 6, 8], **FAST)
        peak = max(p.ops_per_msec for p in result.points)
        assert result.at(8).ops_per_msec < 0.6 * peak
        # ...while below the knee throughput still climbs.
        assert result.at(2).ops_per_msec > 1.5 * result.at(1).ops_per_msec

    def test_tail_wait_blows_up_past_knee(self):
        low = run_throughput(MalthusianBench(), TOPO, threads=2, **FAST)
        high = run_throughput(MalthusianBench(), TOPO, threads=8, **FAST)
        assert high.extras["wait_p99_ns"] > 5 * low.extras["wait_p99_ns"]

    def test_extras_report_crowd(self):
        result = run_throughput(MalthusianBench(), TOPO, threads=8, **FAST)
        assert result.extras["peak_inflight"] >= 6
        assert result.extras["expected_knee"] == MalthusianBench().expected_knee()


class TestKneeThreads:
    @staticmethod
    def _sweep(rates):
        from repro.workloads.runner import RunResult, SweepResult

        points = [
            RunResult(
                workload="synthetic",
                threads=threads,
                duration_ns=1_000_000,
                ops=int(rate * 1_000),
            )
            for threads, rate in rates
        ]
        return SweepResult(workload="synthetic", points=points)

    def test_monotone_sweep_has_no_knee(self):
        # Throughput still climbing at the last point: the sweep ended
        # before any collapse, so there is no knee to report.  (The old
        # behaviour returned the sweep boundary, which made a perfectly
        # scalable lock look collapsed at max threads.)
        result = self._sweep([(1, 100.0), (2, 180.0), (4, 320.0), (8, 500.0)])
        assert knee_threads(result) is None

    def test_collapsing_sweep_reports_interior_peak(self):
        result = self._sweep([(1, 100.0), (2, 180.0), (4, 320.0), (8, 90.0)])
        assert knee_threads(result) == 4

    def test_unsorted_points_are_sorted_before_judging(self):
        # The peak sits on the highest thread count even when the
        # caller's point order buries it mid-list: still no knee.
        result = self._sweep([(8, 500.0), (1, 100.0), (4, 320.0), (2, 180.0)])
        assert knee_threads(result) is None

    def test_empty_sweep_has_no_knee(self):
        result = self._sweep([])
        assert knee_threads(result) is None


class TestReporting:
    def _two_sweeps(self):
        a = sweep(lambda: Lock2("stock"), TOPO, [1, 2], **FAST)
        b = sweep(lambda: Lock2("shfllock"), TOPO, [1, 2], **FAST)
        return a, b

    def test_sweep_table_format(self):
        a, b = self._two_sweeps()
        text = format_sweep_table([a, b], title="demo")
        assert "demo" in text and "#thread" in text
        assert "lock2[stock]" in text

    def test_normalized_format_and_series(self):
        a, b = self._two_sweeps()
        text = format_normalized(a, b)
        assert "normalized" in text
        series = normalized_series(a, b)
        assert len(series) == 2 and all(r > 0 for _n, r in series)

    def test_ascii_chart(self):
        a, b = self._two_sweeps()
        text = ascii_chart({"stock": a.series(), "shfl": b.series()}, title="t")
        assert "threads" in text and "o = " in text

    def test_empty_inputs(self):
        assert "(no data)" in format_sweep_table([])
        assert "(no data)" in ascii_chart({})
