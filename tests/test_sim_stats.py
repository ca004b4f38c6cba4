"""Statistics primitives."""

from repro.sim.stats import Counter, StatsRegistry


class TestCounter:
    def test_inc_and_reset(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        counter.reset()
        assert int(counter) == 0


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = StatsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_snapshot_flat_keys(self):
        registry = StatsRegistry()
        registry.counter("cache.hits").inc(3)
        registry.counter("sched.parks")
        assert registry.snapshot() == {"cache.hits": 3, "sched.parks": 0}

    def test_reset(self):
        registry = StatsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.counter("x").value == 0
