"""Tests for repro.memsys.cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.memsys import CacheConfig, SetAssociativeCache
from tests.hypothesis_profiles import scaled


def small_cache(sets=2, ways=2):
    return SetAssociativeCache(CacheConfig(
        "test", size_bytes=sets * ways * 64, associativity=ways,
        hit_latency_cycles=4))


class TestConfig:
    def test_num_sets(self):
        config = CacheConfig("L1", size_bytes=32 * 1024, associativity=8,
                             hit_latency_cycles=4)
        assert config.num_sets == 64

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", size_bytes=1000, associativity=3,
                        hit_latency_cycles=1)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", size_bytes=1024, associativity=2,
                        hit_latency_cycles=1, line_bytes=96)


class TestHitMiss:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x1000)
        cache.install(0x1000)
        assert cache.lookup(0x1000)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_distinct_sets(self):
        cache = small_cache(sets=2, ways=1)
        cache.install(0x0)    # set 0
        cache.install(0x40)   # set 1
        assert cache.lookup(0x0)
        assert cache.lookup(0x40)

    def test_contains_does_not_count(self):
        cache = small_cache()
        cache.install(0x0)
        assert cache.contains(0x0)
        assert not cache.contains(0x40)
        assert cache.hits == 0
        assert cache.misses == 0


class TestLRU:
    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2)
        cache.install(0x0)
        cache.install(0x40)
        cache.lookup(0x0)          # make 0x0 MRU
        victim = cache.install(0x80)
        assert victim == 0x40

    def test_install_refreshes_lru(self):
        cache = small_cache(sets=1, ways=2)
        cache.install(0x0)
        cache.install(0x40)
        cache.install(0x0)         # refresh
        victim = cache.install(0x80)
        assert victim == 0x40

    def test_no_eviction_when_room(self):
        cache = small_cache(sets=1, ways=2)
        assert cache.install(0x0) is None
        assert cache.install(0x40) is None


class TestPrefetchAccounting:
    def test_wasted_prefetch_counted_on_eviction(self):
        cache = small_cache(sets=1, ways=1)
        cache.install(0x0, prefetched=True)
        cache.install(0x40)
        assert cache.wasted_prefetches == 1

    def test_used_prefetch_not_wasted(self):
        cache = small_cache(sets=1, ways=1)
        cache.install(0x0, prefetched=True)
        cache.lookup(0x0)
        cache.install(0x40)
        assert cache.wasted_prefetches == 0
        assert cache.prefetch_hits == 1

    def test_prefetch_hit_counted_once(self):
        cache = small_cache()
        cache.install(0x0, prefetched=True)
        cache.lookup(0x0)
        cache.lookup(0x0)
        assert cache.prefetch_hits == 1

    def test_demand_eviction_not_wasted(self):
        cache = small_cache(sets=1, ways=1)
        cache.install(0x0)
        cache.install(0x40)
        assert cache.wasted_prefetches == 0


class TestMaintenance:
    def test_invalidate(self):
        cache = small_cache()
        cache.install(0x0)
        assert cache.invalidate(0x0)
        assert not cache.contains(0x0)
        assert not cache.invalidate(0x0)

    def test_flush_preserves_counters(self):
        cache = small_cache()
        cache.lookup(0x0)
        cache.install(0x0)
        cache.flush()
        assert cache.occupancy == 0
        assert cache.misses == 1

    def test_occupancy(self):
        cache = small_cache(sets=2, ways=2)
        cache.install(0x0)
        cache.install(0x40)
        assert cache.occupancy == 2

    def test_miss_rate(self):
        cache = small_cache()
        cache.lookup(0x0)
        cache.install(0x0)
        cache.lookup(0x0)
        assert cache.miss_rate == pytest.approx(0.5)

    def test_miss_rate_no_accesses(self):
        assert small_cache().miss_rate == 0.0


class TestOccupancyCounter:
    """occupancy is maintained incrementally; it must always equal the
    brute-force sum over the sets."""

    @staticmethod
    def brute_force(cache):
        return sum(len(s) for s in cache._sets.values())

    def test_tracks_installs_and_evictions(self):
        cache = small_cache(sets=2, ways=2)
        rng = __import__("random").Random(3)
        for _ in range(500):
            line = rng.randrange(64) * 64
            op = rng.randrange(4)
            if op == 0:
                cache.install(line, prefetched=bool(rng.randrange(2)))
            elif op == 1:
                cache.lookup(line)
            elif op == 2:
                cache.invalidate(line)
            else:
                cache.contains(line)
            assert cache.occupancy == self.brute_force(cache)

    def test_reinstall_does_not_double_count(self):
        cache = small_cache()
        cache.install(0x0)
        cache.install(0x0)
        assert cache.occupancy == 1

    def test_flush_resets(self):
        cache = small_cache()
        cache.install(0x0)
        cache.install(0x40)
        cache.flush()
        assert cache.occupancy == 0
        cache.install(0x80)
        assert cache.occupancy == 1

    def test_capacity_bound(self):
        cache = small_cache(sets=2, ways=2)
        for i in range(32):
            cache.install(i * 64)
        assert cache.occupancy == self.brute_force(cache) <= 4


class ReferenceCache:
    """A list-based LRU cache that keeps explicit ``prefetched`` and
    ``referenced`` flags per line: the oracle for the one-bool
    representation."""

    def __init__(self, sets, ways):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.hits = self.misses = 0
        self.prefetch_hits = self.wasted_prefetches = 0

    def _find(self, line):
        lines = self.sets[(line >> 6) % len(self.sets)]
        return lines, next((e for e in lines if e[0] == line), None)

    def lookup(self, line, demand):
        lines, entry = self._find(line)
        if entry is not None:
            lines.remove(entry)
            lines.append(entry)
            if demand:
                self.hits += 1
                self.prefetch_hits += entry[1] and not entry[2]
                entry[2] = True
        elif demand:
            self.misses += 1
        return entry is not None

    def contains(self, line):
        return self._find(line)[1] is not None

    def install(self, line, prefetched):
        lines, entry = self._find(line)
        if entry is not None:
            lines.remove(entry)
            lines.append(entry)
            entry[2] = entry[2] or not prefetched
            return None
        victim = None
        if len(lines) >= self.ways:
            victim, was_prefetched, referenced = lines.pop(0)
            self.wasted_prefetches += was_prefetched and not referenced
        lines.append([line, prefetched, not prefetched])
        return victim

    def invalidate(self, line):
        lines, entry = self._find(line)
        if entry is not None:
            lines.remove(entry)
        return entry is not None


_OPS = st.lists(st.tuples(
    st.sampled_from(("install", "lookup", "contains", "invalidate")),
    st.integers(0, 23).map(lambda i: i * 64), st.booleans()),
    max_size=80)


class TestReferenceModel:
    """Random operation sequences give the same counters, victims, LRU
    order and pending flags as the explicit-flag reference model."""

    @given(sets=st.integers(1, 4), ways=st.integers(1, 4), ops=_OPS)
    @settings(max_examples=scaled(150), deadline=None)
    def test_matches_reference(self, sets, ways, ops):
        cache = small_cache(sets=sets, ways=ways)
        model = ReferenceCache(sets, ways)
        for op, line, flag in ops:
            if op == "install":
                assert cache.install(line, prefetched=flag) \
                    == model.install(line, flag)
            elif op == "lookup":
                assert cache.lookup(line, demand=flag) \
                    == model.lookup(line, flag)
            else:
                assert getattr(cache, op)(line) == getattr(model, op)(line)
            for index, lines in enumerate(model.sets):
                assert list(cache._sets.get(index, {}).items()) == [
                    (entry[0], entry[1] and not entry[2]) for entry in lines]
        for counter in ("hits", "misses", "prefetch_hits",
                        "wasted_prefetches"):
            assert getattr(cache, counter) == getattr(model, counter)
        assert cache.occupancy == sum(map(len, model.sets))
