"""Tests for the block cache."""

from repro.lsm.cache import BlockCache


class TestBlockCache:
    def test_miss_then_hit(self):
        cache = BlockCache(1000)
        assert cache.access("a", 100) is False
        assert cache.access("a", 100) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = BlockCache(250)
        cache.access("a", 100)
        cache.access("b", 100)
        cache.access("c", 100)       # evicts a
        assert cache.access("a", 100) is False
        assert cache.access("c", 100) is True

    def test_access_refreshes_recency(self):
        cache = BlockCache(250)
        cache.access("a", 100)
        cache.access("b", 100)
        cache.access("a", 100)       # refresh a
        cache.access("c", 100)       # evicts b, not a
        assert cache.access("a", 100) is True
        assert cache.access("b", 100) is False

    def test_oversized_entry_not_cached(self):
        cache = BlockCache(100)
        assert cache.access("big", 1000) is False
        assert cache.access("big", 1000) is False
        assert len(cache) == 0

    def test_zero_capacity_never_hits(self):
        cache = BlockCache(0)
        assert cache.access("a", 1) is False
        assert cache.access("a", 1) is False

    def test_used_bytes(self):
        cache = BlockCache(1000)
        cache.access("a", 300)
        cache.access("b", 200)
        assert cache.used_bytes == 500

    def test_hit_rate(self):
        cache = BlockCache(1000)
        assert cache.hit_rate() == 0.0
        cache.access("a", 1)
        cache.access("a", 1)
        assert cache.hit_rate() == 0.5

    def test_access_all_equals_one_access_per_touch(self):
        # Hits, first misses, evictions, a re-miss after eviction and an
        # entry too large to admit — over caches that thrash, fit, or
        # are off.
        touches = [("a", 100, True), ("b", 100, False), ("a", 100, True),
                   ("c", 100, False), ("big", 900, False), ("b", 100, False),
                   ("big", 900, False), ("c", 100, False)]
        for capacity in (0, 100, 250, 1000):
            one_by_one, batched = BlockCache(capacity), BlockCache(capacity)
            want = [touch for touch in touches
                    if not one_by_one.access(touch[0], touch[1])]
            assert batched.access_all(touches) == want
            assert list(batched._entries) == list(one_by_one._entries)
            assert batched.used_bytes == one_by_one.used_bytes
            assert (batched.hits, batched.misses) == (
                one_by_one.hits, one_by_one.misses)
