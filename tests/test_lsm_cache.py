"""Tests for the block cache."""

from repro.lsm.cache import BlockCache
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.store import ReadStats, ReadTrace


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

    def test_sst_touches_share_the_tables_cache_keys(self):
        # Present keys, an absent one inside the fences (charged the
        # block the search probed) and repeats: every touch of a block
        # is the SST's own key object, and batched access over those
        # recorded touches is still one access per touch.
        builder = SSTableBuilder(block_size=64)
        for i in range(40):
            builder.add(b"k%03d" % i, b"v" * 8)
        sst = builder.finish(sst_id=3)
        stats = ReadStats()
        recorded = []
        for _ in range(2):
            with ReadTrace(stats) as trace:
                for key in (b"k001", b"k020", b"k0205", b"k039", b"k001"):
                    sst.get(key, stats)
            recorded.append(trace.touches)
        first, second = recorded
        assert len(first) == 10 and first == second
        assert all(a[0] is b[0] for a, b in zip(first, second))
        assert first[0][0] is first[-2][0]          # k001's index block
        touches = first + second
        for capacity in (0, 64, 200, 10_000):
            one_by_one, batched = BlockCache(capacity), BlockCache(capacity)
            want = [touch for touch in touches
                    if not one_by_one.access(touch[0], touch[1])]
            assert batched.access_all(touches) == want
            assert batched.lru_state() == one_by_one.lru_state()
            assert (batched.hits, batched.misses, batched.used_bytes) == (
                one_by_one.hits, one_by_one.misses, one_by_one.used_bytes)
