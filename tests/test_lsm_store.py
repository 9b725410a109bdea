"""Tests for the full LSM tree (GET/SCAN/flush/compaction interplay)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.store import LSMTree, ReadStats
from repro.storage.flash import FlashDevice

from tests.conftest import small_lsm_config


def make_tree(**overrides):
    return LSMTree(config=small_lsm_config(**overrides),
                   flash=FlashDevice())


class TestPointOps:
    def test_put_get(self):
        tree = make_tree()
        tree.put(b"k", b"v")
        assert tree.get(b"k") == b"v"

    def test_get_missing(self):
        assert make_tree().get(b"nope") is None

    def test_delete_shadows_flushed_value(self):
        tree = make_tree()
        tree.put(b"k", b"v")
        tree.freeze_and_flush()
        tree.delete(b"k")
        assert tree.get(b"k") is None

    def test_overwrite_across_flushes(self):
        tree = make_tree()
        tree.put(b"k", b"v1")
        tree.freeze_and_flush()
        tree.put(b"k", b"v2")
        tree.freeze_and_flush()
        assert tree.get(b"k") == b"v2"

    def test_get_searches_memtable_first(self):
        tree = make_tree()
        tree.put(b"k", b"old")
        tree.freeze_and_flush()
        tree.put(b"k", b"new")      # still in memtable
        stats = ReadStats()
        assert tree.get(b"k", stats) == b"new"
        assert stats.memtable_gets >= 1
        assert stats.data_blocks_read == 0


class TestFlushing:
    def test_auto_flush_when_memtable_full(self):
        tree = make_tree(memtable_size=512)
        for i in range(100):
            tree.put(f"key-{i:04d}".encode(), b"x" * 20)
        assert tree.levels.sst_count() > 0
        assert tree.write_stats.flushes > 0

    def test_freeze_and_flush_empties_memtable(self):
        tree = make_tree()
        tree.put(b"k", b"v")
        tree.freeze_and_flush()
        assert len(tree.memtable) == 0
        assert tree.get(b"k") == b"v"

    def test_levels_invariants_hold_after_heavy_load(self):
        tree = make_tree(memtable_size=512, level_base_bytes=2048,
                         sst_target_bytes=1024)
        rng = random.Random(3)
        for i in range(2000):
            tree.put(f"key-{rng.randrange(500):05d}".encode(), b"x" * 30)
        tree.freeze_and_flush()
        tree.levels.check_invariants()
        assert any(level > 1 for level, _ in tree.levels.levels)


class TestScans:
    def test_scan_merges_all_components(self):
        tree = make_tree(memtable_size=256)
        expected = {}
        for i in range(300):
            key = f"key-{i % 120:05d}".encode()
            value = f"value-{i}".encode()
            tree.put(key, value)
            expected[key] = value
        got = dict(tree.scan())
        assert got == expected

    def test_scan_range_bounds(self):
        tree = make_tree()
        for i in range(20):
            tree.put(f"{i:03d}".encode(), b"v")
        tree.freeze_and_flush()
        keys = [k for k, _ in tree.scan(lo=b"005", hi=b"010")]
        assert keys == [f"{i:03d}".encode() for i in range(5, 10)]

    def test_scan_skips_deleted(self):
        tree = make_tree()
        tree.put(b"a", b"1")
        tree.put(b"b", b"2")
        tree.freeze_and_flush()
        tree.delete(b"a")
        assert dict(tree.scan()) == {b"b": b"2"}

    def test_value_predicate_filters_but_scans_everything(self):
        tree = make_tree()
        for i in range(50):
            tree.put(f"{i:03d}".encode(), f"{i}".encode())
        tree.freeze_and_flush()
        stats = ReadStats()
        got = dict(tree.scan(value_predicate=lambda v: v == b"7",
                             stats=stats))
        assert got == {b"007": b"7"}
        assert stats.entries_scanned == 50

    def test_fence_pointers_skip_ssts(self):
        tree = make_tree(auto_compact=False)
        for start in (0, 100, 200):
            for i in range(start, start + 20):
                tree.put(f"{i:05d}".encode(), b"v")
            tree.freeze_and_flush()
        stats = ReadStats()
        list(tree.scan(lo=b"00000", hi=b"00005", stats=stats))
        assert stats.ssts_skipped_fence >= 2


class TestBloomEffect:
    def test_bloom_skips_ssts_on_miss(self):
        tree = make_tree(auto_compact=False)
        for i in range(100):
            tree.put(f"present-{i:04d}".encode(), b"v")
        tree.freeze_and_flush()
        stats = ReadStats()
        assert tree.get(b"present-9999x", stats) is None
        assert stats.bloom_negatives >= 1 or stats.data_blocks_read == 0


class TestIntrospection:
    def test_placements_include_extents(self):
        tree = make_tree()
        for i in range(100):
            tree.put(f"key-{i:04d}".encode(), b"x" * 30)
        tree.freeze_and_flush()
        placements = tree.placements()
        assert placements
        assert all("extent" in p for p in placements)

    def test_read_amplification_counts_components(self):
        tree = make_tree(auto_compact=False)
        for batch in range(3):
            for i in range(20):
                tree.put(f"key-{i:04d}".encode(), f"{batch}".encode())
            tree.freeze_and_flush()
        assert tree.read_amplification(b"key-0001") >= 3


class TestPropertyBased:
    @given(st.lists(
        st.tuples(st.sampled_from(["put", "delete"]),
                  st.integers(min_value=0, max_value=50),
                  st.binary(min_size=1, max_size=10)),
        max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_matches_dict_model(self, ops):
        tree = make_tree(memtable_size=256, level_base_bytes=1024,
                         sst_target_bytes=512)
        model = {}
        for op, key_n, value in ops:
            key = f"k{key_n:03d}".encode()
            if op == "put":
                tree.put(key, value)
                model[key] = value
            else:
                tree.delete(key)
                model.pop(key, None)
        tree.freeze_and_flush()
        assert dict(tree.scan()) == model
        for key in list(model)[:20]:
            assert tree.get(key) == model[key]
        assert tree.get(b"k999") is None
        tree.levels.check_invariants()
