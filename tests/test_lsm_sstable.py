"""Tests for SSTables (blocks, sparse index, fences, cache charging)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LSMError
from repro.lsm.cache import BlockCache
from repro.lsm.iterator import point_lookup
from repro.lsm.levels import LookupPlan
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.store import ReadStats
from repro.storage.flash import FlashDevice


def build_sst(n=100, block_size=256, flash=None, value=b"v" * 20):
    builder = SSTableBuilder(block_size=block_size)
    for i in range(n):
        builder.add(f"key-{i:05d}".encode(), value)
    return builder.finish(flash=flash, sst_id=1, level=1)


class TestBuilder:
    def test_out_of_order_rejected(self):
        builder = SSTableBuilder()
        builder.add(b"b", b"v")
        with pytest.raises(LSMError):
            builder.add(b"a", b"v")

    def test_duplicate_rejected(self):
        builder = SSTableBuilder()
        builder.add(b"a", b"v")
        with pytest.raises(LSMError):
            builder.add(b"a", b"v2")

    def test_empty_build_rejected(self):
        with pytest.raises(LSMError):
            SSTableBuilder().finish()

    def test_blocks_respect_target_size(self):
        sst = build_sst(n=100, block_size=256)
        assert sst.block_count > 1

    def test_flash_allocation(self):
        flash = FlashDevice()
        sst = build_sst(flash=flash)
        assert sst.extent is not None
        assert sst.extent.nbytes == sst.nbytes

    def test_non_bytes_rejected(self):
        with pytest.raises(LSMError):
            SSTableBuilder().add("str", b"v")


class TestReads:
    def test_get_present(self):
        sst = build_sst()
        found, value = sst.get(b"key-00042")
        assert found and value == b"v" * 20

    def test_get_absent_inside_range(self):
        sst = build_sst()
        assert sst.get(b"key-00042x") == (False, None)

    def test_get_outside_fences_is_free(self):
        sst = build_sst()
        stats = ReadStats()
        assert sst.get(b"zzz", stats) == (False, None)
        assert stats.data_blocks_read == 0

    def test_tombstone_reported_found_none(self):
        builder = SSTableBuilder()
        builder.add(b"a", TOMBSTONE)
        sst = builder.finish()
        assert sst.get(b"a") == (True, None)

    def test_full_iteration_in_order(self):
        sst = build_sst(n=50)
        keys = [k for k, _ in sst.iter_all()]
        assert keys == sorted(keys)
        assert len(keys) == 50

    def test_range_iteration_hi_exclusive(self):
        sst = build_sst(n=20)
        keys = [k for block in sst.iter_range(b"key-00005", b"key-00010")
                for k, _ in block]
        assert keys == [f"key-{i:05d}".encode() for i in range(5, 10)]

    def test_fences(self):
        sst = build_sst(n=10)
        assert sst.min_key == b"key-00000"
        assert sst.max_key == b"key-00009"
        assert sst.overlaps(b"key-00003", b"key-00004")
        assert not sst.overlaps(b"zzz", None)
        assert not sst.overlaps(None, b"a")

    def test_bloom_probe_counted(self):
        # A point read probes every candidate SST's filter and counts it.
        plan = LookupPlan([[build_sst()]], tiered=False)
        stats = ReadStats()
        point_lookup(MemTable(), plan, b"key-00001", stats, True)
        point_lookup(MemTable(), plan, b"key-00001-absent", stats, True)
        assert stats.bloom_probes == 2
        assert stats.bloom_negatives >= 1


class TestStatsCharging:
    def test_get_charges_index_and_block(self):
        sst = build_sst()
        stats = ReadStats()
        sst.get(b"key-00042", stats)
        assert stats.index_blocks_read == 1
        assert stats.data_blocks_read == 1
        assert stats.bytes_read > 0

    def test_scan_charges_every_block(self):
        sst = build_sst(n=100, block_size=256)
        stats = ReadStats()
        list(sst.iter_all(stats))
        assert stats.data_blocks_read == sst.block_count

    def test_cache_absorbs_repeat_reads(self):
        sst = build_sst()
        cache = BlockCache(10 * 1024 * 1024)
        first = ReadStats()
        first.cache = cache
        sst.get(b"key-00042", first)
        second = ReadStats()
        second.cache = cache
        sst.get(b"key-00042", second)
        assert first.bytes_read > 0
        assert second.bytes_read == 0
        assert second.cache_hits == 2      # index + data block

    def test_tiny_cache_does_not_absorb(self):
        sst = build_sst()
        cache = BlockCache(1)    # too small to hold anything
        stats = ReadStats()
        stats.cache = cache
        sst.get(b"key-00042", stats)
        sst.get(b"key-00042", stats)
        assert stats.cache_hits == 0


def _greedy_blocks(entries, block_size):
    """Reference block cut: entries join the open block while it stays
    within ``block_size`` (8-byte block header, 8-byte entry header);
    a block's first entry always joins."""
    blocks, current, current_bytes = [], [], 8
    for key, value in entries:
        entry_bytes = 8 + len(key) + len(value)
        if current and current_bytes + entry_bytes > block_size:
            blocks.append((current, current_bytes))
            current, current_bytes = [], 8
        current.append((key, value))
        current_bytes += entry_bytes
    blocks.append((current, current_bytes))
    return blocks


class TestBlockCut:
    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                    max_size=80),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_greedy_loop(self, value_sizes, block_size):
        """Including entries that fill a block exactly, and entries larger
        than a block."""
        entries = [(b"k%04d" % i, b"v" * size)
                   for i, size in enumerate(value_sizes)]
        builder = SSTableBuilder(block_size=block_size)
        for key, value in entries:
            builder.add(key, value)
        sst = builder.finish()
        expected = _greedy_blocks(entries, block_size)
        assert [(block.entries, block.nbytes) for block in sst._blocks] == \
            expected
        offsets = [block.offset for block in sst._blocks]
        assert offsets == [sum(n for _e, n in expected[:i])
                           for i in range(len(expected))]

    def test_exact_fit_closes_no_early_block(self):
        # Two 12-byte entries fill a 32-byte block exactly (8 + 12 + 12).
        builder = SSTableBuilder(block_size=32)
        for key in (b"aa", b"bb", b"cc"):
            builder.add(key, b"vv")
        sst = builder.finish()
        assert [len(block.entries) for block in sst._blocks] == [2, 1]

    def test_from_sorted_builds_what_add_builds(self):
        entries = [(b"key-%03d" % i, b"x" * (i % 7)) for i in range(50)]
        added = SSTableBuilder(block_size=64)
        for key, value in entries:
            added.add(key, value)
        one = added.finish(sst_id=3)
        two = SSTableBuilder.from_sorted(list(entries), block_size=64).finish(
            sst_id=3)
        assert [(b.entries, b.nbytes, b.offset) for b in one._blocks] == \
            [(b.entries, b.nbytes, b.offset) for b in two._blocks]
        assert bytes(one.bloom._bits) == bytes(two.bloom._bits)
