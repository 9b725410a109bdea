"""Tests for the MemTable."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LSMError
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.store import LSMTree
from tests.conftest import small_lsm_config


class TestWrites:
    def test_put_get(self):
        table = MemTable()
        table.put(b"k", b"v")
        assert table.get(b"k") == (True, b"v")

    def test_missing_key(self):
        assert MemTable().get(b"nope") == (False, None)

    def test_delete_is_tombstone(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.delete(b"k")
        found, value = table.get(b"k")
        assert found is True and value is None

    def test_delete_unknown_key_still_records_tombstone(self):
        table = MemTable()
        table.delete(b"ghost")
        assert table.get(b"ghost") == (True, None)
        assert dict(table.items())[b"ghost"] == TOMBSTONE

    def test_non_bytes_value_rejected(self):
        with pytest.raises(LSMError):
            MemTable().put(b"k", 123)

    def test_byte_size_tracks_content(self):
        table = MemTable()
        table.put(b"abc", b"defg")
        assert table.byte_size == 7

    def test_is_full(self):
        table = MemTable(size_limit=10)
        table.put(b"aaaa", b"bbbb")
        assert not table.is_full()
        table.put(b"cc", b"dd")
        assert table.is_full()

    def test_zero_limit_rejected(self):
        with pytest.raises(LSMError):
            MemTable(size_limit=0)


class TestImmutability:
    def test_frozen_table_rejects_writes(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.freeze()
        assert table.immutable
        with pytest.raises(LSMError):
            table.put(b"x", b"y")
        with pytest.raises(LSMError):
            table.delete(b"k")

    def test_frozen_table_still_readable(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.freeze()
        assert table.get(b"k") == (True, b"v")

    def test_entries_sorted(self):
        table = MemTable()
        for key in [b"c", b"a", b"b"]:
            table.put(key, b"v")
        assert [k for k, _ in table.entries()] == [b"a", b"b", b"c"]


class TestOrderedReads:
    def test_empty(self):
        table = MemTable()
        assert len(table) == 0
        assert table.get(b"a") == (False, None)
        assert list(table.items()) == []

    def test_insert_and_get(self):
        table = MemTable()
        table.put(b"b", b"2")
        table.put(b"a", b"1")
        assert table.get(b"a") == (True, b"1")
        assert table.get(b"b") == (True, b"2")
        assert len(table) == 2

    def test_overwrite_keeps_size(self):
        table = MemTable()
        table.put(b"k", b"1")
        list(table.items())           # the sorted key list now exists
        table.put(b"k", b"2")
        assert table.get(b"k") == (True, b"2")
        assert len(table) == 1
        assert list(table.items()) == [(b"k", b"2")]

    def test_non_bytes_key_rejected(self):
        with pytest.raises(LSMError):
            MemTable().put("text", b"v")
        with pytest.raises(LSMError):
            MemTable().delete(7)

    def test_items_are_sorted(self):
        table = MemTable()
        for key in [b"d", b"a", b"c", b"b"]:
            table.put(key, key)
        assert [k for k, _ in table.items()] == [b"a", b"b", b"c", b"d"]

    def test_range_iteration(self):
        table = MemTable()
        for i in range(10):
            table.put(bytes([i]), bytes([i]))
        got = [v for _, v in table.items(lo=bytes([3]), hi=bytes([7]))]
        assert got == [bytes([i]) for i in (3, 4, 5, 6)]


_KEYS = st.binary(min_size=1, max_size=4)
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, st.binary(max_size=6)),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("items"), st.none() | _KEYS, st.none() | _KEYS))


class TestDictModel:
    @given(st.dictionaries(_KEYS, st.binary(max_size=6), max_size=30),
           st.lists(_OPS, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_model(self, preload, ops):
        """Writes after the first ordered read keep the sorted list right."""
        table = MemTable()
        model = {}
        for key, value in preload.items():
            table.put(key, value)
            model[key] = value
        assert list(table.items()) == sorted(model.items())
        for op in ops:
            if op[0] == "put":
                table.put(op[1], op[2])
                model[op[1]] = op[2]
            elif op[0] == "delete":
                table.delete(op[1])
                model[op[1]] = TOMBSTONE
            elif op[0] == "get":
                value = model.get(op[1])
                expected = ((False, None) if value is None
                            else (True, None) if value == TOMBSTONE
                            else (True, value))
                assert table.get(op[1]) == expected
            else:
                _op, lo, hi = op
                assert list(table.items(lo=lo, hi=hi)) == [
                    (key, value) for key, value in sorted(model.items())
                    if (lo is None or key >= lo)
                    and (hi is None or key < hi)]
            assert len(table) == len(model)
        assert table.entries() == sorted(model.items())

    @given(st.lists(_KEYS, min_size=1, max_size=100), _KEYS, _KEYS)
    @settings(max_examples=50, deadline=None)
    def test_range_matches_sorted_slice(self, keys, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        table = MemTable()
        for key in keys:
            table.put(key, b"")
        expected = sorted(k for k in set(keys) if lo <= k < hi)
        assert [k for k, _ in table.items(lo=lo, hi=hi)] == expected


class TestLiveScan:
    """An open walk is a snapshot: writes made during it do not reach it.

    No caller keeps an ``LSMTree.scan`` open across writes (every one is
    drained at once); these pin the semantics for any that will.
    """

    def test_open_walk_is_a_snapshot(self):
        table = MemTable()
        for key in [b"a", b"c", b"e"]:
            table.put(key, b"old")
        walk = iter(table.items())
        assert next(walk) == (b"a", b"old")
        table.put(b"d", b"new")          # ahead of the cursor
        table.put(b"e", b"new")          # overwrite ahead of the cursor
        table.delete(b"c")
        assert list(walk) == [(b"c", b"old"), (b"e", b"old")]
        assert list(table.items()) == [
            (b"a", b"old"), (b"c", TOMBSTONE), (b"d", b"new"),
            (b"e", b"new")]

    def test_tree_scan_sees_the_tree_at_its_first_next(self):
        tree = LSMTree(config=small_lsm_config(
            memtable_size=512, level_base_bytes=2048, sst_target_bytes=1024))
        for i in range(0, 200, 2):
            tree.put(b"k%04d" % i, b"v%04d" % i)
        expected = [(b"k%04d" % i, b"v%04d" % i) for i in range(0, 200, 2)]
        scan = tree.scan()
        assert next(scan) == expected[0]
        flushes = tree.write_stats.flushes
        compactions = tree.compactor.stats.compactions
        for i in range(1, 200, 2):       # new keys: flushes, compactions
            tree.put(b"k%04d" % i, b"new")
        tree.delete(b"k0100")
        assert tree.write_stats.flushes > flushes
        assert tree.compactor.stats.compactions > compactions
        assert list(scan) == expected[1:]
        assert len(list(tree.scan())) == 199
