"""One read path: a live table and a snapshot of it read alike.

:class:`~repro.relational.snapshot_table.SnapshotTable` owns no read
body: it inherits every read method of
:class:`~repro.relational.table.TableReads` and supplies pinned snapshot
views where the live table has its trees.  A snapshot captured at one
moment must therefore answer every read exactly as the live table does
at that moment — for rows still in the memtable and for flushed ones,
updated and deleted ones, and absent keys — and both share one memo
store under three rules (the last test).
"""

from dataclasses import replace

import pytest

from repro.cluster import TableShard
from repro.engine.counters import WorkCounters
from repro.errors import CatalogError, ReproError
from repro.lsm.cache import BlockCache
from repro.lsm.column_family import KVDatabase
from repro.lsm.snapshot import SharedState
from repro.lsm.store import ReadStats
from repro.relational.catalog import Catalog
from repro.relational.scan import ScanRequest
from repro.relational.schema import TableSchema, char_col, int_col
from repro.relational.snapshot_table import SnapshotTable
from repro.storage.flash import FlashDevice
from tests.conftest import small_lsm_config

_SCHEMA = TableSchema(
    "t",
    (int_col("id", False), int_col("k"), char_col("tag", 8),
     char_col("note", 16)),
    "id", ("k", "tag"))
_TAGS = ("a", "b", "ab", "")


def _row(i):
    return {"id": i, "k": None if i % 11 == 0 else i % 7,
            "tag": None if i % 13 == 0 else _TAGS[i % 4],
            "note": f"note {i % 5}"}


@pytest.fixture(scope="module")
def tables():
    """The live table, its database and a snapshot captured at the end.

    Ids 0–99 and 100–199 are in two SSTs, 200–259 in the memtable; row
    10 is updated and rows 20 (flushed) and 250 (not) are deleted after
    the last flush, so the memtable shadows flushed entries.
    """
    database = KVDatabase(flash=FlashDevice(),
                          default_config=small_lsm_config())
    catalog = Catalog(database)
    live = catalog.create_table(_SCHEMA)
    for i in range(260):
        live.insert(_row(i))
        if i in (99, 199):
            catalog.flush_all()
    live.update(10, {"k": 3, "tag": "zz"})
    live.delete(20)
    live.delete(250)
    state = SharedState.capture(database, live.column_families())
    primary = state.family(live.family.name)
    assert primary.memtable_count and primary.sst_count
    return live, SnapshotTable(live, state), database, state


#: Flushed, updated, deleted (flushed and not), unflushed and absent.
_KEYS = (0, 5, 10, 20, 150, 210, 250, 259, 999)


def test_point_reads(tables):
    live, snap = tables[:2]
    for pk in _KEYS:
        assert snap.get_record(pk) == live.get_record(pk)
        assert snap.get_by_pk(pk) == live.get_by_pk(pk)
        assert (snap.get_by_pk(pk, columns=["tag", "id"], qualified_as="x")
                == live.get_by_pk(pk, columns=["tag", "id"],
                                  qualified_as="x"))
    assert live.get_by_pk(10)["tag"] == "zz"
    assert live.get_record(20) is None and live.get_record(210) is not None


_BOUNDS = ((None, None), (5, 17), (95, 215), (240, None), (300, 400))
_SHARDS = {
    "none": None,
    "range": TableShard("t", 0, 2, pk_lo=50, pk_hi=220),
    "hash": TableShard("t", 1, 3, seed=7),
    "empty": TableShard("t", 0, 2, is_empty=True),
}
#: (decoded columns, alias): all columns bare, a projection, qualified.
_DECODES = ((None, None), (("id", "tag"), None), (("note", "id", "k"), "x"))


@pytest.mark.parametrize("shard", sorted(_SHARDS))
@pytest.mark.parametrize("bounds", _BOUNDS)
@pytest.mark.parametrize("columns, alias", _DECODES)
def test_scans(tables, columns, alias, bounds, shard):
    live, snap = tables[:2]
    request = ScanRequest(columns=columns, pk_lo=bounds[0], pk_hi=bounds[1],
                          qualified_as=alias, shard=_SHARDS[shard])
    assert list(snap.scan_raw(request)) == list(live.scan_raw(request))
    rows = list(live.scan(request))
    assert list(snap.scan(request)) == rows
    got, want = snap.scan_batch(request), live.scan_batch(request)
    assert got.schema == want.schema
    assert got.rows() == want.rows()
    # Only scan_batch honours the shard: it is the row scan, pruned.
    if request.shard is not None:
        pk = "x.id" if alias else "id"
        rows = [row for row in rows if request.shard.contains(row[pk])]
    assert want.rows() == rows


def test_shard_pruning_needs_the_primary_key(tables):
    request = ScanRequest(columns=("tag",), shard=_SHARDS["hash"])
    for table in tables[:2]:
        with pytest.raises(ReproError, match="primary key"):
            table.scan_batch(request)
        assert not table.scan_batch(replace(request, shard=_SHARDS["empty"]))


@pytest.mark.parametrize("column, values", [
    ("k", (0, 3, 6, 99)),                   # INT index
    ("tag", ("a", "ab", "", "zz", "q")),    # CHAR index, prefixes of one
])
def test_index_lookups(tables, column, values):
    live, snap = tables[:2]
    found = 0
    for value in values:
        records = list(live.index_lookup_raw(column, value))
        found += len(records)
        assert list(snap.index_lookup_raw(column, value)) == records
        assert (list(snap.index_lookup(column, value))
                == list(live.index_lookup(column, value)))
        assert (list(snap.index_lookup(column, value, columns=["id"],
                                       qualified_as="x"))
                == list(live.index_lookup(column, value, columns=["id"],
                                          qualified_as="x")))
    assert found


def test_has_index_on(tables):
    live, snap = tables[:2]
    for column in ("id", "k", "tag", "note", "ghost"):
        assert snap.has_index_on(column) == live.has_index_on(column)
    assert live.has_index_on("tag") and not live.has_index_on("note")


def test_uncaptured_index_is_a_catalog_error(tables):
    live, _snap, database, _state = tables
    state = SharedState.capture(
        database, [live.family.name, live.index_on("k").name])
    snap = SnapshotTable(live, state)
    assert snap.has_index_on("k") and not snap.has_index_on("tag")
    for table in (snap, live):
        with pytest.raises(CatalogError):
            list(table.index_lookup_raw("note", "a"))
        with pytest.raises(CatalogError):
            table.seek_memo("note")
    with pytest.raises(CatalogError):
        list(snap.index_lookup_raw("tag", "a"))
    with pytest.raises(CatalogError):
        snap.seek_memo("tag")


def test_one_memo_store_three_sharing_rules(tables):
    live, snap, _database, state = tables
    again = SnapshotTable(live, state)
    bloom = SnapshotTable(live, state, use_bloom_filters=True)
    # Live seeks: a fresh memo per call.
    assert live.seek_memo("k") is not live.seek_memo("k")
    # Snapshot seeks: one per bloom flag, column and captured versions.
    memo = snap.seek_memo("k")
    assert again.seek_memo("k") is memo
    assert snap.seek_memo("id") is not memo
    assert bloom.seek_memo("k") is not memo
    assert snap.seek_memo("k") is memo      # the bloom one replaced nothing
    # Full scans: one per primary version, live and snapshots alike.
    assert live.scan_memo() is snap.scan_memo() is bloom.scan_memo()


# ----------------------------------------------------------------------
# Charge parity: a split's host fragment reads a bloom snapshot
# ----------------------------------------------------------------------

#: Every ``ReadStats`` counter.
_COUNTERS = tuple(name for name in ReadStats.__dataclass_fields__
                  if name != "cache")
_PARITY_BLOCK = 512
_PARITY_CACHES = (0, _PARITY_BLOCK, 4 * _PARITY_BLOCK, 512 * 1024 * 1024)
_PARITY_ROWS = 240


def _parity_row(i):
    return {"id": 2 * (i * 7 % _PARITY_ROWS), "k": 3 * (i % 16),
            "tag": _TAGS[i % 4], "note": f"note {i % 5}"}


def _parity_table(state):
    """A live table in one of three shapes, and a snapshot of it.

    Even ids and ``k`` multiples of three leave absent keys inside every
    fence range; two bloom bits per key make false positives common.
    ``one sst``: everything in one flushed SST, memtables empty, so a
    live scan reads a single source.  ``overlapping``: three overlapping
    L1 SSTs, the newest with tombstones and an update.  ``memtable``:
    the same with further inserts, updates and deletes unflushed.
    """
    database = KVDatabase(flash=FlashDevice(), default_config=small_lsm_config(
        memtable_size=1 << 20, block_size=_PARITY_BLOCK, bits_per_key=2))
    catalog = Catalog(database)
    live = catalog.create_table(_SCHEMA)
    for i in range(_PARITY_ROWS):
        live.insert(_parity_row(i))
        if state != "one sst" and i in (_PARITY_ROWS // 3,
                                        2 * _PARITY_ROWS // 3):
            catalog.flush_all()
    if state != "one sst":
        live.update(10, {"k": 1, "tag": "zz"})
        live.delete(20)
        live.delete(200)
    catalog.flush_all()
    if state == "memtable":
        live.insert(_parity_row(_PARITY_ROWS) | {"id": 1001, "k": 1})
        live.update(30, {"k": 6})
        live.delete(40)
        live.delete(1001)
    tree = live.family.tree
    assert tree.levels.sst_count() == (1 if state == "one sst" else 3)
    assert bool(len(tree.memtable)) == (state == "memtable")
    state = SharedState.capture(database, live.column_families())
    return live, SnapshotTable(live, state, use_bloom_filters=True)


#: Odd ids inside the fences (bloom false positives among them), and one
#: beyond every fence.
_PARITY_ABSENT = (1, 5, 15, 99, 301, 477, 10 ** 6)


def _parity_reads():
    """Point reads, index lookups and scans, as ``(name, read)``."""
    reads = [(f"get {pk}", lambda table, stats, pk=pk:
              [table.get_record(pk, stats=stats)])
             for pk in (0, 10, 14, 20, 30, 40, 200, 1001) + _PARITY_ABSENT]
    reads += [(f"index {column}={value}",
               lambda table, stats, column=column, value=value:
               list(table.index_lookup_raw(column, value, stats=stats)))
              for column, value in (("k", 0), ("k", 6), ("k", 1), ("k", 2),
                                    ("tag", "a"), ("tag", "zz"),
                                    ("tag", "q"))]
    reads += [(f"scan {lo}..{hi}", lambda table, stats, lo=lo, hi=hi:
               list(table.scan_raw(ScanRequest(pk_lo=lo, pk_hi=hi,
                                               stats=stats))))
              for lo, hi in ((None, None), (10, 90), (301, None))]
    return reads


def _fields(stats, names):
    return {name: getattr(stats, name) for name in names}


@pytest.mark.parametrize("cache_bytes", _PARITY_CACHES)
@pytest.mark.parametrize("state", ["one sst", "overlapping", "memtable"])
def test_bloom_snapshot_charges_what_the_live_table_charges(state,
                                                            cache_bytes):
    """At one tree version a ``SnapshotTable(use_bloom_filters=True)``
    answers and charges every read like the live ``RelationalTable``.

    Both run the one LSM read path (``repro.lsm.iterator``) over the
    same MemTable entries and the same lookup plan, so they probe the
    same bloom filters and touch the same blocks, interleaved alike with
    the primary seeks of an index lookup, through one block cache each:
    every ``ReadStats`` counter and the cache's LRU order, hits and
    misses come out equal, read after read.
    """
    live, snap = _parity_table(state)
    walked, pinned = (ReadStats(cache=BlockCache(cache_bytes))
                      for _ in range(2))
    for name, read in _parity_reads():
        assert read(live, walked) == read(snap, pinned), name
        assert (_fields(walked, _COUNTERS)
                == _fields(pinned, _COUNTERS)), name
        assert walked.cache.lru_state() == pinned.cache.lru_state(), name
        assert ((walked.cache.hits, walked.cache.misses)
                == (pinned.cache.hits, pinned.cache.misses)), name
    assert walked.bytes_read and walked.bloom_negatives
    # Some absent key passed a bloom filter and was charged a block.
    charged = [ReadStats() for _ in _PARITY_ABSENT]
    for pk, stats in zip(_PARITY_ABSENT, charged):
        assert live.get_record(pk, stats=stats) is None
    assert any(stats.data_blocks_read for stats in charged)
    # The timing model prices neither MemTable reads nor fence checks.
    unpriced = ReadStats(memtable_gets=7, ssts_considered=7,
                         ssts_skipped_fence=7)
    assert WorkCounters().absorb_read_stats(unpriced) == WorkCounters()
