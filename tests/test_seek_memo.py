"""Seek-once indexed join ≡ the row engine, read for read.

The columnar indexed join walks the LSM once per distinct join key and
replays the recorded :class:`~repro.lsm.store.ReadTrace` for every
repeat (``docs/engine.md``).  Nothing observable may change: rows, the
full :class:`WorkCounters` dict and the block cache's final LRU order
must equal the row-at-a-time reference (``tests/rowref.py``), which
really does seek once per outer row — on the host table and on both
snapshot views, with the block cache off, thrashing, and never full.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import PipelineConfig, PipelineExecutor
from repro.lsm.cache import BlockCache
from repro.lsm.column_family import KVDatabase
from repro.lsm.snapshot import SharedState, SnapshotView
from repro.lsm.store import LSMTree, ReadStats, ReadTrace
from repro.query.ast import ColumnRef, Comparison, Literal
from repro.query.logical import JoinEdge
from repro.query.physical import JoinAlgorithm, TableAccess
from repro.relational.catalog import Catalog
from repro.relational.schema import TableSchema, char_col, int_col
from repro.relational.snapshot_table import SnapshotCatalog
from repro.storage.flash import FlashDevice
from tests.conftest import small_lsm_config
from tests.rowref import RowPipelineExecutor

_BLOCK = 2048
#: off, one block, evicting every few seeks, never full.
_CACHE_BYTES = (0, _BLOCK, 4 * _BLOCK, 512 * 1024 * 1024)
_ROWS = 600


@pytest.fixture(scope="module")
def catalogs():
    """One read-only table seen live and through both snapshot views.

    Even ids and multiples of three for ``k`` leave absent keys inside
    every SST's fence range, and two bloom bits per key make false
    positives (a charged block read that finds nothing) common.  Ids
    arrive scrambled, so both SSTs and the memtable (the last third of
    the rows) each span the whole key range and seeks end at every
    depth.
    """
    database = KVDatabase(
        flash=FlashDevice(),
        default_config=small_lsm_config(block_size=_BLOCK, bits_per_key=2))
    catalog = Catalog(database)
    catalog.create_table(TableSchema(
        "inner",
        (int_col("id", False), int_col("k"), int_col("grp"),
         char_col("note", 16)),
        "id", ("k",)))
    table = catalog.table("inner")
    for i in range(_ROWS):
        table.insert({"id": 2 * (i * 7 % _ROWS), "k": 3 * (i % 40),
                      "grp": i % 3, "note": f"note {i % 7}"})
        if i in (_ROWS // 3, 2 * _ROWS // 3):
            catalog.flush_all()
    state = SharedState.capture(database, table.column_families())
    return {
        "host": catalog,
        "snapshot": SnapshotCatalog(catalog, state, {"inner"}),
        "snapshot+bloom": SnapshotCatalog(catalog, state, {"inner"},
                                          use_bloom_filters=True),
    }


def _entry(index_column):
    return TableAccess(
        alias="i", table_name="inner", index_column=index_column,
        local_filter=Comparison("<", ColumnRef("i", "grp"), Literal(2)),
        projection=["id", "note"],
        join_edges=[JoinEdge("o", "key", "i", index_column)],
        join_algorithm=JoinAlgorithm.BNLJI,
        projection_bytes=24, projection_field_count=2)


def _run(executor_cls, catalog, entry, outer_rows, cache_bytes):
    counters = WorkCounters()
    executor = executor_cls(
        catalog, PipelineConfig(block_cache_bytes=cache_bytes), counters)
    seed = outer_rows
    if executor_cls is PipelineExecutor:
        seed = ColumnBatch.from_rows(outer_rows, names=["o.n", "o.key"])
    result, _row_bytes = executor.run(
        [entry], {"i": "inner"}, input_rows=seed, input_row_bytes=16,
        input_aliases=("o",))
    rows = result.rows() if isinstance(result, ColumnBatch) else result
    cache = executor.block_cache
    lru = None if cache is None else list(cache._entries)
    return rows, counters.as_dict(), lru


def _counting(cls, seen):
    original = cls.get

    def get(self, key, stats=None):
        seen[key] += 1
        return original(self, key, stats=stats)
    return mock.patch.object(cls, "get", get)


def _keys(stride):
    """Outer key columns over 15 distinct values, so draws repeat them.

    ``stride`` spreads 13 of them over the column's range, alternating
    present keys with absent ones inside the fence range (odd ids, ``k``
    not a multiple of three); the rest are absent outside it, or NULL.
    """
    return st.lists(
        st.one_of(st.none(), st.just(10 ** 6),
                  st.integers(min_value=0, max_value=12).map(
                      lambda n: n * stride)),
        min_size=1, max_size=60)


_ID_STRIDE = 99
_BRANCHES = {"id": _keys(_ID_STRIDE), "k": _keys(5)}
#: An absent id among the drawn ones that passes both SSTs' bloom filters.
_FALSE_POSITIVE = 5 * _ID_STRIDE


@pytest.mark.parametrize("cache_bytes", _CACHE_BYTES)
@pytest.mark.parametrize("kind", ["host", "snapshot", "snapshot+bloom"])
@pytest.mark.parametrize("index_column", sorted(_BRANCHES))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_indexed_join_equals_row_engine(catalogs, index_column, kind,
                                        cache_bytes, data):
    catalog = catalogs[kind]
    entry = _entry(index_column)
    keys = data.draw(_BRANCHES[index_column])
    outer_rows = [{"o.n": n, "o.key": key} for n, key in enumerate(keys)]
    seen = Counter()
    with _counting(LSMTree, seen), _counting(SnapshotView, seen):
        got = _run(PipelineExecutor, catalog, entry, outer_rows, cache_bytes)
    # Secondary seeks reach the primary tree once per distinct record.
    assert all(count == 1 for count in seen.values()), seen
    want = _run(RowPipelineExecutor, catalog, entry, outer_rows, cache_bytes)
    assert got[0] == want[0]        # rows, values and order
    assert got[1] == want[1]        # every WorkCounters field
    assert got[2] == want[2]        # block-cache LRU order
    assert got[1]["index_seeks"] == sum(key is not None for key in keys)


def test_drawn_keys_include_bloom_false_positives(catalogs):
    # The property above is only as strong as its inputs: of the absent
    # ids it draws, some must pass a bloom filter and be charged a block
    # they are not in, and some must be turned away.
    table = catalogs["host"].table("inner")
    charged = []
    for absent in range(_ID_STRIDE, 13 * _ID_STRIDE, 2 * _ID_STRIDE):
        stats = ReadStats()
        assert table.get_record(absent, stats=stats) is None
        charged.append(stats.data_blocks_read)
    assert any(charged) and not all(charged)
    stats = ReadStats()
    table.get_record(_FALSE_POSITIVE, stats=stats)
    assert stats.data_blocks_read == 2 and not stats.bloom_negatives


@pytest.mark.parametrize("cache_bytes", _CACHE_BYTES)
@pytest.mark.parametrize("kind", ["host", "snapshot", "snapshot+bloom"])
def test_replay_reproduces_every_read_stats_field(catalogs, kind,
                                                  cache_bytes):
    table = catalogs[kind].table("inner")
    seeks = [
        lambda stats: table.get_record(14, stats=stats),        # present
        lambda stats: table.get_record(_FALSE_POSITIVE, stats=stats),
        lambda stats: tuple(table.index_lookup_raw("k", 6, stats=stats)),
        lambda stats: tuple(table.index_lookup_raw("k", 7, stats=stats)),
    ]

    def fresh():
        return ReadStats(
            cache=BlockCache(cache_bytes) if cache_bytes else None)

    walked, replayed = fresh(), fresh()
    traces = []
    for seek in seeks:
        with ReadTrace(replayed) as trace:
            got = seek(replayed)
        assert got == seek(walked)
        traces.append(trace)
    assert replayed == walked
    # Again, in another order, against whatever the cache now holds.
    for seek, trace in reversed(list(zip(seeks, traces))):
        seek(walked)
        trace.replay(replayed)
    assert replayed == walked       # dataclass equality: every field
    assert walked.bytes_read and walked.key_comparisons
    if cache_bytes:
        assert list(replayed.cache._entries) == list(walked.cache._entries)
        assert replayed.cache.hits == walked.cache.hits
        assert replayed.cache.misses == walked.cache.misses
