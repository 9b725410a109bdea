"""Seek-once indexed join ≡ the row engine, read for read.

The columnar indexed join walks the LSM once per distinct join key and
replays the recorded :class:`~repro.lsm.store.ReadTrace` for every
repeat, a run of one key in one call that stops touching the cache once
the next replay is provably the last one again (``docs/engine.md``).
Nothing observable may change: rows, the full :class:`WorkCounters`
dict and the block cache's final LRU order, hit and miss counts must
equal the row-at-a-time reference (``tests/rowref.py``), which really
does seek once per outer row — on the host table and on both snapshot
views, with the block cache off, thrashing, and never full.
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
from repro.lsm.sstable import INDEX_BLOCK
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
#: For runs of one key, around the sizes where a trace of two to four
#: blocks (``id``) or of dozens (``k``) stops fitting: a run then settles
#: by either fixed-point rule, or a few replays in.
_RUN_CACHE_BLOCKS = (0, 1, 2, 3, 4, 7, 16, 512 * 1024 * 1024 // _BLOCK)
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
    return rows, counters.as_dict(), _cache_facts(executor.block_cache)


def _cache_facts(cache):
    """LRU order (oldest first) and the counters beside it."""
    if cache is None:
        return None
    return cache.lru_state(), cache.hits, cache.misses, cache.used_bytes


def _counting(cls, seen):
    original = cls.get

    def get(self, key, stats=None):
        seen[key] += 1
        return original(self, key, stats=stats)
    return mock.patch.object(cls, "get", get)


def _key(stride):
    """One outer key out of 15 distinct values, so draws repeat them.

    ``stride`` spreads 13 of them over the column's range, alternating
    present keys with absent ones inside the fence range (odd ids, ``k``
    not a multiple of three); the rest are absent outside it, or NULL.
    """
    return st.one_of(st.none(), st.just(10 ** 6),
                     st.integers(min_value=0, max_value=12).map(
                         lambda n: n * stride))


def _keys(stride):
    """Independent draws: repeats are scattered, runs are short."""
    return st.lists(_key(stride), min_size=1, max_size=60)


def _key_runs(stride):
    """What a left-deep pipeline feeds the join: each key 1–40 times."""
    return st.lists(
        st.tuples(_key(stride), st.integers(min_value=1, max_value=40)),
        min_size=1, max_size=8,
    ).map(lambda runs: [key for key, length in runs for _ in range(length)])


_ID_STRIDE = 99
_STRIDES = {"id": _ID_STRIDE, "k": 5}
#: An absent id among the drawn ones that passes both SSTs' bloom filters.
_FALSE_POSITIVE = 5 * _ID_STRIDE


def _assert_equals_row_engine(catalog, index_column, keys, cache_bytes):
    entry = _entry(index_column)
    outer_rows = [{"o.n": n, "o.key": key} for n, key in enumerate(keys)]
    seen = Counter()
    with _counting(LSMTree, seen), _counting(SnapshotView, seen):
        got = _run(PipelineExecutor, catalog, entry, outer_rows, cache_bytes)
    # Secondary seeks reach the primary tree once per distinct record.
    assert all(count == 1 for count in seen.values()), seen
    want = _run(RowPipelineExecutor, catalog, entry, outer_rows, cache_bytes)
    assert got[0] == want[0]        # rows, values and order
    assert got[1] == want[1]        # every WorkCounters field
    assert got[2] == want[2]        # LRU order, hits, misses, used bytes
    assert got[1]["index_seeks"] == sum(key is not None for key in keys)


@pytest.mark.parametrize("cache_bytes", _CACHE_BYTES)
@pytest.mark.parametrize("kind", ["host", "snapshot", "snapshot+bloom"])
@pytest.mark.parametrize("index_column", sorted(_STRIDES))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_indexed_join_equals_row_engine(catalogs, index_column, kind,
                                        cache_bytes, data):
    keys = data.draw(_keys(_STRIDES[index_column]))
    _assert_equals_row_engine(catalogs[kind], index_column, keys, cache_bytes)


@pytest.mark.parametrize("cache_blocks", _RUN_CACHE_BLOCKS)
@pytest.mark.parametrize("kind", ["host", "snapshot", "snapshot+bloom"])
@pytest.mark.parametrize("index_column", sorted(_STRIDES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_key_runs_equal_row_engine(catalogs, index_column, kind,
                                   cache_blocks, data):
    keys = data.draw(_key_runs(_STRIDES[index_column]))
    _assert_equals_row_engine(catalogs[kind], index_column, keys,
                              cache_blocks * _BLOCK)


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
    assert _cache_facts(replayed.cache) == _cache_facts(walked.cache)


# One to five "bytes" a block, caches of zero to twelve: traces that fit,
# thrash, or carry a block no cache of that size admits.
_BLOCK_IDS = st.integers(min_value=0, max_value=7)
_TOUCH_KEYS = st.lists(_BLOCK_IDS, min_size=1, max_size=12)


def _touch(block_id, sizes):
    kind = INDEX_BLOCK if block_id % 3 == 0 else "blk"
    return (kind, block_id), sizes[block_id]


@given(touched=_TOUCH_KEYS, foreign=_TOUCH_KEYS,
       sizes=st.lists(st.integers(min_value=1, max_value=5),
                      min_size=8, max_size=8),
       capacity=st.integers(min_value=0, max_value=12),
       warmth=st.sampled_from(["cold", "warm", "foreign"]),
       times=st.integers(min_value=0, max_value=50))
@settings(max_examples=300, deadline=None)
def test_replaying_a_run_equals_replaying_it_seek_by_seek(
        touched, foreign, sizes, capacity, warmth, times):
    def prepared():
        cache = BlockCache(capacity)
        stats = ReadStats(cache=cache)
        with ReadTrace(stats) as trace:     # forwards: ``cache`` is warm
            for block_id in touched:
                stats.cache.access(*_touch(block_id, sizes))
        if warmth == "cold":
            cache = BlockCache(capacity)
        elif warmth == "foreign":           # other blocks since, some shared
            for block_id in foreign:
                cache.access(*_touch(block_id + 4, sizes * 2))
        return trace, ReadStats(cache=cache)

    trace, at_once = prepared()
    trace.replay(at_once, times=times)
    trace, one_by_one = prepared()
    for _ in range(times):
        trace.replay(one_by_one)
    assert at_once == one_by_one        # dataclass equality: every field
    assert _cache_facts(at_once.cache) == _cache_facts(one_by_one.cache)
