"""Seek-once indexed join ≡ the row engine, read for read.

The columnar indexed join walks the LSM once per distinct join key and
replays the recorded :class:`~repro.lsm.store.ReadTrace` for every
repeat.  A call queues its runs of one key on one
:class:`~repro.lsm.store.Replays`, which sends only what can change the
cache through it (``docs/engine.md``), and gathers its rows from the
memo's record pool, decoded once per column.
Nothing observable may change: rows, the full :class:`WorkCounters`
dict and the block cache's final LRU order, hit and miss counts must
equal the row-at-a-time reference (``tests/rowref.py``), which really
does seek once per outer row — on the host table and on both snapshot
views, with the block cache off, thrashing, and never full.

On a snapshot the memo outlives the call: every read pinned at the same
tree versions with the same bloom flag — a command's, or a split's host
fragment's — shares it.  The last section checks that each kind of
write moves those versions, that a repeated split walks nothing on
either side and charges the same, and that a kept trace pins no
executor's cache.
"""

import gc
import weakref
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import PipelineConfig, PipelineExecutor
from repro.engine.stacks import Stack, StackRunner
from repro.errors import CatalogError
from repro.lsm.cache import BlockCache
from repro.lsm.column_family import KVDatabase
from repro.lsm.snapshot import SharedState, SnapshotView
from repro.lsm.sstable import INDEX_BLOCK
from repro.lsm.store import LSMTree, ReadStats, ReadTrace, Replays, WriteBatch
from repro.query.ast import ColumnRef, Comparison, Literal
from repro.query.logical import JoinEdge
from repro.query.physical import JoinAlgorithm, TableAccess
from repro.relational.catalog import Catalog
from repro.relational.encoding import RecordCodec
from repro.relational.schema import TableSchema, char_col, int_col
from repro.relational.snapshot_table import SnapshotCatalog
from repro.relational.table import SeekMemo
from repro.storage.flash import FlashDevice
from repro.storage.topology import Topology
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


_INNER = TableSchema(
    "inner",
    (int_col("id", False), int_col("k"), int_col("grp"), char_col("note", 16)),
    "id", ("k",))


def _inner_row(i, id_=None):
    return {"id": 2 * i if id_ is None else id_, "k": 3 * (i % 40),
            "grp": i % 3, "note": f"note {i % 7}"}


def _inner_table():
    """An empty ``inner`` table; two bloom bits per key (see below)."""
    database = KVDatabase(
        flash=FlashDevice(),
        default_config=small_lsm_config(block_size=_BLOCK, bits_per_key=2))
    catalog = Catalog(database)
    catalog.create_table(_INNER)
    return database, catalog, catalog.table("inner")


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
    database, catalog, table = _inner_table()
    for i in range(_ROWS):
        table.insert(_inner_row(i, id_=2 * (i * 7 % _ROWS)))
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
        projection=("id", "note"),
        join_edges=(JoinEdge("o", "key", "i", index_column),),
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


def _seek(stats, blocks, comparisons, sizes):
    """A stand-in seek: a fixed static charge, then its block touches,
    charged as ``SSTable`` charges them."""
    stats.key_comparisons += comparisons
    stats.bloom_probes += 1
    for block_id in blocks:
        key, nbytes = _touch(block_id, sizes)
        if stats.cache is not None and stats.cache.access(key, nbytes):
            stats.cache_hits += 1
        elif key[0] == INDEX_BLOCK:
            stats.index_blocks_read += 1
            stats.bytes_read += nbytes
        else:
            stats.data_blocks_read += 1
            stats.bytes_read += nbytes


@given(seeks=st.lists(st.tuples(_TOUCH_KEYS, st.integers(0, 5)),
                      min_size=1, max_size=4),
       ops=st.lists(st.tuples(st.sampled_from(["run", "run", "walk"]),
                              st.integers(min_value=0, max_value=3),
                              st.integers(min_value=0, max_value=20)),
                    min_size=1, max_size=12),
       sizes=st.lists(st.integers(min_value=1, max_value=5),
                      min_size=8, max_size=8),
       capacity=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
       warmth=st.sampled_from(["cold", "warm", "foreign"]))
@settings(max_examples=300, deadline=None)
def test_queued_runs_equal_replaying_each_run_and_each_seek(
        seeks, ops, sizes, capacity, warmth):
    # What ``_seek_all`` does with one call's runs: queue them on one
    # ``Replays``, flushed before every walk that interrupts them.  It
    # must charge, field for field, and leave the LRU exactly as one
    # ``replay(stats, times)`` per run does, and as seeking every time.
    def prepared():
        cache = None if capacity is None else BlockCache(capacity)
        stats = ReadStats(cache=cache)
        traces = []
        for blocks, comparisons in seeks:
            with ReadTrace(stats) as trace:
                _seek(stats, blocks, comparisons, sizes)
            traces.append(trace)
        if cache is not None and warmth == "cold":
            cache = BlockCache(capacity)
        elif cache is not None and warmth == "foreign":
            for block_id in range(4, 12):
                cache.access(*_touch(block_id, sizes * 2))
        return traces, ReadStats(cache=cache)

    def seek(stats, i):
        _seek(stats, *seeks[i % len(seeks)], sizes)

    traces, queued = prepared()
    replays = Replays(queued)
    for kind, i, times in ops:
        if kind == "walk":
            replays.flush()
            seek(queued, i)
        else:
            replays.add(traces[i % len(traces)], times)
    replays.flush()

    traces, by_run = prepared()
    for kind, i, times in ops:
        if kind == "walk":
            seek(by_run, i)
        else:
            traces[i % len(traces)].replay(by_run, times)

    _traces, by_seek = prepared()
    for kind, i, times in ops:
        for _ in range(1 if kind == "walk" else times):
            seek(by_seek, i)

    assert queued == by_run == by_seek      # every ReadStats field
    assert (_cache_facts(queued.cache) == _cache_facts(by_run.cache)
            == _cache_facts(by_seek.cache))


@pytest.mark.parametrize("capacity, passes", [(5, 1), (4, 2)])
def test_a_trace_fits_when_its_distinct_blocks_do(capacity, passes):
    # Blocks 1, 2, 1: five distinct bytes, though the touches sum to
    # seven.  A cache of exactly five holds the trace, so a run is one
    # pass through the cache (rule 1); one byte less and the run is
    # replayed until the LRU state repeats (rule 2).
    sizes = [1, 2, 3, 1, 1, 1, 1, 1]
    blocks = [1, 2, 1]
    calls = Counter()
    access_all = BlockCache.access_all

    def counting(self, touches):
        calls["access_all"] += 1
        return access_all(self, touches)

    def warmed():
        cache = BlockCache(capacity)
        for block_id in (5, 6, 7):
            cache.access(*_touch(block_id, sizes))
        return ReadStats(cache=cache)

    recorder = ReadStats(cache=BlockCache(capacity))
    with ReadTrace(recorder) as trace:
        _seek(recorder, blocks, 3, sizes)
    assert trace.fits == 5 and trace.nbytes == 7
    queued, by_seek = warmed(), warmed()
    with mock.patch.object(BlockCache, "access_all", counting):
        trace.replay(queued, times=10)
    for _ in range(10):
        _seek(by_seek, blocks, 3, sizes)
    assert calls["access_all"] == passes
    assert queued == by_seek
    assert _cache_facts(queued.cache) == _cache_facts(by_seek.cache)


# ----------------------------------------------------------------------
# The snapshot memo, shared by every command at one set of tree versions
# ----------------------------------------------------------------------

#: Keys the stale-state joins seek, per index column: rows each write
#: below inserts, updates, deletes or overwrites, rows in the memtable
#: (ids 400 and up) and in both SSTs, absent keys (odd ids inside an
#: SST's fences, where the bloom flag decides what is read) and NULL.
_SOUGHT = {
    "id": [600, 10, 10, 20, 30, 30, 500, 501, None, 14, 600,
           15, 51, 151, 201, 255, 333],
    "k": [60, 15, 33, 30, 30, 45, 0, 1, None, 60],
}


def _stale_table():
    """Ids 0–198 in two SSTs, 400–598 unflushed in the memtable."""
    database, catalog, table = _inner_table()
    for i in range(300):
        table.insert(_inner_row(i))
        if i in (99, 199):
            catalog.flush_all()
    return database, catalog, table


def _compact(catalog, table):
    tree = table.family.tree
    compactions = tree.compactor.stats.compactions
    i = 300
    while tree.compactor.stats.compactions == compactions:
        table.insert(_inner_row(i))
        i += 1


def _overwrite_in_a_batch(catalog, table):
    # Row 30 (``k`` unchanged, so the index stays right), now filtered out.
    row = dict(_inner_row(15), grp=2, note="batched")
    table.family.apply_batch(WriteBatch().put(
        table.primary_key_bytes(30), table.codec.encode(row)))


_WRITES = {
    "insert": lambda catalog, table: table.insert(_inner_row(300)),
    "update": lambda catalog, table: table.update(10, {"grp": 0, "k": 33}),
    "delete": lambda catalog, table: table.delete(20),
    "write batch": _overwrite_in_a_batch,
    "flush": lambda catalog, table: catalog.flush_all(),
    "compaction": _compact,
}


def _device_joins(catalog, state, bloom):
    """Device joins over one snapshot, each equal to the row engine's.

    The row engine seeks the snapshot views directly, once per outer
    row, so it is the memo-free answer for that snapshot.
    """
    outcomes = []
    for index_column, keys in _SOUGHT.items():
        outer_rows = [{"o.n": n, "o.key": key} for n, key in enumerate(keys)]
        got, want = (
            _run(cls, SnapshotCatalog(catalog, state, {"inner"},
                                      use_bloom_filters=bloom),
                 _entry(index_column), outer_rows, 4 * _BLOCK)
            for cls in (PipelineExecutor, RowPipelineExecutor))
        assert got == want      # rows, every WorkCounters field, LRU facts
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("bloom", [False, True])
@pytest.mark.parametrize("write", sorted(_WRITES))
def test_shared_memo_never_outlives_its_tree_versions(write, bloom):
    database, catalog, table = _stale_table()

    def capture():
        return SharedState.capture(database, table.column_families())

    before = capture()                  # with a non-empty memtable
    first = _device_joins(catalog, before, bloom)
    assert _device_joins(catalog, before, bloom) == first   # memo hits
    _WRITES[write](catalog, table)
    after = capture()
    second = _device_joins(catalog, after, bloom)
    assert second != first              # the write reaches these seeks
    # Interleaved: a command captured before the write runs after one
    # captured after it, and then the newer one again.
    assert _device_joins(catalog, before, bloom) == first
    assert _device_joins(catalog, after, bloom) == second


def test_bloom_flag_keys_the_shared_memo():
    database, catalog, table = _stale_table()
    state = SharedState.capture(database, table.column_families())
    without = _device_joins(catalog, state, bloom=False)
    assert _device_joins(catalog, state, bloom=True) != without


def test_unsnapshotted_index_raises_catalog_error_through_the_memo():
    database, catalog, table = _stale_table()
    state = SharedState.capture(database, [table.family.name])
    snapshot = SnapshotCatalog(catalog, state, {"inner"})
    with pytest.raises(CatalogError):
        snapshot.table("inner").seek_memo("k")
    with pytest.raises(CatalogError):
        _run(PipelineExecutor, snapshot, _entry("k"),
             [{"o.n": 0, "o.key": 3}], 0)


def _calls(seen):
    """Count ``get``/``scan`` calls on the live trees and snapshot views;
    a bloom-probing view's calls are counted again under ``+bloom``."""
    stack = ExitStack()
    for cls in (LSMTree, SnapshotView):
        for method in ("get", "scan"):
            original = getattr(cls, method)

            def counted(self, *args, _original=original,
                        _name=f"{cls.__name__}.{method}", **kwargs):
                seen[_name] += 1
                if getattr(self, "use_bloom_filters", False):
                    seen[f"{_name}+bloom"] += 1
                return _original(self, *args, **kwargs)
            stack.enter_context(mock.patch.object(cls, method, counted))
    return stack


#: Device side: ``t`` by its secondary index, ``mc`` by an indexed join;
#: host side: ``t2`` by an indexed join on the primary key.
_REUSE_SQL = """SELECT MIN(t.title) AS title, MIN(t2.kind_id) AS kind
FROM title AS t, movie_companies AS mc, title AS t2
WHERE t.production_year = 1999 AND mc.movie_id = t.id
  AND t2.id = mc.movie_id"""


def test_repeated_split_replays_every_device_seek(mini_catalog, kv_db,
                                                  flash):
    """Both halves of a split are pinned to one capture and share the
    snapshot seek memo, so an identical second split walks nothing and
    charges the same; host-only runs still walk the live trees."""
    runner = StackRunner(mini_catalog, kv_db,
                         Topology.single(flash=flash).device,
                         buffer_scale=0.001)

    def run(stack, **kwargs):
        seen = Counter()
        with _calls(seen):
            report = runner.run(_REUSE_SQL, stack, **kwargs)
        return report, seen

    (first, walked), (second, replayed) = (
        run(Stack.HYBRID, split_index=1) for _ in range(2))
    # The device walks unbloomed views, the host fragment bloomed ones.
    assert walked["SnapshotView.get+bloom"] > 0
    assert walked["SnapshotView.get"] > walked["SnapshotView.get+bloom"]
    assert walked["SnapshotView.scan"] and not walked["LSMTree.get"]
    assert not any(replayed.values()), replayed
    assert second.device_counters.index_seeks > 0
    assert second.host_counters.index_seeks > 0
    assert second.result.rows == first.result.rows
    assert second.device_counters.as_dict() == first.device_counters.as_dict()
    assert second.host_counters.as_dict() == first.host_counters.as_dict()
    assert second.total_time == first.total_time
    # Live seeks keep a memo per call: every host-only run walks again.
    for _ in range(2):
        host, seen = run(Stack.NATIVE)
        assert seen["LSMTree.get"] > 0
        assert host.result.rows == first.result.rows


def test_memoised_traces_do_not_pin_the_recording_cache():
    database, catalog, table = _stale_table()
    state = SharedState.capture(database, table.column_families())
    snapshot = SnapshotCatalog(catalog, state, {"inner"})
    executor = PipelineExecutor(
        snapshot, PipelineConfig(block_cache_bytes=512 * 1024 * 1024),
        WorkCounters())
    executor.run([_entry("k")], {"i": "inner"},
                 input_rows=ColumnBatch.from_rows(
                     [{"o.n": 0, "o.key": 3}], names=["o.n", "o.key"]),
                 input_row_bytes=16, input_aliases=("o",))
    assert snapshot.table("inner").seek_memo("k").spans     # a trace is kept
    cache = weakref.ref(executor.block_cache)
    del executor
    gc.collect()
    assert cache() is None


@pytest.mark.parametrize("write", sorted(_WRITES))
def test_the_pool_is_dropped_with_its_memo(write):
    # The memo store keeps one version per key: once a seek at the new
    # versions asks for the memo, the old one — record pool and decoded
    # columns with it — is no longer reachable from any table.
    database, catalog, table = _stale_table()

    def memo(state):
        return SnapshotCatalog(catalog, state, {"inner"}).table(
            "inner").seek_memo("k")

    before = SharedState.capture(database, table.column_families())
    first = _device_joins(catalog, before, bloom=False)
    pooled = memo(before)
    assert pooled.records and pooled.gather(["note"], "i", [0]).rows()
    _WRITES[write](catalog, table)
    after = SharedState.capture(database, table.column_families())
    _device_joins(catalog, after, bloom=False)
    assert memo(after) is not pooled and memo(after).records
    again = memo(before)                # replaces the newer one in turn
    assert again is not pooled and not again.records and not again.spans
    assert _device_joins(catalog, before, bloom=False) == first


# ----------------------------------------------------------------------
# The record pool: decoded once per column, gathered per call
# ----------------------------------------------------------------------

_POOLED = TableSchema(
    "pooled",
    (int_col("id", False), int_col("n"), char_col("s", 6), char_col("t", 3)),
    "id")
#: Multi-byte characters a CHAR(3) cuts in half, and trailing blanks.
_TEXT = st.one_of(st.none(), st.text(alphabet="aé日 z", max_size=4))
_POOL_ROW = st.fixed_dictionaries({
    "n": st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
    "s": _TEXT, "t": _TEXT})


@given(rows=st.lists(_POOL_ROW, max_size=30),
       steps=st.lists(st.tuples(
           st.integers(min_value=0, max_value=8),
           st.lists(st.sampled_from(["id", "n", "s", "t"]), unique=True,
                    min_size=1),
           st.sampled_from(["a", "b"]),
           st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    max_size=12)),
           min_size=1, max_size=6))
@example(    # the first NULL of a column arrives after its first decode
    rows=[{"n": 1, "s": "ab", "t": "日"}, {"n": None, "s": None, "t": None}],
    steps=[(1, ["n", "s", "t"], "a", [0]), (1, ["t", "n"], "b", [0, 1, 0])])
@settings(max_examples=150, deadline=None)
def test_pooled_columns_equal_a_fresh_decode(rows, steps):
    # Stages with other projections and aliases gather from one pool
    # between the seeks that grow it; each gather must equal decoding
    # the gathered records afresh, NULLs and cut characters included.
    codec = RecordCodec(_POOLED)
    raws = [codec.encode(dict(row, id=i)) for i, row in enumerate(rows)]
    memo = SeekMemo(codec)
    for grow, names, alias, picks in steps:
        start = len(memo.records)
        memo.add(len(memo.spans), None, raws[start:start + grow])
        size = len(memo.records)
        picked = np.array([pick % size for pick in picks] if size else [],
                          dtype=np.intp)
        got = memo.gather(names, alias, picked)
        want = codec.batch_projector(names, alias)(
            [memo.records[i] for i in picked.tolist()])
        assert got.schema == want.schema
        for name in want.schema:
            (got_values, got_mask), (want_values, want_mask) = (
                got.column(name), want.column(name))
            assert got_values.dtype.kind == want_values.dtype.kind
            assert got_values.tolist() == want_values.tolist()
            none = np.zeros(len(picked), dtype=bool)
            assert ((none if got_mask is None else got_mask).tolist()
                    == (none if want_mask is None else want_mask).tolist())
        assert got.rows() == want.rows()
