"""Full scans read each table once per tree version ≡ the row engine.

BNLJ, GHJ and NLJ read their inner table through one memoised side
(``PipelineExecutor._inner_side``), and a driving full scan reads
through the same memo: a full scan is walked once per tree version
under a :class:`~repro.lsm.store.ReadTrace` and replayed for every
other read, its records are decoded once per alias and columns and
keyed once per set of join columns, a stage filter's mask is kept per
filter (the selection and projection are applied per call), and the
probe is numpy (``docs/engine.md``).  Nothing observable may change:
rows in order, the full :class:`WorkCounters` dict and the block
cache's LRU facts must equal the row-at-a-time reference
(``tests/rowref.py``), which really rescans the table per read and
probes Python dicts — on the live trees, through device snapshots and
through a split's pinned host fragment, before and after every kind of
write.
"""

import gc
import weakref
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partition import TableShard
from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import (_MASKS_PER_SCAN, PipelineConfig,
                                   PipelineExecutor)
from repro.engine.stacks import Stack, StackRunner
from repro.lsm.column_family import KVDatabase
from repro.lsm.snapshot import SharedState, SnapshotView
from repro.lsm.store import LSMTree, WriteBatch
from repro.query.ast import ColumnRef, Comparison, Like, Literal
from repro.query.logical import JoinEdge
from repro.query.physical import AccessPath, JoinAlgorithm, TableAccess
from repro.relational.catalog import Catalog
from repro.relational.encoding import RecordCodec
from repro.relational.schema import TableSchema, char_col, int_col
from repro.relational.snapshot_table import SnapshotCatalog
from repro.storage.flash import FlashDevice
from repro.storage.topology import Topology
from tests.conftest import MINI_JOIN_SQL, small_lsm_config
from tests.rowref import RowPipelineExecutor

_BLOCK = 2048
_SCAN_JOINS = (JoinAlgorithm.BNLJ, JoinAlgorithm.GHJ, JoinAlgorithm.NLJ)
#: CHAR join keys: a prefix of another, one that only a trailing blank
#: (which CHAR storage trims) tells apart, and the empty string.
_TAGS = ("a", "b", "ab", "", "a ")

#: No secondary index: every join on these tables is a scan join.
_INNER = TableSchema(
    "inner",
    (int_col("id", False), int_col("k"), int_col("grp"), char_col("tag", 8),
     char_col("note", 16)),
    "id")
_VOID = TableSchema("void", _INNER.columns, "id")


def _inner_row(i):
    """Keys repeat (``k`` over 9 values, ``tag`` over 4) and are NULL
    now and then, on both key columns."""
    return {"id": i, "k": None if i % 11 == 0 else i % 9, "grp": i % 3,
            "tag": None if i % 13 == 0 else _TAGS[i % 4],
            "note": f"note {i % 7}"}


def _database():
    return KVDatabase(flash=FlashDevice(),
                      default_config=small_lsm_config(block_size=_BLOCK))


#: Stage shapes at one tree version: the second differs from the first
#: only in its filter and the third only in its projection.  All three
#: decode the same columns and so share one keyed side, which must not
#: keep one stage's filter or projection for the next.
_SHAPES = (
    (Comparison("<", ColumnRef("i", "grp"), Literal(2)), ("id", "note")),
    (Comparison("<", ColumnRef("i", "grp"), Literal(1)), ("id", "note")),
    (Comparison("<", ColumnRef("i", "grp"), Literal(2)),
     ("id", "note", "grp")),
    (None, ("tag",)),
)


def _entry(algorithm, columns, shape=_SHAPES[0], table="inner"):
    local_filter, projection = shape
    return TableAccess(
        alias="i", table_name=table, local_filter=local_filter,
        projection=tuple(projection),
        join_edges=tuple(JoinEdge("o", column, "i", column)
                         for column in columns),
        join_algorithm=algorithm,
        projection_bytes=24, projection_field_count=2)


def _outer_batch(rows, names, unicode):
    """The seed batch: ``from_rows`` (``object`` string columns), or with
    string columns as numpy unicode arrays, as a decoded stage has."""
    batch = ColumnBatch.from_rows(rows, names=names)
    if not unicode:
        return batch
    cols = {}
    for name in names:
        values, null = batch.column(name)
        if values.dtype.kind == "O":
            values = values.astype(str)
        cols[name] = (values, null)
    return ColumnBatch.from_columns(names, cols, len(rows))


def _run(executor_cls, catalog, entry, outer_rows, names=("o.n", "o.id"),
         cache_bytes=4 * _BLOCK, buffer_bytes=1 << 20, unicode=False):
    counters = WorkCounters()
    executor = executor_cls(
        catalog, PipelineConfig(block_cache_bytes=cache_bytes,
                                join_buffer_bytes=buffer_bytes), counters)
    rows = [{name: row[name] for name in names if name in row}
            for row in outer_rows]
    seed = rows
    if executor_cls is PipelineExecutor:
        seed = _outer_batch(rows, list(names), unicode)
    result, _row_bytes = executor.run(
        [entry], {"i": entry.table_name}, input_rows=seed,
        input_row_bytes=16, input_aliases=("o",))
    rows = result.rows() if isinstance(result, ColumnBatch) else result
    return rows, counters.as_dict(), _cache_facts(executor.block_cache)


def _cache_facts(cache):
    """LRU order (oldest first) and the counters beside it."""
    if cache is None:
        return None
    return cache.lru_state(), cache.hits, cache.misses, cache.used_bytes


def _equal_to_row_engine(catalog, entry, outer_rows, **kwargs):
    got, want = (_run(cls, catalog, entry, outer_rows, **kwargs)
                 for cls in (PipelineExecutor, RowPipelineExecutor))
    assert got[0] == want[0]        # rows, values and order
    assert got[1] == want[1]        # every WorkCounters field
    assert got[2] == want[2]        # LRU order, hits, misses, used bytes
    return got


# ----------------------------------------------------------------------
# The numpy probe, against the row engine's dicts
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def catalogs():
    """``inner`` (two SSTs and a memtable) and the empty ``void``, seen
    live and through a device snapshot."""
    database = _database()
    catalog = Catalog(database)
    catalog.create_table(_INNER)
    catalog.create_table(_VOID)
    table = catalog.table("inner")
    for i in range(150):
        table.insert(_inner_row(i))
        if i in (49, 99):
            catalog.flush_all()
    families = (table.column_families()
                + catalog.table("void").column_families())
    state = SharedState.capture(database, families)
    return {"host": catalog,
            "snapshot": SnapshotCatalog(catalog, state, {"inner", "void"})}


_KEY_COLUMNS = (("k",), ("tag",), ("k", "tag"), ("tag", "k"))
_OUTER_KEYS = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    st.one_of(st.none(), st.sampled_from(_TAGS + ("zz",))))


@pytest.mark.parametrize("columns", _KEY_COLUMNS)
@pytest.mark.parametrize("algorithm", _SCAN_JOINS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scan_joins_equal_row_engine(catalogs, algorithm, columns, data):
    keys = data.draw(st.lists(_OUTER_KEYS, max_size=30))
    outer_rows = [{"o.n": n, "o.k": k, "o.tag": tag}
                  for n, (k, tag) in enumerate(keys)]
    # An outer without a key column reads it as NULL everywhere.
    missing = data.draw(st.sampled_from((None,) + columns))
    names = tuple(name for name in ("o.n", "o.k", "o.tag")
                  if name != f"o.{missing}")
    _equal_to_row_engine(
        catalogs[data.draw(st.sampled_from(sorted(catalogs)))],
        _entry(algorithm, columns, data.draw(st.sampled_from(_SHAPES)),
               table=data.draw(st.sampled_from(("inner", "void")))),
        outer_rows, names=names,
        # 64 bytes: four 16-byte outer rows a block / GHJ partition.
        buffer_bytes=data.draw(st.sampled_from((64, 1 << 20))),
        cache_bytes=data.draw(st.sampled_from((0, 4 * _BLOCK, 1 << 29))),
        unicode=data.draw(st.booleans()))


def test_many_blocks_and_partitions_keep_pair_order(catalogs):
    # Every outer key repeats, so each block and partition holds pairs
    # of several inner rows, each with several outer partners.
    outer_rows = [{"o.n": n, "o.k": n % 5, "o.tag": _TAGS[n % 3]}
                  for n in range(40)]
    for algorithm in _SCAN_JOINS:
        rows = _equal_to_row_engine(
            catalogs["host"], _entry(algorithm, ("k", "tag")), outer_rows,
            names=("o.n", "o.k", "o.tag"), buffer_bytes=64)[0]
        assert len(rows) > len(outer_rows)


# ----------------------------------------------------------------------
# The memo never outlives its tree version
# ----------------------------------------------------------------------

#: Joined on ``i.id``: rows each write below inserts, updates, deletes
#: or overwrites, rows in the memtable (ids 200 and up) and in both
#: SSTs, absent ids and NULL.
_SOUGHT = [300, 10, 20, 30, 30, 250, 5, 150, None, 10, 999]


def _stale_table():
    """Ids 0–199 in two SSTs, 200–299 unflushed in the memtable."""
    database = _database()
    catalog = Catalog(database)
    catalog.create_table(_INNER)
    table = catalog.table("inner")
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
    # Row 30, now filtered out by ``grp < 2``.
    row = dict(_inner_row(30), grp=2, note="batched")
    table.family.apply_batch(WriteBatch().put(
        table.primary_key_bytes(30), table.codec.encode(row)))


_WRITES = {
    "insert": lambda catalog, table: table.insert(_inner_row(300)),
    "update": lambda catalog, table: table.update(10, {"note": "updated"}),
    "delete": lambda catalog, table: table.delete(20),
    "write batch": _overwrite_in_a_batch,
    "flush": lambda catalog, table: catalog.flush_all(),
    "compaction": _compact,
}


def _joins(catalog):
    """Every scan join and stage shape, each equal to the row engine's."""
    outer_rows = [{"o.n": n, "o.id": key} for n, key in enumerate(_SOUGHT)]
    return [_equal_to_row_engine(catalog, _entry(algorithm, ("id",), shape),
                                 outer_rows)
            for algorithm in _SCAN_JOINS for shape in _SHAPES]


@pytest.mark.parametrize("write", sorted(_WRITES))
def test_scan_memo_never_outlives_its_tree_version(write):
    database, catalog, table = _stale_table()

    def device(state):
        return SnapshotCatalog(catalog, state, {"inner"})

    def capture():
        return SharedState.capture(database, table.column_families())

    before = capture()                  # with a non-empty memtable
    host_first = _joins(catalog)
    device_first = _joins(device(before))
    assert _joins(catalog) == host_first                    # memo hits
    assert _joins(device(before)) == device_first
    _WRITES[write](catalog, table)
    after = capture()
    device_second = _joins(device(after))
    host_second = _joins(catalog)
    assert host_second != host_first    # the write reaches these scans
    assert device_second != device_first
    # Interleaved: a command captured before the write runs after one
    # captured after it, then the live tree and the newer one again.
    assert _joins(device(before)) == device_first
    assert _joins(catalog) == host_second
    assert _joins(device(after)) == device_second


def test_scan_memos_do_not_pin_the_recording_cache():
    database, catalog, table = _stale_table()
    state = SharedState.capture(database, table.column_families())
    for kind in (catalog, SnapshotCatalog(catalog, state, {"inner"})):
        executor = PipelineExecutor(
            kind, PipelineConfig(block_cache_bytes=1 << 29), WorkCounters())
        executor.run([_entry(JoinAlgorithm.BNLJ, ("id",))], {"i": "inner"},
                     input_rows=ColumnBatch.from_rows(
                         [{"o.n": 0, "o.id": 3}], names=["o.n", "o.id"]),
                     input_row_bytes=16, input_aliases=("o",))
        assert kind.table("inner").scan_memo().trace is not None
        cache = weakref.ref(executor.block_cache)
        del executor
        gc.collect()
        assert cache() is None


# ----------------------------------------------------------------------
# Driving full scans read through the same memo
# ----------------------------------------------------------------------

#: Driving filters at one version: the first three differ only in a
#: literal, then a ``%``-only LIKE and a LIKE the regex runs.
_DRIVING_FILTERS = (
    Comparison("<", ColumnRef("o", "grp"), Literal(2)),
    Comparison("<", ColumnRef("o", "grp"), Literal(1)),
    Comparison("<", ColumnRef("o", "grp"), Literal(1.5)),
    Like(ColumnRef("o", "note"), "%te 3%"),
    Like(ColumnRef("o", "note"), "note _", negated=True),
    None,
)


def _driving(local_filter, access_path=AccessPath.FULL_SCAN):
    return TableAccess(
        alias="o", table_name="inner", local_filter=local_filter,
        projection=("id", "k"), access_path=access_path,
        projection_bytes=8, projection_field_count=2)


def _drive(executor_cls, catalog, entries, shard=None,
           cache_bytes=4 * _BLOCK):
    counters = WorkCounters()
    executor = executor_cls(
        catalog, PipelineConfig(block_cache_bytes=cache_bytes), counters)
    result, _row_bytes = executor.run(
        entries, {entry.alias: entry.table_name for entry in entries},
        driving_shard=shard)
    rows = result.rows() if isinstance(result, ColumnBatch) else result
    return rows, counters.as_dict(), _cache_facts(executor.block_cache)


def _drives(catalog):
    """Every driving filter alone and before a scan join of the same
    table, each equal to the row engine's."""
    runs = []
    for local_filter in _DRIVING_FILTERS:
        for entries in ([_driving(local_filter)],
                        [_driving(local_filter),
                         _entry(JoinAlgorithm.BNLJ, ("k",))]):
            got, want = (_drive(cls, catalog, entries)
                         for cls in (PipelineExecutor, RowPipelineExecutor))
            assert got == want      # rows, WorkCounters, LRU facts
            runs.append(got)
    return runs


@pytest.mark.parametrize("write", sorted(_WRITES))
def test_driving_scans_equal_row_engine_across_writes(write):
    database, catalog, table = _stale_table()

    def capture():
        state = SharedState.capture(database, table.column_families())
        # A device command's snapshot and a split's pinned host fragment.
        return (SnapshotCatalog(catalog, state, {"inner"}),
                SnapshotCatalog(catalog, state, {"inner"},
                                use_bloom_filters=True))

    before = capture()
    firsts = [_drives(kind) for kind in (catalog,) + before]
    assert [_drives(kind) for kind in (catalog,) + before] == firsts
    _WRITES[write](catalog, table)
    after = capture()
    seconds = [_drives(kind) for kind in after + (catalog,)]
    assert seconds[-1] != firsts[0]     # the write reaches these scans
    assert [_drives(kind) for kind in before] == firsts[1:]
    assert [_drives(kind) for kind in (catalog,) + after] == (
        seconds[-1:] + seconds[:-1])


def test_filters_differing_in_a_literal_never_share_a_mask():
    _, catalog, table = _stale_table()
    grp, note = ColumnRef("o", "grp"), ColumnRef("o", "note")
    filters = [Comparison("<", grp, Literal(value)) for value in (2, 1, 1.5)]
    filters += [Like(note, pattern) for pattern in ("%e 3", "%e 4")]
    passed = []
    for local_filter in filters:
        entries = [_driving(local_filter)]
        got = _drive(PipelineExecutor, catalog, entries)
        assert got == _drive(RowPipelineExecutor, catalog, entries)
        passed.append({row["o.id"] for row in got[0]})
    below_2, below_1, below_1_5, note_3, note_4 = passed
    assert below_1 < below_2 == below_1_5
    assert note_3 and note_4 and not note_3 & note_4
    masks = table.scan_memo().masks
    assert sorted(masks) == sorted(map(repr, filters))
    assert not any(mask.flags.writeable for mask in masks.values())


def test_a_scan_memo_keeps_the_latest_masks():
    # Literals that change from query to query add a mask each; the
    # memo keeps the latest _MASKS_PER_SCAN, and an evicted filter is
    # evaluated again, to the same rows.
    _, catalog, table = _stale_table()
    grp = ColumnRef("o", "grp")
    filters = [Comparison("<=", grp, Literal(float(i)))
               for i in range(_MASKS_PER_SCAN + 2)]
    for local_filter in filters + filters[:1]:
        entries = [_driving(local_filter)]
        got = _drive(PipelineExecutor, catalog, entries)
        assert got == _drive(RowPipelineExecutor, catalog, entries)
    masks = table.scan_memo().masks
    assert list(masks) == [repr(f) for f in filters[3:] + filters[:1]]


def _walks(seen):
    """Count every LSM scan, live or through a snapshot."""
    stack = ExitStack()
    for cls in (LSMTree, SnapshotView):
        original = cls.scan

        def scan(self, *args, _original=original, **kwargs):
            seen["scans"] += 1
            return _original(self, *args, **kwargs)
        stack.enter_context(mock.patch.object(cls, "scan", scan))
    return stack


@pytest.mark.parametrize("how", ["full scan", "pk range", "range shard",
                                 "hash shard"])
def test_only_unsharded_full_scans_are_replayed(how):
    _, catalog, _ = _stale_table()
    local_filter = Comparison(">", ColumnRef("o", "id"), Literal(40.5))
    entry = _driving(local_filter, AccessPath.PK_RANGE if how == "pk range"
                     else AccessPath.FULL_SCAN)
    shard = {"range shard": TableShard("inner", 0, 2, pk_lo=0, pk_hi=150),
             "hash shard": TableShard("inner", 1, 2, seed=3)}.get(how)
    walks = []
    for _ in range(3):
        seen = Counter()
        with _walks(seen):
            got = _drive(PipelineExecutor, catalog, [entry], shard=shard)
        assert got == _drive(RowPipelineExecutor, catalog, [entry],
                             shard=shard)
        assert got[0]
        walks.append(seen["scans"])
    if how == "full scan":
        assert walks == [1, 0, 0]
    else:
        assert walks == [1, 1, 1]


# ----------------------------------------------------------------------
# A repeated query walks and decodes no inner scan
# ----------------------------------------------------------------------

@pytest.fixture
def noindex_catalog(kv_db):
    """The mini catalog's tables and rows, without secondary indexes."""
    catalog = Catalog(kv_db)
    catalog.create_table(TableSchema(
        "title",
        (int_col("id", False), char_col("title", 32),
         int_col("production_year"), int_col("kind_id")), "id"))
    catalog.create_table(TableSchema(
        "movie_companies",
        (int_col("id", False), int_col("movie_id"),
         int_col("company_type_id"), char_col("note", 40)), "id"))
    catalog.create_table(TableSchema(
        "company_type", (int_col("id", False), char_col("kind", 24)), "id"))
    catalog.table("title").insert_many(
        {"id": i, "title": f"Movie {i}", "production_year": 1950 + i % 70,
         "kind_id": i % 7} for i in range(400))
    catalog.table("movie_companies").insert_many(
        {"id": i, "movie_id": i % 400, "company_type_id": i % 4,
         "note": "(presents)" if i % 5 == 0 else "(co-production)"}
        for i in range(800))
    catalog.table("company_type").insert_many(
        {"id": i, "kind": "production companies" if i == 0 else f"kind{i}"}
        for i in range(4))
    catalog.flush_all()
    return catalog


def _inner_work(seen):
    """Count tree walks and record decodes made for a scan join's inner."""
    inside = []
    stack = ExitStack()
    original_side = PipelineExecutor._inner_side

    def inner_side(self, *args, **kwargs):
        inside.append(True)
        try:
            return original_side(self, *args, **kwargs)
        finally:
            inside.pop()
    stack.enter_context(
        mock.patch.object(PipelineExecutor, "_inner_side", inner_side))
    for cls in (LSMTree, SnapshotView):
        original = cls.scan

        def scan(self, *args, _original=original,
                 _name=f"{cls.__name__}.scan", **kwargs):
            if inside:
                seen[_name] += 1
            return _original(self, *args, **kwargs)
        stack.enter_context(mock.patch.object(cls, "scan", scan))
    original_projector = RecordCodec.batch_projector

    def batch_projector(self, *args, **kwargs):
        build = original_projector(self, *args, **kwargs)

        def counted(raws):
            if inside:
                seen["decodes"] += 1
            return build(raws)
        return counted
    stack.enter_context(
        mock.patch.object(RecordCodec, "batch_projector", batch_projector))
    return stack


@pytest.mark.parametrize("stack, split", [(Stack.NATIVE, None),
                                          (Stack.NDP, None),
                                          (Stack.HYBRID, 1)])
def test_repeated_query_replays_every_inner_scan(noindex_catalog, kv_db,
                                                 flash, stack, split):
    runner = StackRunner(noindex_catalog, kv_db,
                         Topology.single(flash=flash).device,
                         buffer_scale=0.001)
    runs = []
    for _ in range(2):
        seen = Counter()
        with _inner_work(seen):
            report = runner.run(MINI_JOIN_SQL, stack, split_index=split)
        runs.append((report, seen))
    (first, walked), (second, replayed) = runs
    assert walked["LSMTree.scan"] + walked["SnapshotView.scan"] > 0
    assert walked["decodes"] > 0
    assert replayed == Counter()
    assert second.result.rows == first.result.rows
    assert second.device_counters.as_dict() == first.device_counters.as_dict()
    assert second.host_counters.as_dict() == first.host_counters.as_dict()
    assert (second.host_counters.records_evaluated
            + second.device_counters.records_evaluated) > 0
    assert second.total_time == first.total_time


def test_outer_codes_compare_python_values():
    # ``object`` outer strings match the inner's unicode keys, ``object``
    # integers its INT keys; integers never equal strings, as in the row
    # engine's dicts.
    catalog = Catalog(_database())
    catalog.create_table(_INNER)
    catalog.table("inner").insert_many(_inner_row(i) for i in range(1, 9))
    entry = _entry(JoinAlgorithm.BNLJ, ("tag",), _SHAPES[3])
    got = _equal_to_row_engine(
        catalog, entry, [{"o.n": 0, "o.tag": "b"}, {"o.n": 1, "o.tag": "a"}],
        names=("o.n", "o.tag"))
    # Inner rows 1, 4, 5, 8 carry tags b, a, b, a.
    assert [row["o.n"] for row in got[0]] == [0, 1, 0, 1]
    ints = ColumnBatch.from_columns(
        ["o.n", "o.tag"], {"o.n": (np.arange(2), None),
                           "o.tag": (np.array([1, 2]), None)})
    result, _ = PipelineExecutor(catalog, PipelineConfig(),
                                 WorkCounters()).run(
        [entry], {"i": "inner"}, input_rows=ints, input_row_bytes=16,
        input_aliases=("o",))
    assert len(result) == 0
    # ``from_rows`` outers whose first value is a string are ``object``
    # columns (NULLs filled with ""); mixed ones hold ints and strs.
    for outer_rows in ([{"o.n": 0, "o.k": "3"}, {"o.n": 1, "o.k": None},
                        {"o.n": 2, "o.k": ""}],
                       [{"o.n": 0, "o.k": "a"}, {"o.n": 1, "o.k": 3},
                        {"o.n": 2, "o.k": None}, {"o.n": 3, "o.k": 4}]):
        for columns, shape in ((("k",), _SHAPES[3]), (("tag",), _SHAPES[3])):
            keyed = [dict(row, **{"o.tag": row["o.k"]}) for row in outer_rows]
            for algorithm in _SCAN_JOINS:
                rows = _equal_to_row_engine(
                    catalog, _entry(algorithm, columns, shape), keyed,
                    names=("o.n", "o.k", "o.tag"))[0]
                ints = sum(isinstance(row["o.k"], int) for row in keyed)
                if columns == ("k",) and not ints:
                    assert rows == []
                if columns == ("k",) and ints:
                    assert {row["o.k"] for row in rows} == {3, 4}
