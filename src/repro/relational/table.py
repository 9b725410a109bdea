"""Relational tables over column families, with secondary indexes.

The primary index stores ``encode_key(pk) -> record bytes`` in the table's
own column family.  Each secondary index is a *separate* column family
whose keys concatenate the encoded secondary value with the primary key
and whose values are empty (metadata only): a lookup first walks the
secondary LSM tree, extracts primary keys, and then seeks each of them in
the primary LSM tree — exactly the MyRocks double-lookup (paper §2.2).

:class:`TableReads` is the one read path, written over a primary tree
and per-column index trees — anything with ``LSMTree``'s ``get(key,
stats)`` / ``scan(lo, hi, stats=)``.  :class:`RelationalTable` reads its
live trees; :class:`~repro.relational.snapshot_table.SnapshotTable`
reads pinned snapshot views the same way.
"""

from dataclasses import replace

import numpy as np

from repro.columns import ColumnBatch, shard_membership
from repro.errors import CatalogError, ReproError, SchemaError
from repro.lsm.store import ReadStats
from repro.relational.encoding import (RecordCodec, composite_key, encode_key,
                                       split_composite_key)
from repro.relational.scan import ScanRequest
from repro.relational.schema import DataType
from repro.relational.statistics import TableStatistics

#: Appended to an encoded secondary value, bounds every composite key
#: that starts with it.
_MAX_PK_SUFFIX = b"\xff" * 9

_FULL_SCAN = ScanRequest()


def _index_key(column, value):
    """The encoded secondary value of ``column`` in an index key."""
    width = column.width if column.dtype is DataType.CHAR else None
    return encode_key(value, width)


class SecondaryIndex:
    """The write side of a secondary index over one column, in its own CF."""

    def __init__(self, table_name, column, family):
        self.table_name = table_name
        self.column = column
        self.family = family

    @property
    def name(self):
        """Index (and column-family) name."""
        return self.family.name

    def insert(self, value, primary_raw):
        """Index a (secondary value, primary key) pair; NULLs are skipped."""
        if value is None:
            return
        self.family.put(composite_key(_index_key(self.column, value),
                                      primary_raw), b"")

    def delete(self, value, primary_raw):
        """Remove an index entry."""
        if value is None:
            return
        self.family.delete(
            composite_key(_index_key(self.column, value), primary_raw))

    def primary_keys_in_range(self, lo=None, hi=None, stats=None):
        """Primary keys for secondary values in [lo, hi]."""
        lo_raw = None if lo is None else _index_key(self.column, lo)
        hi_raw = (None if hi is None
                  else _index_key(self.column, hi) + _MAX_PK_SUFFIX)
        for key, _empty in self.family.scan(lo=lo_raw, hi=hi_raw, stats=stats):
            _secondary, primary_raw = split_composite_key(key)
            yield primary_raw


class ScanMemo:
    """One full scan of a table's primary tree at one version.

    ``trace`` is the scan's :class:`~repro.lsm.store.ReadTrace` and
    ``records`` the record bytes it yielded (both ``None`` until the
    first scan).  The rest is what an executor derives from the records
    alone: ``batches`` the records decoded, by alias and decoded
    columns; ``masks`` a stage filter's outcome over the records, by the
    filter's ``repr`` (the 64 latest); and ``sides`` the keyed inner
    sides of scan joins, by alias, decoded columns and join columns.
    Filled by ``PipelineExecutor``'s full scans, driving and inner; it
    holds no executor's stats or block cache.
    """

    __slots__ = ("trace", "records", "batches", "masks", "sides")

    def __init__(self):
        self.trace = None
        self.records = None
        self.batches = {}
        self.masks = {}
        self.sides = {}


class SeekMemo:
    """The seeks of one column at one set of tree versions.

    ``spans`` maps each sought value to ``(trace, first, count)``: the
    :class:`~repro.lsm.store.ReadTrace` of its walk and the span of the
    records it found in ``records``, the pool of every record the memo's
    seeks found, in discovery order.  Columns are decoded from the pool
    once, per column whichever projection asks, and extended when the
    pool grows (:meth:`gather`).  Filled by ``PipelineExecutor._seek_all``;
    it holds no executor's stats or block cache.
    """

    __slots__ = ("spans", "records", "_codec", "_columns")

    def __init__(self, codec):
        self.spans = {}
        self.records = []
        self._codec = codec
        self._columns = {}      # column name -> _PooledColumn

    def add(self, value, trace, found):
        """Pool the records a walk for ``value`` found; its span."""
        span = self.spans[value] = (trace, len(self.records), len(found))
        self.records.extend(found)
        return span

    def gather(self, names, alias, rows):
        """The pooled records at ``rows`` as a batch of ``alias.name``
        columns, in ``names`` order — what ``batch_projector(names,
        alias)`` decodes from those records.

        The batch is late-bound over the pooled arrays
        (:meth:`ColumnBatch.over`): a column is gathered when read.  A
        pool only writes past the length these ``rows`` reach, or into
        a fresh array when it grows or widens, so later seeks never
        change what the batch reads.
        """
        columns = self._columns
        end = len(self.records)
        stale = {}          # decoded length -> columns decoded that far
        for name in names:
            column = columns.get(name)
            if column is None:
                column = columns[name] = _PooledColumn()
            if column.values is None or column.length < end:
                stale.setdefault(column.length, []).append(name)
        for start, group in stale.items():
            batch = self._codec.batch_projector(group)(
                self.records[start:end])
            for name in group:
                columns[name].extend(*batch.column(name))
        return ColumnBatch.over(
            {f"{alias}.{name}": (columns[name].values, columns[name].mask)
             for name in names}, rows)


class _PooledColumn:
    """One decoded column of a :class:`SeekMemo`'s pool, growable.

    ``values[:length]`` and ``mask[:length]`` (``None`` while no pooled
    value is NULL) hold the decoded records.  The arrays grow by a
    quarter at a time — amortised, a seek call that pools a few records
    does not copy the pool, and little capacity sits unused — and a CHAR
    column's dtype widens to its longest value.
    """

    __slots__ = ("values", "mask", "length")

    def __init__(self):
        self.values = None
        self.mask = None
        self.length = 0

    def extend(self, values, mask):
        """Append the decoded ``(values, mask)`` of newly pooled records."""
        start = self.length
        end = start + len(values)
        if self.values is None:
            self.values, self.mask, self.length = values, mask, end
            return
        dtype = np.result_type(self.values.dtype, values.dtype)
        if end > len(self.values) or dtype != self.values.dtype:
            size = max(end, len(self.values) * 5 // 4)
            grown = np.empty(size, dtype=dtype)
            grown[:start] = self.values[:start]
            self.values = grown
            if self.mask is not None:
                grown = np.zeros(size, dtype=bool)
                grown[:start] = self.mask[:start]
                self.mask = grown
        self.values[start:end] = values
        if mask is not None:
            if self.mask is None:
                self.mask = np.zeros(len(self.values), dtype=bool)
            self.mask[start:end] = mask
        self.length = end


class TableReads:
    """The read API of one table over a primary tree and index trees.

    ``primary`` is the primary tree, ``index_trees`` maps each seekable
    secondary column to its index tree, and ``memos`` is the memo store
    of the base table (see :meth:`memo`).  Subclasses answer two version
    hooks: ``_seek_versions(column)``, the ``(memo key, versions)`` seeks
    on a column share a memo by, or ``None`` for a fresh memo per call,
    and ``_scan_version()``, the primary version full scans share one at.
    """

    def __init__(self, schema, codec, primary, index_trees, memos):
        self.schema = schema
        self.codec = codec
        self._primary = primary
        self._index_trees = index_trees
        self._memos = memos

    @property
    def name(self):
        """Table name."""
        return self.schema.name

    def _decoder(self, columns, qualified_as):
        if columns is None and qualified_as is None:
            return self.codec.decode
        names = columns if columns is not None else self.schema.column_names
        return self.codec.projector(names, qualified_prefix=qualified_as)

    def get_record(self, pk_value, stats=None):
        """Undecoded record bytes for one primary key, or None."""
        return self._primary.get(encode_key(pk_value), stats=stats)

    def get_by_pk(self, pk_value, stats=None, columns=None,
                  qualified_as=None):
        """Fetch one row by primary key, or None.

        ``columns`` limits decoding to the named columns (projection
        pushdown; the record is still read in full from storage).
        ``qualified_as`` emits ``alias.column`` keys for the executor.
        """
        raw = self.get_record(pk_value, stats=stats)
        if raw is None:
            return None
        return self._decoder(columns, qualified_as)(raw)

    def scan_raw(self, request=_FULL_SCAN):
        """Full or PK-range scan yielding undecoded record bytes.

        The table's one scan body: :meth:`scan` and :meth:`scan_batch`
        decode what it yields, so all three read storage alike.
        """
        stats = request.stats if request.stats is not None else ReadStats()
        lo = None if request.pk_lo is None else encode_key(request.pk_lo)
        hi = None if request.pk_hi is None else encode_key(request.pk_hi + 1)
        for _key, raw in self._primary.scan(lo=lo, hi=hi, stats=stats):
            yield raw

    def scan(self, request=_FULL_SCAN):
        """Full or PK-range scan; yields decoded rows.

        ``request.columns`` limits decoding; the record is read in full
        from storage either way — projection saves downstream bytes, not
        I/O, matching the paper's model.
        """
        return map(self._decoder(request.columns, request.qualified_as),
                   self.scan_raw(request))

    def scan_batch(self, request=_FULL_SCAN):
        """Vectorized scan: decode the scanned records into a ColumnBatch.

        A shard clamps the pk bounds before the read, and its membership
        is pruned on the decoded primary-key column, vectorized.
        """
        columns = (list(request.columns) if request.columns is not None
                   else self.schema.column_names)
        build = self.codec.batch_projector(columns, request.qualified_as)
        shard = request.shard
        if shard is None:
            return build(list(self.scan_raw(request)))
        if shard.is_empty:
            return build([])
        pk_lo, pk_hi = shard.clamp(request.pk_lo, request.pk_hi)
        pk = self.schema.primary_key
        if pk not in columns:
            raise ReproError(
                f"{type(self).__name__}.scan_batch(): shard pruning needs "
                f"the primary key among the requested columns")
        batch = build(list(self.scan_raw(
            replace(request, pk_lo=pk_lo, pk_hi=pk_hi))))
        if request.qualified_as:
            pk = f"{request.qualified_as}.{pk}"
        values, _mask = batch.column(pk)
        return batch.select(shard_membership(shard, values))

    def index_lookup(self, column_name, value, stats=None, columns=None,
                     qualified_as=None):
        """Rows with ``column == value`` via the secondary index."""
        return map(self._decoder(columns, qualified_as),
                   self.index_lookup_raw(column_name, value, stats=stats))

    def index_lookup_raw(self, column_name, value, stats=None):
        """Undecoded record bytes with ``column == value`` via the index.

        The table's one seek body: the secondary tree walk, then a
        primary seek per primary key it yields (paper Fig 9).
        """
        tree = self._index_tree(column_name)
        stats = stats if stats is not None else ReadStats()
        prefix = _index_key(self.schema.column(column_name), value)
        for key, _empty in tree.scan(lo=prefix, hi=prefix + _MAX_PK_SUFFIX,
                                     stats=stats):
            secondary_raw, primary_raw = split_composite_key(key)
            if secondary_raw != prefix:
                continue
            raw = self._primary.get(primary_raw, stats=stats)
            if raw is not None:
                yield raw

    def _index_tree(self, column_name):
        try:
            return self._index_trees[column_name]
        except KeyError:
            raise CatalogError(
                f"{self.name}: no secondary index on {column_name!r}"
            ) from None

    def has_index_on(self, column_name):
        """Whether the column can be sought: the primary key or an index."""
        return (column_name == self.schema.primary_key
                or column_name in self._index_trees)

    # ------------------------------------------------------------------
    # Memos
    # ------------------------------------------------------------------
    def memo(self, key, versions, make):
        """The memo kept under ``key``, valid for ``versions``.

        The store is the base table's, shared by the live table and
        every snapshot of it.  One version per key is kept: asking at
        other ``versions`` replaces the memo with ``make()``.
        """
        held = self._memos.get(key)
        if held is None or held[0] != versions:
            held = self._memos[key] = (versions, make())
        return held[1]

    def seek_memo(self, column_name):
        """The :class:`SeekMemo` of seeks on a column.

        A seek's records and charges are fixed by the tree versions it
        reads and by whether it probes bloom filters.  Live seeks get a
        fresh memo, which lives for one ``PipelineExecutor._seek_all``
        call; snapshot seeks share one per bloom flag, column and
        captured versions, decoded columns included.
        """
        if column_name != self.schema.primary_key:
            self._index_tree(column_name)     # CatalogError when absent
        shared = self._seek_versions(column_name)
        if shared is None:
            return SeekMemo(self.codec)
        key, versions = shared
        return self.memo(("seek",) + key, versions,
                         lambda: SeekMemo(self.codec))

    def scan_memo(self):
        """The :class:`ScanMemo` of the primary tree at its version.

        A full scan reads the same components through the live tree and
        through a snapshot at one version — a capture copies the active
        memtable and no memtable read is charged — so both share one
        memo per primary version.
        """
        return self.memo("scan", self._scan_version(), ScanMemo)


class RelationalTable(TableReads):
    """A table stored in a column family, with optional secondary indexes."""

    def __init__(self, schema, database, stats_seed=0):
        self._database = database
        self.family = database.create_column_family(schema.name)
        self.statistics = TableStatistics(schema.name, seed=stats_seed)
        #: Monotone count of applied mutations (inserts/deletes/updates).
        #: Every applied write refreshes ``statistics``, so this doubles
        #: as the table's statistics version — the plan cache keys on
        #: the catalog-wide sum (:meth:`Catalog.statistics_version`) so
        #: refreshed statistics invalidate cached plans.  It is not what
        #: keys memos: a flush or compaction changes what a read
        #: touches without a row write — that is ``LSMTree.version``.
        self.mutation_count = 0
        self.indexes = {}
        for column_name in schema.secondary_indexes:
            family = database.create_column_family(
                f"{schema.name}.idx_{column_name}")
            self.indexes[column_name] = SecondaryIndex(
                schema.name, schema.column(column_name), family)
        super().__init__(
            schema, RecordCodec(schema), self.family.tree,
            {name: index.family.tree for name, index in self.indexes.items()},
            {})

    def _seek_versions(self, column_name):
        """``None``: the live trees may be written between two seek calls."""
        return None

    def _scan_version(self):
        return self.family.tree.version

    @property
    def row_count(self):
        """Number of rows inserted."""
        return self.statistics.row_count

    def column_families(self):
        """Names of every CF this table owns (primary + indexes)."""
        return [self.family.name] + [ix.name for ix in self.indexes.values()]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def primary_key_bytes(self, pk_value):
        """Encoded primary key for a value."""
        return encode_key(pk_value)

    def insert(self, row):
        """Insert a row (mapping of column name -> value)."""
        self.insert_many([row])

    def insert_many(self, rows):
        """Insert rows in order — the table's one write path.

        Each row's puts go out interleaved, primary then each index, as
        row-at-a-time inserts would: every column family shares one flash
        device, so loading one family at a time would reorder flushes
        and compactions and move SST extents.  A row whose primary key
        is unset, repeats within ``rows`` or is already in the table, or
        that the codec rejects, raises :class:`SchemaError` before any
        of its puts; the rows before it stay written and observed.
        """
        rows = list(rows)
        pk = self.schema.primary_key
        put = self.family.tree.put
        get = self.family.tree.get if self.row_count else None
        encode = self.codec.encode
        indexes = [(name, index.insert) for name, index in self.indexes.items()]
        seen = set()
        done = 0
        try:
            for row in rows:
                pk_value = row.get(pk)
                if pk_value is None:
                    raise SchemaError(
                        f"{self.name}: primary key {pk!r} must be set")
                raw_key = encode_key(pk_value)
                if raw_key in seen or (get is not None
                                       and get(raw_key) is not None):
                    raise SchemaError(
                        f"{self.name}: duplicate primary key {pk_value!r}")
                seen.add(raw_key)
                put(raw_key, encode(row))
                for name, index_insert in indexes:
                    index_insert(row.get(name), raw_key)
                done += 1
        finally:
            if done:
                self.statistics.observe_rows(rows[:done])
                self.mutation_count += done

    def delete(self, pk_value):
        """Delete by primary key (also cleans secondary indexes)."""
        raw_key = self.primary_key_bytes(pk_value)
        row = self.get_by_pk(pk_value)
        if row is None:
            return False
        self.family.delete(raw_key)
        for column_name, index in self.indexes.items():
            index.delete(row.get(column_name), raw_key)
        self.mutation_count += 1
        return True

    def update(self, pk_value, changes):
        """Update columns of one row; maintains secondary indexes.

        Returns the new row, or None when the primary key is absent.
        Changing the primary key itself is rejected.
        """
        if self.schema.primary_key in changes:
            raise SchemaError(
                f"{self.name}: cannot update the primary key")
        old_row = self.get_by_pk(pk_value)
        if old_row is None:
            return None
        new_row = dict(old_row)
        for name, value in changes.items():
            self.schema.column(name)     # validates the column exists
            new_row[name] = value
        raw_key = self.primary_key_bytes(pk_value)
        self.family.put(raw_key, self.codec.encode(new_row))
        for column_name, index in self.indexes.items():
            old_value = old_row.get(column_name)
            new_value = new_row.get(column_name)
            if old_value != new_value:
                index.delete(old_value, raw_key)
                index.insert(new_value, raw_key)
        self.mutation_count += 1
        return new_row

    def index_on(self, column_name):
        """The secondary index over a column; raises when absent."""
        self._index_tree(column_name)
        return self.indexes[column_name]

    # ------------------------------------------------------------------
    # Cost-model inputs
    # ------------------------------------------------------------------
    @property
    def record_bytes(self):
        """Bytes of one encoded record (tbl_tbn per row)."""
        return self.codec.record_bytes

    @property
    def total_bytes(self):
        """Approximate total table bytes (tbl_tbn)."""
        return self.row_count * self.record_bytes

    def flush(self):
        """Flush the primary and all index column families."""
        self.family.tree.freeze_and_flush()
        for index in self.indexes.values():
            index.family.tree.freeze_and_flush()

    def __repr__(self):
        return (f"RelationalTable({self.name!r}, rows={self.row_count}, "
                f"indexes={sorted(self.indexes)})")
