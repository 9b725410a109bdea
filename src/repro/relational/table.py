"""Relational tables over column families, with secondary indexes.

The primary index stores ``encode_key(pk) -> record bytes`` in the table's
own column family.  Each secondary index is a *separate* column family
whose keys concatenate the encoded secondary value with the primary key
and whose values are empty (metadata only): a lookup first walks the
secondary LSM tree, extracts primary keys, and then seeks each of them in
the primary LSM tree — exactly the MyRocks double-lookup (paper §2.2).
"""

from repro.errors import CatalogError, SchemaError
from repro.lsm.store import ReadStats
from repro.relational.encoding import (RecordCodec, composite_key, encode_key,
                                       split_composite_key)
from repro.relational.scan import check_scan_args, run_scan_batch
from repro.relational.schema import DataType
from repro.relational.statistics import TableStatistics


class SecondaryIndex:
    """A secondary index over one column, stored in its own CF."""

    def __init__(self, table_name, column, family):
        self.table_name = table_name
        self.column = column
        self.family = family

    @property
    def name(self):
        """Index (and column-family) name."""
        return self.family.name

    def _value_key(self, value):
        width = self.column.width if self.column.dtype is DataType.CHAR else None
        return encode_key(value, width)

    def insert(self, value, primary_raw):
        """Index a (secondary value, primary key) pair; NULLs are skipped."""
        if value is None:
            return
        self.family.put(composite_key(self._value_key(value), primary_raw),
                        b"")

    def delete(self, value, primary_raw):
        """Remove an index entry."""
        if value is None:
            return
        self.family.delete(
            composite_key(self._value_key(value), primary_raw))

    def primary_keys_for(self, value, stats=None):
        """All primary keys whose row has ``column == value``."""
        prefix = self._value_key(value)
        hi = prefix + b"\xff" * 9
        for key, _empty in self.family.scan(lo=prefix, hi=hi, stats=stats):
            secondary_raw, primary_raw = split_composite_key(key)
            if secondary_raw == prefix:
                yield primary_raw

    def primary_keys_in_range(self, lo=None, hi=None, stats=None):
        """Primary keys for secondary values in [lo, hi]."""
        lo_raw = None if lo is None else self._value_key(lo)
        hi_raw = None if hi is None else self._value_key(hi) + b"\xff" * 9
        for key, _empty in self.family.scan(lo=lo_raw, hi=hi_raw, stats=stats):
            _secondary, primary_raw = split_composite_key(key)
            yield primary_raw


class ScanMemo:
    """One full scan of a table's primary tree at one version.

    ``trace`` is the scan's :class:`~repro.lsm.store.ReadTrace` and
    ``records`` the record bytes it yielded (both ``None`` until the
    first scan); ``sides`` holds what an executor derives from the
    records alone — the decoded, keyed inner sides of scan joins — by
    alias, decoded columns and join columns.  Filled by
    ``PipelineExecutor._inner_side``; it holds no executor's stats or
    block cache.
    """

    __slots__ = ("trace", "records", "sides")

    def __init__(self):
        self.trace = None
        self.records = None
        self.sides = {}


class RelationalTable:
    """A table stored in a column family, with optional secondary indexes."""

    def __init__(self, schema, database, stats_seed=0):
        self.schema = schema
        self.codec = RecordCodec(schema)
        self._database = database
        self.family = database.create_column_family(schema.name)
        self.statistics = TableStatistics(schema.name, seed=stats_seed)
        #: Monotone count of applied mutations (inserts/deletes/updates).
        #: Every applied write refreshes ``statistics``, so this doubles
        #: as the table's statistics version — the plan cache keys on
        #: the catalog-wide sum (:meth:`Catalog.statistics_version`) so
        #: refreshed statistics invalidate cached plans.  It is not what
        #: keys seek memos: a flush or compaction changes what a seek
        #: touches without a row write — that is ``LSMTree.version``.
        self.mutation_count = 0
        # Device seek memos, per (bloom flag, column): the (index,
        # primary) tree versions they were recorded at, and the memo.
        self._snapshot_memos = {}
        # The full-scan memo: the primary tree version it was recorded
        # at, and the ScanMemo.
        self._scan_memo = None
        self.indexes = {}
        for column_name in schema.secondary_indexes:
            column = schema.column(column_name)
            family = database.create_column_family(
                f"{schema.name}.idx_{column_name}")
            self.indexes[column_name] = SecondaryIndex(
                schema.name, column, family)

    @property
    def name(self):
        """Table name."""
        return self.schema.name

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
        pk_value = row.get(self.schema.primary_key)
        if pk_value is None:
            raise SchemaError(
                f"{self.name}: primary key {self.schema.primary_key!r} "
                f"must be set")
        raw_key = self.primary_key_bytes(pk_value)
        raw_record = self.codec.encode(row)
        self.family.put(raw_key, raw_record)
        for column_name, index in self.indexes.items():
            index.insert(row.get(column_name), raw_key)
        self.statistics.observe_row(row)
        self.mutation_count += 1

    def insert_many(self, rows):
        """Bulk insert."""
        for row in rows:
            self.insert(row)

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

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _decoder(self, columns, qualified_as):
        if columns is None and qualified_as is None:
            return self.codec.decode
        names = columns if columns is not None else self.schema.column_names
        return self.codec.projector(names, qualified_prefix=qualified_as)

    def get_by_pk(self, pk_value, stats=None, columns=None,
                  qualified_as=None):
        """Fetch one row by primary key, or None.

        ``columns`` limits decoding to the named columns (projection
        pushdown; the record is still read in full from storage).
        ``qualified_as`` emits ``alias.column`` keys for the executor.
        """
        raw = self.family.get(self.primary_key_bytes(pk_value), stats=stats)
        if raw is None:
            return None
        return self._decoder(columns, qualified_as)(raw)

    def get_by_pk_raw(self, raw_key, stats=None, columns=None,
                      qualified_as=None):
        """Fetch one row by its already-encoded primary key."""
        raw = self.family.get(raw_key, stats=stats)
        if raw is None:
            return None
        return self._decoder(columns, qualified_as)(raw)

    def scan(self, request=None, **kwargs):
        """Full or PK-range scan; yields decoded rows.

        Takes one :class:`~repro.relational.scan.ScanRequest`;
        ``request.predicate`` filters decoded rows, ``request.projection``
        limits the *output* columns, ``request.columns`` limits
        *decoding* (it must cover the projection and every predicate
        column).  Either way the record is read in full from storage —
        projection saves downstream bytes, not I/O, matching the
        paper's model.
        """
        request = check_scan_args("RelationalTable.scan", request, kwargs)
        return self._scan_rows(request)

    def _scan_rows(self, request):
        stats = request.stats if request.stats is not None else ReadStats()
        lo = None if request.pk_lo is None else encode_key(request.pk_lo)
        hi = None if request.pk_hi is None else encode_key(request.pk_hi + 1)
        decode = self._decoder(request.columns, request.qualified_as)
        for _key, raw in self.family.scan(lo=lo, hi=hi, stats=stats):
            row = decode(raw)
            if request.predicate is not None and not request.predicate(row):
                continue
            if request.projection is not None:
                row = {name: row.get(name) for name in request.projection}
            yield row

    def scan_batch(self, request=None, **kwargs):
        """Vectorized scan: decode matching records into a ColumnBatch.

        Storage access (LSM reads, stats) is identical to :meth:`scan`;
        pk-bound clamping and shard-membership pruning happen on the
        decoded primary-key column, vectorized.
        """
        request = check_scan_args("RelationalTable.scan_batch", request,
                                  kwargs)
        return run_scan_batch(
            self.codec, self.schema,
            lambda lo, hi, stats: self.family.scan(lo=lo, hi=hi, stats=stats),
            request, "RelationalTable.scan_batch")

    def scan_raw(self, request=None, **kwargs):
        """Scan yielding undecoded record bytes (batch-decode feeds)."""
        request = check_scan_args("RelationalTable.scan_raw", request, kwargs)
        return self._scan_raw(request)

    def _scan_raw(self, request):
        stats = request.stats if request.stats is not None else ReadStats()
        lo = None if request.pk_lo is None else encode_key(request.pk_lo)
        hi = None if request.pk_hi is None else encode_key(request.pk_hi + 1)
        for _key, raw in self.family.scan(lo=lo, hi=hi, stats=stats):
            yield raw

    def get_record(self, pk_value, stats=None):
        """Undecoded record bytes for one primary key, or None."""
        return self.family.get(self.primary_key_bytes(pk_value), stats=stats)

    def index_lookup(self, column_name, value, stats=None, columns=None,
                     qualified_as=None):
        """Rows with ``column == value`` via the secondary index."""
        return map(self._decoder(columns, qualified_as),
                   self.index_lookup_raw(column_name, value, stats=stats))

    def index_lookup_raw(self, column_name, value, stats=None):
        """Undecoded record bytes with ``column == value`` via the index.

        The table's one seek body: the secondary walk, then a primary
        seek per key it yields.
        """
        index = self.index_on(column_name)
        for primary_raw in index.primary_keys_for(value, stats=stats):
            raw = self.family.get(primary_raw, stats=stats)
            if raw is not None:
                yield raw

    def seek_memo(self, column_name):
        """A fresh ``value -> (ReadTrace, records)`` seek memo.

        The live trees may be written between two seek calls, so a memo
        over them lives for one call (``PipelineExecutor._seek_all``).
        """
        return {}

    def snapshot_seek_memo(self, use_bloom_filters, column_name, versions):
        """The seek memo shared by snapshots pinned at ``versions``.

        ``versions`` are the captured ``(index family, primary family)``
        :attr:`LSMTree.version` stamps (``None`` for the index of a
        primary-key seek); with the bloom flag and the column they fix
        every seek's records, charges and block touches.  One version
        per flag and column is kept: a snapshot at other versions
        replaces it.
        """
        key = (use_bloom_filters, column_name)
        held = self._snapshot_memos.get(key)
        if held is None or held[0] != versions:
            held = self._snapshot_memos[key] = (versions, {})
        return held[1]

    def scan_memo(self, version=None):
        """The :class:`ScanMemo` of the primary tree at ``version``.

        ``version`` defaults to the live tree's :attr:`LSMTree.version`;
        a :class:`SnapshotTable` passes the version it captured.  A full
        scan reads the same components either way — a capture copies the
        active memtable and no memtable read is charged — so the live
        tree and every snapshot at one version share one memo.  Only the
        latest version asked for is kept: any write, flush or compaction
        moves the version and so replaces it.
        """
        if version is None:
            version = self.family.tree.version
        if self._scan_memo is None or self._scan_memo[0] != version:
            self._scan_memo = (version, ScanMemo())
        return self._scan_memo[1]

    def index_on(self, column_name):
        """The secondary index over a column; raises when absent."""
        try:
            return self.indexes[column_name]
        except KeyError:
            raise CatalogError(
                f"{self.name}: no secondary index on {column_name!r}"
            ) from None

    def has_index_on(self, column_name):
        """Whether a secondary index exists on the column."""
        return (column_name == self.schema.primary_key
                or column_name in self.indexes)

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
