"""Snapshot-consistent table reads for on-device execution.

The NDP engine must not read the live LSM trees: nKV's update-aware NDP
(§2.1) pins the database state at invocation time via the shared-state
snapshot.  :class:`SnapshotTable` mirrors the read API of
:class:`~repro.relational.table.RelationalTable` but resolves every
access through :class:`~repro.lsm.snapshot.SnapshotView`s, so host
writes issued after the NDP command was prepared are invisible to the
device — and unflushed MemTable updates shipped with the command are
visible.
"""

from repro.errors import CatalogError
from repro.lsm.snapshot import SnapshotView
from repro.lsm.store import ReadStats
from repro.relational.encoding import encode_key, split_composite_key
from repro.relational.scan import check_scan_args, run_scan_batch
from repro.relational.schema import DataType


class SnapshotTable:
    """Read-only view of one table pinned to a shared-state snapshot."""

    def __init__(self, table, shared_state, use_bloom_filters=False):
        self.schema = table.schema
        self.codec = table.codec
        self.statistics = table.statistics
        self._table = table
        self._use_bloom_filters = use_bloom_filters
        primary = shared_state.family(table.family.name)
        self._primary = SnapshotView(primary,
                                     use_bloom_filters=use_bloom_filters)
        # Per seekable column, the captured (index, primary) versions.
        self._versions = {self.schema.primary_key: (None, primary.version)}
        self._indexes = {}
        for column_name, index in table.indexes.items():
            try:
                family = shared_state.family(index.name)
            except KeyError:
                continue   # index CF not captured -> not usable on device
            self._indexes[column_name] = (
                index.column,
                SnapshotView(family, use_bloom_filters=use_bloom_filters))
            self._versions[column_name] = (family.version, primary.version)

    @property
    def name(self):
        """Table name."""
        return self.schema.name

    # ------------------------------------------------------------------
    # Read API (mirrors RelationalTable)
    # ------------------------------------------------------------------
    def _decoder(self, columns, qualified_as):
        if columns is None and qualified_as is None:
            return self.codec.decode
        names = columns if columns is not None else self.schema.column_names
        return self.codec.projector(names, qualified_prefix=qualified_as)

    def get_by_pk(self, pk_value, stats=None, columns=None,
                  qualified_as=None):
        """Point lookup by primary key against the snapshot."""
        raw = self._primary.get(encode_key(pk_value), stats=stats)
        if raw is None:
            return None
        return self._decoder(columns, qualified_as)(raw)

    def get_by_pk_raw(self, raw_key, stats=None, columns=None,
                      qualified_as=None):
        """Point lookup by encoded primary key."""
        raw = self._primary.get(raw_key, stats=stats)
        if raw is None:
            return None
        return self._decoder(columns, qualified_as)(raw)

    def scan(self, request=None, **kwargs):
        """Full or PK-range scan over the snapshot.

        Takes one :class:`~repro.relational.scan.ScanRequest`, exactly
        like :meth:`RelationalTable.scan`.
        """
        request = check_scan_args("SnapshotTable.scan", request, kwargs)
        return self._scan_rows(request)

    def _scan_rows(self, request):
        stats = request.stats if request.stats is not None else ReadStats()
        lo = None if request.pk_lo is None else encode_key(request.pk_lo)
        hi = None if request.pk_hi is None else encode_key(request.pk_hi + 1)
        decode = self._decoder(request.columns, request.qualified_as)
        for _key, raw in self._primary.scan(lo=lo, hi=hi, stats=stats):
            row = decode(raw)
            if request.predicate is not None and not request.predicate(row):
                continue
            if request.projection is not None:
                row = {name: row.get(name) for name in request.projection}
            yield row

    def scan_batch(self, request=None, **kwargs):
        """Vectorized snapshot scan into a ColumnBatch (see
        :meth:`RelationalTable.scan_batch`)."""
        request = check_scan_args("SnapshotTable.scan_batch", request,
                                  kwargs)
        return run_scan_batch(
            self.codec, self.schema,
            lambda lo, hi, stats: self._primary.scan(lo=lo, hi=hi,
                                                     stats=stats),
            request, "SnapshotTable.scan_batch")

    def scan_raw(self, request=None, **kwargs):
        """Snapshot scan yielding undecoded record bytes."""
        request = check_scan_args("SnapshotTable.scan_raw", request, kwargs)
        return self._scan_raw(request)

    def _scan_raw(self, request):
        stats = request.stats if request.stats is not None else ReadStats()
        lo = None if request.pk_lo is None else encode_key(request.pk_lo)
        hi = None if request.pk_hi is None else encode_key(request.pk_hi + 1)
        for _key, raw in self._primary.scan(lo=lo, hi=hi, stats=stats):
            yield raw

    def get_record(self, pk_value, stats=None):
        """Undecoded record bytes for one primary key, or None."""
        return self._primary.get(encode_key(pk_value), stats=stats)

    def index_lookup(self, column_name, value, stats=None, columns=None,
                     qualified_as=None):
        """Secondary-index lookup through the snapshot (paper Fig 9).

        The secondary LSM view yields primary keys, which are then
        sought in the primary snapshot view — the on-device
        secondary-index flow.
        """
        return map(self._decoder(columns, qualified_as),
                   self.index_lookup_raw(column_name, value, stats=stats))

    def index_lookup_raw(self, column_name, value, stats=None):
        """Undecoded record bytes via the snapshotted secondary index.

        The table's one seek body: the secondary view walk, then a
        primary seek per key it yields.
        """
        column, view = self._index(column_name)
        stats = stats if stats is not None else ReadStats()
        width = column.width if column.dtype is DataType.CHAR else None
        prefix = encode_key(value, width)
        hi = prefix + b"\xff" * 9
        for key, _empty in view.scan(lo=prefix, hi=hi, stats=stats):
            secondary_raw, primary_raw = split_composite_key(key)
            if secondary_raw != prefix:
                continue
            raw = self._primary.get(primary_raw, stats=stats)
            if raw is not None:
                yield raw

    def _index(self, column_name):
        try:
            return self._indexes[column_name]
        except KeyError:
            raise CatalogError(
                f"{self.name}: no snapshotted index on {column_name!r}"
            ) from None

    def seek_memo(self, column_name):
        """The seek memo of every snapshot of this table at these versions.

        A seek through the snapshot reads pinned components, so its
        records and :class:`~repro.lsm.store.ReadTrace` hold for any
        command captured while the trees had the same versions — see
        :meth:`RelationalTable.snapshot_seek_memo`.
        """
        if column_name != self.schema.primary_key:
            self._index(column_name)     # CatalogError when not captured
        return self._table.snapshot_seek_memo(
            self._use_bloom_filters, column_name, self._versions[column_name])

    def scan_memo(self):
        """The full-scan memo at the captured primary version — the
        live tree's while it is at that version too, see
        :meth:`RelationalTable.scan_memo`."""
        return self._table.scan_memo(
            self._versions[self.schema.primary_key][1])

    def has_index_on(self, column_name):
        """Whether the snapshot carries an index on the column."""
        return (column_name == self.schema.primary_key
                or column_name in self._indexes)


class SnapshotCatalog:
    """Catalog facade resolving tables to snapshot views.

    The device pipeline only touches the tables named by its command;
    resolving anything else is an error (the command did not ship state
    for it — execution would not be intervention-free).
    """

    def __init__(self, catalog, shared_state, table_names,
                 use_bloom_filters=False):
        self._tables = {}
        for name in table_names:
            self._tables[name] = SnapshotTable(
                catalog.table(name), shared_state,
                use_bloom_filters=use_bloom_filters)

    def table(self, name):
        """Resolve a snapshotted table."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"table {name!r} is not part of the NDP command's "
                f"shared state") from None
