"""Snapshot-consistent table reads for both halves of a split.

The NDP engine must not read the live LSM trees: nKV's update-aware NDP
(§2.1) pins the database state at invocation time via the shared-state
snapshot.  :class:`SnapshotTable` shares the read API of
:class:`~repro.relational.table.RelationalTable`
(:class:`~repro.relational.table.TableReads`) but reads through
:class:`~repro.lsm.snapshot.SnapshotView`s, so host writes issued after
the NDP command was prepared are invisible to the device — and unflushed
MemTable updates shipped with the command are visible.  A split's host
fragment reads the capture the command was cut from, so the whole split
sees one state.
"""

from repro.errors import CatalogError
from repro.lsm.snapshot import SnapshotView
from repro.relational.table import TableReads


class SnapshotTable(TableReads):
    """Read-only view of one table pinned to a shared-state snapshot."""

    def __init__(self, table, shared_state, use_bloom_filters=False):
        self.statistics = table.statistics
        self._use_bloom_filters = use_bloom_filters
        primary = shared_state.family(table.family.name)
        # Per seekable column, the captured (index, primary) versions.
        self._versions = {table.schema.primary_key: (None, primary.version)}
        index_trees = {}
        for column_name, index in table.indexes.items():
            try:
                family = shared_state.family(index.name)
            except KeyError:
                continue   # index CF not captured -> not usable on device
            index_trees[column_name] = SnapshotView(
                family, use_bloom_filters=use_bloom_filters)
            self._versions[column_name] = (family.version, primary.version)
        super().__init__(
            table.schema, table.codec,
            SnapshotView(primary, use_bloom_filters=use_bloom_filters),
            index_trees, table._memos)

    def _seek_versions(self, column_name):
        """Seeks share a memo per bloom flag and column, valid for the
        captured (index, primary) versions."""
        return ((self._use_bloom_filters, column_name),
                self._versions[column_name])

    def _scan_version(self):
        return self._versions[self.schema.primary_key][1]


class SnapshotCatalog:
    """Catalog facade resolving tables to snapshot views.

    It resolves only the tables it was built for: for a device
    pipeline the tables its command names, for a split's host fragment
    every table of the query.  Resolving anything else is an error (no
    state was captured for it — a device execution would not be
    intervention-free).  A table's view is built when it is first
    resolved: a host fragment reads only its own tables, and a residual
    the tables it names.
    """

    def __init__(self, catalog, shared_state, table_names,
                 use_bloom_filters=False):
        self._catalog = catalog
        self._shared_state = shared_state
        self._names = frozenset(table_names)
        self._use_bloom_filters = use_bloom_filters
        self._tables = {}

    def table(self, name):
        """Resolve a snapshotted table."""
        held = self._tables.get(name)
        if held is None:
            if name not in self._names:
                raise CatalogError(
                    f"table {name!r} is not part of the captured "
                    f"shared state")
            held = self._tables[name] = SnapshotTable(
                self._catalog.table(name), self._shared_state,
                use_bloom_filters=self._use_bloom_filters)
        return held
