"""Columnar exchange batches for the vectorized execution engine.

A :class:`ColumnBatch` is the operator exchange type of the execution
pipeline (docs/engine.md): an ordered schema of qualified column names
(``alias.column``), one numpy value array per column, and an optional
null mask.  Operators hand batches to each other instead of lists of
dicts; :meth:`ColumnBatch.rows` is the compatibility view that restores
the dict-row surface (gather-merge diffing, fuzz corpora, report row
samples) with plain Python values.

Late materialisation
--------------------
A batch holds its columns as a few *bases* — dicts of ``(values,
mask)`` arrays decoded once, such as a filtered driving table, a scan
join's decoded inner side or a seek memo's record pool — plus one
``intp`` index vector per base (``None``: the base's rows as they
are).  Each column name maps to the base it comes from.  Deriving a
batch (:meth:`~ColumnBatch.take`, :meth:`~ColumnBatch.select`, slicing)
composes one index vector per base, and :meth:`~ColumnBatch.project` /
:meth:`~ColumnBatch.merged` only re-map names; a column is gathered,
``values[index]``, when :meth:`~ColumnBatch.column` first reads it, and
kept in the batch.  So a join stage that reads one key column gathers
that column, not the width of every row it joined.  No caller writes
into a batch's arrays or into an index vector it passed; a base may
grow past the rows its index vectors reach (a seek memo's pool does),
never below.

Dtype conventions
-----------------
INT columns decode to ``int64`` arrays, CHAR columns to numpy unicode
arrays; null slots hold ``0`` / ``""`` and are flagged in the mask
(``mask is None`` means the column has no nulls).  Batches built from
dict rows (:meth:`ColumnBatch.from_rows`) use ``object`` arrays for
strings — comparison semantics are identical, elementwise.

The schema order of a batch mirrors the key order the row engine's dict
rows had, so ``rows()`` round-trips byte-identically through JSON.
"""

import numpy as np

from repro.errors import PlanError, ReproError


class ColumnBatch:
    """A schema-tagged batch of column arrays (the operator exchange type).

    Construction goes through the classmethods (:meth:`from_columns`,
    :meth:`from_rows`, :meth:`over`, :meth:`empty`, :meth:`concat`);
    operators derive new batches with :meth:`select` / :meth:`take` /
    :meth:`project` / :meth:`merged` and slicing.
    """

    __slots__ = ("_names", "_source", "_bases", "_index", "_cols",
                 "_length")

    def __init__(self, names, cols, length):
        """A batch of the columns ``cols`` (``{name: (values, mask)}``),
        all ``length`` long: one base, read as it is."""
        self._names = tuple(names)
        self._source = dict.fromkeys(self._names, 0)
        self._bases = (cols,)
        self._index = (None,)
        self._cols = cols          # name -> gathered (values, mask|None)
        self._length = length

    @classmethod
    def _late(cls, names, source, bases, index, length, cols=None):
        """A batch of ``names`` whose column ``name`` is row ``index[i]``
        of base ``bases[i]``, ``i = source[name]``; ``cols`` holds the
        columns already gathered at these indices."""
        batch = cls.__new__(cls)
        batch._names = names
        batch._source = source
        batch._bases = bases
        batch._index = index
        batch._cols = {} if cols is None else cols
        batch._length = length
        return batch

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, names, cols, length=None):
        """Build from ``{name: (values, mask)}`` arrays."""
        names = tuple(names)
        if length is None:
            length = len(cols[names[0]][0]) if names else 0
        for name in names:
            values, mask = cols[name]
            if len(values) != length or (mask is not None
                                         and len(mask) != length):
                raise ReproError(
                    f"column {name!r}: array length does not match batch")
        return cls(names, {name: cols[name] for name in names}, length)

    @classmethod
    def over(cls, cols, index):
        """The rows ``index`` of the columns ``cols``, gathered when read.

        ``cols`` maps each name, in schema order, to ``(values, mask)``
        arrays that every entry of ``index`` lies within.
        """
        index = np.asarray(index, dtype=np.intp)
        names = tuple(cols)
        return cls._late(names, dict.fromkeys(names, 0), (cols,), (index,),
                         len(index))

    @classmethod
    def empty(cls):
        """A zero-row, zero-column batch (empty cluster partitions)."""
        return cls((), {}, 0)

    @classmethod
    def from_rows(cls, rows, names=None):
        """Compatibility constructor from a list of dict rows.

        Column order is first-seen key order (matching the dict rows the
        row engine produced).  Intended for seeding a pipeline from
        legacy callers; the hot paths decode straight into columns.
        """
        rows = list(rows)
        if names is None:
            names = []
            seen = set()
            for row in rows:
                for key in row:
                    if key not in seen:
                        seen.add(key)
                        names.append(key)
        cols = {}
        for name in names:
            values = [row.get(name) for row in rows]
            null = [value is None for value in values]
            sample = next((v for v in values if v is not None), None)
            if sample is None or isinstance(sample, (int, np.integer)):
                arr = np.array([0 if v is None else v for v in values],
                               dtype=np.int64)
            else:
                arr = np.array(values, dtype=object)
                if any(null):
                    arr = arr.copy()
                    arr[np.array(null, dtype=bool)] = ""
            mask = np.array(null, dtype=bool) if any(null) else None
            cols[name] = (arr, mask)
        return cls(tuple(names), cols, len(rows))

    @classmethod
    def concat(cls, batches):
        """Vertical concatenation (cluster gather-merge, batch streams).

        Zero-row batches are skipped; all non-empty inputs must share
        one schema.  An all-empty input keeps the first batch's schema.
        Each column of each input is gathered once.
        """
        batches = list(batches)
        live = [batch for batch in batches if len(batch)]
        if not live:
            return batches[0] if batches else cls.empty()
        if len(live) == 1:
            return live[0]
        names = live[0]._names
        for batch in live[1:]:
            if batch._names != names:
                raise ReproError(
                    f"cannot concat batches with different schemas: "
                    f"{names} vs {batch._names}")
        length = sum(len(batch) for batch in live)
        cols = {}
        for name in names:
            parts = [batch.column(name) for batch in live]
            masks = [part[1] for part in parts]
            if all(mask is None for mask in masks):
                mask = None
            else:
                mask = np.concatenate(
                    [np.zeros(len(values), dtype=bool) if part_mask is None
                     else part_mask for (values, part_mask) in parts])
            cols[name] = (np.concatenate([part[0] for part in parts]), mask)
        return cls(names, cols, length)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self):
        """Ordered qualified column names."""
        return self._names

    def __len__(self):
        return self._length

    def __bool__(self):
        return self._length > 0

    def has_column(self, name):
        """Whether the batch carries the named column."""
        return name in self._source

    def column(self, name):
        """``(values, mask)`` arrays of one column, gathered on first read.

        Raises :class:`~repro.errors.PlanError` for an unbound key, as
        the row-at-a-time expression reference does.
        """
        column = self._cols.get(name)
        if column is not None:
            return column
        try:
            position = self._source[name]
        except KeyError:
            raise PlanError(
                f"column {name!r} not bound in batch") from None
        values, mask = self._bases[position][name]
        index = self._index[position]
        if index is not None:
            values = values[index]
            mask = None if mask is None else mask[index]
        column = self._cols[name] = (values, mask)
        return column

    def column_list(self, name):
        """One column as a Python list with ``None`` at null slots."""
        values, mask = self.column(name)
        result = values.tolist()
        if mask is not None:
            for i in np.flatnonzero(mask).tolist():
                result[i] = None
        return result

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def select(self, mask):
        """Rows where the boolean ``mask`` is True, in order.

        An all-true mask returns this batch itself: no caller writes into
        a batch's arrays, so a selection may share them.
        """
        mask = np.asarray(mask, dtype=bool)
        if int(np.count_nonzero(mask)) == self._length:
            return self
        return self.take(np.flatnonzero(mask))

    def take(self, indices):
        """Rows at ``indices`` (repeats allowed), in index order: one
        index composition per base, no column gathered."""
        idx = np.asarray(indices, dtype=np.intp)
        return ColumnBatch._late(
            self._names, self._source, self._bases,
            tuple([idx if index is None else index[idx]
                   for index in self._index]),
            len(idx))

    def project(self, names):
        """Subset/reorder to the named columns."""
        names = tuple(names)
        try:
            source = {name: self._source[name] for name in names}
        except KeyError as missing:
            raise PlanError(f"column {missing.args[0]!r} not bound in "
                            f"batch") from None
        cached = self._cols
        cols = {name: cached[name] for name in names if name in cached}
        return self._rebased(names, source, self._bases, self._index,
                             cols)

    def merged(self, other):
        """Horizontal merge with ``dict.update`` semantics.

        Overlapping names keep their original position but take the
        other batch's values — exactly how the row engine's
        ``merged.update(inner)`` behaved.
        """
        if len(other) != self._length:
            raise ReproError("merged() needs batches of equal length")
        names = list(self._names)
        source = dict(self._source)
        cached = self._cols
        cols = {name: cached[name] for name in self._names
                if name in cached}
        shift = len(self._bases)
        for name in other._names:
            if name not in source:
                names.append(name)
            source[name] = other._source[name] + shift
            column = other._cols.get(name)
            if column is None:
                cols.pop(name, None)
            else:
                cols[name] = column
        return self._rebased(tuple(names), source,
                             self._bases + other._bases,
                             self._index + other._index, cols)

    def _rebased(self, names, source, bases, index, cols):
        """A batch of ``names`` over the bases some name still reads."""
        used = set(source.values())
        if len(used) < len(bases):
            position = {old: new for new, old in enumerate(sorted(used))}
            source = {name: position[old] for name, old in source.items()}
            bases = tuple(bases[old] for old in position)
            index = tuple(index[old] for old in position)
        return ColumnBatch._late(names, source, bases, index, self._length,
                                 cols)

    def materialized(self):
        """This batch with every column gathered, as one base: it keeps
        no other row or column of the bases it was derived from."""
        return ColumnBatch(self._names,
                           {name: self.column(name) for name in self._names},
                           self._length)

    def __getitem__(self, item):
        if isinstance(item, slice):
            rows = range(*item.indices(self._length))
            identity = None
            index = []
            for base_index in self._index:
                if base_index is None:
                    if identity is None:
                        identity = np.arange(rows.start, rows.stop,
                                             rows.step, dtype=np.intp)
                    base_index = identity
                else:
                    base_index = base_index[item]
                index.append(base_index)
            return ColumnBatch._late(self._names, self._source, self._bases,
                                     tuple(index), len(rows))
        return self.row_at(int(item))

    # ------------------------------------------------------------------
    # Row-compatibility surface
    # ------------------------------------------------------------------
    def row_at(self, index):
        """One row as a dict (schema key order, Python values)."""
        row = {}
        for name in self._names:
            position = self._source[name]
            values, mask = self._bases[position][name]
            base_index = self._index[position]
            at = index if base_index is None else base_index[index]
            if mask is not None and mask[at]:
                row[name] = None
            else:
                value = values[at]
                row[name] = value.item() if isinstance(value, np.generic) \
                    else value
        return row

    def rows(self):
        """The dict-row compatibility view (plain Python values)."""
        if not self._names:
            return [{} for _ in range(self._length)]
        lists = [self.column_list(name) for name in self._names]
        names = self._names
        return [dict(zip(names, values)) for values in zip(*lists)]

    def __iter__(self):
        return iter(self.rows())

    def __repr__(self):
        return (f"ColumnBatch({self._length} rows x "
                f"{len(self._names)} cols)")


def shard_membership(shard, pk_values):
    """Boolean mask of which primary keys belong to ``shard``.

    Uses the shard's vectorized ``contains_array`` when it offers one
    (:class:`repro.cluster.TableShard` does), falling back to the scalar
    ``contains`` contract for duck-typed shards.
    """
    contains_array = getattr(shard, "contains_array", None)
    if contains_array is not None:
        return contains_array(pk_values)
    return np.fromiter((shard.contains(value)
                        for value in np.asarray(pk_values).tolist()),
                       dtype=bool, count=len(pk_values))
