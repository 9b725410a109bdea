"""Columnar exchange batches for the vectorized execution engine.

A :class:`ColumnBatch` is the operator exchange type of the execution
pipeline (docs/engine.md): an ordered schema of qualified column names
(``alias.column``), one numpy value array per column, and an optional
null mask.  Operators hand batches to each other instead of lists of
dicts; :meth:`ColumnBatch.rows` is the compatibility view that restores
the dict-row surface (gather-merge diffing, fuzz corpora, report row
samples) with plain Python values.

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
    :meth:`from_rows`, :meth:`empty`, :meth:`concat`); operators derive
    new batches with :meth:`select` / :meth:`take` / :meth:`project` /
    :meth:`merged` and slicing.
    """

    __slots__ = ("_names", "_cols", "_length")

    def __init__(self, names, cols, length):
        self._names = tuple(names)
        self._cols = cols          # name -> (values ndarray, mask|None)
        self._length = length

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
        return cls(names, dict(cols), length)

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
            values = np.concatenate([batch._cols[name][0] for batch in live])
            if any(batch._cols[name][1] is not None for batch in live):
                mask = np.concatenate(
                    [batch._cols[name][1] if batch._cols[name][1] is not None
                     else np.zeros(len(batch), dtype=bool)
                     for batch in live])
            else:
                mask = None
            cols[name] = (values, mask)
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
        return name in self._cols

    def column(self, name):
        """``(values, mask)`` arrays of one column.

        Raises :class:`~repro.errors.PlanError` like
        :meth:`repro.query.ast.ColumnRef.eval` does on an unbound key.
        """
        try:
            return self._cols[name]
        except KeyError:
            raise PlanError(
                f"column {name!r} not bound in batch") from None

    def column_list(self, name):
        """One column as a Python list with ``None`` at null slots."""
        values, mask = self.column(name)
        result = values.tolist()
        if mask is not None:
            for i in np.flatnonzero(mask).tolist():
                result[i] = None
        return result

    def column_list_or_none(self, name):
        """Like :meth:`column_list`, all-``None`` for a missing column
        (the ``row.get(name)`` compatibility semantics)."""
        if name not in self._cols:
            return [None] * self._length
        return self.column_list(name)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def select(self, mask):
        """Rows where the boolean ``mask`` is True, in order.

        An all-true mask returns this batch itself: no caller writes into
        a batch's arrays, so a selection may share them.
        """
        mask = np.asarray(mask, dtype=bool)
        length = int(np.count_nonzero(mask))
        if length == self._length:
            return self
        cols = {name: (values[mask],
                       None if m is None else m[mask])
                for name, (values, m) in self._cols.items()}
        return ColumnBatch(self._names, cols, length)

    def take(self, indices):
        """Rows at ``indices`` (repeats allowed), in index order."""
        idx = np.asarray(indices, dtype=np.intp)
        cols = {name: (values[idx], None if m is None else m[idx])
                for name, (values, m) in self._cols.items()}
        return ColumnBatch(self._names, cols, len(idx))

    def project(self, names):
        """Subset/reorder to the named columns."""
        cols = {name: self.column(name) for name in names}
        return ColumnBatch(tuple(names), cols, self._length)

    def merged(self, other):
        """Horizontal merge with ``dict.update`` semantics.

        Overlapping names keep their original position but take the
        other batch's values — exactly how the row engine's
        ``merged.update(inner)`` behaved.
        """
        if len(other) != self._length:
            raise ReproError("merged() needs batches of equal length")
        names = list(self._names)
        cols = dict(self._cols)
        for name in other._names:
            if name not in cols:
                names.append(name)
            cols[name] = other._cols[name]
        return ColumnBatch(tuple(names), cols, self._length)

    def __getitem__(self, item):
        if isinstance(item, slice):
            length = len(range(*item.indices(self._length)))
            cols = {name: (values[item], None if m is None else m[item])
                    for name, (values, m) in self._cols.items()}
            return ColumnBatch(self._names, cols, length)
        return self.row_at(int(item))

    # ------------------------------------------------------------------
    # Row-compatibility surface
    # ------------------------------------------------------------------
    def row_at(self, index):
        """One row as a dict (schema key order, Python values)."""
        row = {}
        for name in self._names:
            values, mask = self._cols[name]
            if mask is not None and mask[index]:
                row[name] = None
            else:
                value = values[index]
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
