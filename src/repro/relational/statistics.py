"""Index-sample statistics and selectivity estimation.

MyRocks builds its optimizer statistics from index samples; the paper
explicitly relies on those "standard MySQL techniques" and does NOT inject
optimal selectivities, so estimates are deliberately imperfect (that
imperfection is what Experiment 3 measures).  We mirror the approach: a
bounded reservoir sample of rows per table, with per-column min/max and
distinct counts; predicate selectivity is estimated by evaluating the
predicate over the sample, with smoothing.

The sample is kept as the dict rows it was fed and, for the estimator,
as columns typed like the engine's decoded ones (``int64`` for INT,
numpy unicode for CHAR, ``0`` / ``""`` filler flagged in a null mask).
A column's arrays are built the first time an estimate reads it and
dropped whenever :meth:`TableStatistics.observe_rows` changes the
sample, so every estimate sees the sample as it is.
"""

import random
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.columns import ColumnBatch
from repro.errors import SchemaError

_DEFAULT_SAMPLE = 512
#: Distinct values a column remembers; ``distinct_estimate`` stops there.
_DISTINCT_CAP = 4096


@dataclass
class ColumnStats:
    """Summary statistics of one column."""

    name: str
    n_values: int = 0
    n_nulls: int = 0
    min_value: object = None
    max_value: object = None
    distinct_estimate: int = 0
    _distinct: set = field(default_factory=set, repr=False)

    def observe_many(self, values):
        """Fold a list of values into the summary, as folding them one at
        a time would."""
        present = [value for value in values if value is not None]
        self.n_nulls += len(values) - len(present)
        if not present:
            return
        self.n_values += len(present)
        low, high = min(present), max(present)
        if self.min_value is None or low < self.min_value:
            self.min_value = low
        if self.max_value is None or high > self.max_value:
            self.max_value = high
        distinct = self._distinct
        room = _DISTINCT_CAP - len(distinct)
        if room > 0:
            fresh = set(present)
            fresh -= distinct
            if len(fresh) <= room:
                distinct |= fresh
            else:
                # The cap falls inside this batch: the first ``room`` new
                # values in order get in, as they would one at a time.
                for value in present:
                    if len(distinct) >= _DISTINCT_CAP:
                        break
                    distinct.add(value)
        self.distinct_estimate = max(self.distinct_estimate, len(distinct))


class TableStatistics:
    """Row count, per-column stats, and a reservoir sample of rows."""

    def __init__(self, table_name, sample_size=_DEFAULT_SAMPLE, seed=0):
        if sample_size <= 0:
            raise SchemaError("sample size must be positive")
        self.table_name = table_name
        self.row_count = 0
        self.sample_size = sample_size
        self.sample = []
        self.columns = {}
        self._rng = random.Random(seed)
        self._sample_columns = {}    # column -> (values, mask) of ``sample``

    def observe_row(self, row):
        """Fold one row into counts, column stats, and the reservoir."""
        self.observe_rows([row])

    def observe_rows(self, rows):
        """Fold a list of rows, exactly as folding them one at a time
        would: column stats column by column (a column first seen in a
        later row starts there), then the reservoir row by row, so its
        ``randrange`` draws — and the sample — are the same.
        """
        columns = self.columns
        for name in dict.fromkeys(chain.from_iterable(rows)):
            stats = columns.get(name)
            if stats is None:
                stats = columns[name] = ColumnStats(name)
            stats.observe_many([row[name] for row in rows if name in row])
        sample = self.sample
        size = self.sample_size
        fill = max(0, min(len(rows), size - len(sample)))
        sample.extend(map(dict, rows[:fill]))
        changed = fill > 0
        count = self.row_count + fill
        randrange = self._rng.randrange
        for row in rows[fill:]:
            count += 1
            slot = randrange(count)
            if slot < size:
                sample[slot] = dict(row)
                changed = True
        self.row_count = count
        if changed and self._sample_columns:
            self._sample_columns = {}

    def column(self, name):
        """Stats for one column (empty stats when never observed)."""
        return self.columns.get(name) or ColumnStats(name)

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------
    def sample_batch(self, alias, columns):
        """The sample as a :class:`ColumnBatch` of ``columns``, named
        ``alias.column``.

        The arrays are shared with later calls until the sample changes;
        a column no sampled row carries reads as all-NULL.
        """
        cols = {}
        for name in columns:
            column = self._sample_columns.get(name)
            if column is None:
                column = self._sample_column(name)
                self._sample_columns[name] = column
            cols[f"{alias}.{name}"] = column
        return ColumnBatch(tuple(cols), cols, len(self.sample))

    def _sample_column(self, name):
        """``(values, mask)`` of one column over the sample."""
        values = [row.get(name) for row in self.sample]
        null = [value is None for value in values]
        present = [value for value in values if value is not None]
        if all(isinstance(value, int) for value in present):
            arr = np.array([0 if value is None else value
                            for value in values], dtype=np.int64)
        elif all(isinstance(value, str) for value in present):
            arr = np.array(["" if value is None else value
                            for value in values], dtype=str)
        else:
            raise SchemaError(
                f"{self.table_name}.{name}: sampled values mix types")
        mask = np.array(null, dtype=bool) if any(null) else None
        return arr, mask

    def estimated_rows(self, selectivity):
        """Cardinality from a selectivity, never below one row."""
        return max(1, int(round(self.row_count * selectivity)))
