"""Late-bound ColumnBatch ≡ eager column arrays, operation for operation.

A :class:`~repro.columns.ColumnBatch` keeps its columns as bases plus
one index vector per base and gathers a column when it is first read
(``docs/engine.md``).  The property test below runs random chains of
every derivation — ``take`` with repeats and empty indices, ``select``
with all-true and all-false masks, ``project``, ``merged`` with
overlapping names, slicing and ``concat`` — over random INT and CHAR
bases with and without null masks, reading random columns on the way,
and checks every column against an eager reference kept here: the
batch as it was before late materialisation, where every operation
gathers every column at once.

The last test pins the invariant the seek memo's late-bound batches rely
on: a pool only ever writes past the rows existing batches reach, or
into a fresh array, so growing it never changes an earlier batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns import ColumnBatch
from repro.errors import PlanError
from repro.relational.table import SeekMemo

#: Few names, so merged batches overlap.
_NAMES = ("a.x", "a.y", "b.x", "b.y", "c.z")


class _Eager:
    """The reference: every operation gathers every column."""

    def __init__(self, names, cols, length):
        self.names = tuple(names)
        self.cols = cols
        self.length = length

    def take(self, idx):
        return _Eager(self.names, {
            name: (values[idx], None if mask is None else mask[idx])
            for name, (values, mask) in self.cols.items()}, len(idx))

    def select(self, keep):
        if keep.all():
            return self
        return self.take(np.flatnonzero(keep))

    def project(self, names):
        return _Eager(names, {name: self.cols[name] for name in names},
                      self.length)

    def merged(self, other):
        names = list(self.names)
        cols = dict(self.cols)
        for name in other.names:
            if name not in cols:
                names.append(name)
            cols[name] = other.cols[name]
        return _Eager(names, cols, self.length)

    def sliced(self, item):
        return _Eager(self.names, {
            name: (values[item], None if mask is None else mask[item])
            for name, (values, mask) in self.cols.items()},
            len(range(*item.indices(self.length))))

    @staticmethod
    def concat(batches):
        live = [batch for batch in batches if batch.length]
        if not live:
            return batches[0]
        if len(live) == 1:
            return live[0]
        cols = {}
        for name in live[0].names:
            masks = [batch.cols[name][1] for batch in live]
            mask = None
            if any(part is not None for part in masks):
                mask = np.concatenate([
                    np.zeros(batch.length, dtype=bool) if part is None
                    else part for batch, part in zip(live, masks)])
            cols[name] = (np.concatenate([batch.cols[name][0]
                                          for batch in live]), mask)
        return _Eager(live[0].names, cols,
                      sum(batch.length for batch in live))

    def rows(self):
        lists = []
        for name in self.names:
            values, mask = self.cols[name]
            lists.append([None if mask is not None and mask[i]
                          else values[i].item()
                          for i in range(self.length)])
        return [dict(zip(self.names, row)) for row in zip(*lists)] \
            if self.names else [{} for _ in range(self.length)]


@st.composite
def _bases(draw, min_size=0):
    """A base: INT and CHAR columns of one length, masks optional."""
    length = draw(st.integers(min_value=min_size, max_value=6))
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True,
                          min_size=1, max_size=4))
    cols = {}
    for name in names:
        if draw(st.booleans()):
            values = np.array(draw(st.lists(
                st.integers(min_value=-3, max_value=3),
                min_size=length, max_size=length)), dtype=np.int64)
        else:
            values = np.array(draw(st.lists(
                st.text(alphabet="ab日", max_size=3),
                min_size=length, max_size=length)), dtype=str)
            if not length:
                values = np.empty(0, dtype="<U1")
        mask = None
        if draw(st.booleans()):
            mask = np.array(draw(st.lists(st.booleans(), min_size=length,
                                          max_size=length)), dtype=bool)
            values[mask] = 0 if values.dtype.kind == "i" else ""
        cols[name] = (values, mask)
    return cols


def _indices(draw, size, length):
    """``length`` row numbers below ``size`` (repeats allowed)."""
    if not size:
        return np.zeros(0, dtype=np.intp)
    return np.array(draw(st.lists(
        st.integers(min_value=0, max_value=size - 1),
        min_size=length, max_size=length)), dtype=np.intp)


def _start(draw, length=None):
    """A late or eager batch over a fresh base, and its reference."""
    base = draw(_bases(min_size=1 if length else 0))
    size = len(next(iter(base.values()))[0])
    if length is None and draw(st.booleans()):
        return (ColumnBatch.from_columns(list(base), base),
                _Eager(list(base), base, size))
    if length is None:
        length = draw(st.integers(min_value=0, max_value=6))
    idx = _indices(draw, size, length if size else 0)
    return ColumnBatch.over(base, idx), _Eager(list(base), base,
                                               size).take(idx)


def _assert_same(got, want):
    assert got.schema == want.names
    assert len(got) == want.length
    for name in want.names:
        (got_values, got_mask), (want_values, want_mask) = (
            got.column(name), want.cols[name])
        assert got_values.dtype == want_values.dtype
        assert got_values.tolist() == want_values.tolist()
        assert (got_mask is None) == (want_mask is None)
        if want_mask is not None:
            assert got_mask.tolist() == want_mask.tolist()
    for name in set(_NAMES) - set(want.names):
        assert not got.has_column(name)
        with pytest.raises(PlanError):
            got.column(name)
    assert got.rows() == want.rows()
    if want.length:
        assert got[want.length - 1] == want.rows()[-1]


_OPS = ("take", "select", "project", "merged", "slice", "concat")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_late_batches_equal_eager_columns(data):
    draw = data.draw
    batch, want = _start(draw)
    for op in draw(st.lists(st.sampled_from(_OPS), max_size=8)):
        # Reading a column caches it in the batch; the derived batches
        # must not depend on what was read before.
        for name in draw(st.lists(st.sampled_from(want.names), unique=True)
                         if want.names else st.just([])):
            batch.column(name)
        n = want.length
        if op == "take":
            idx = _indices(draw, n, draw(st.integers(0, 8)) if n else 0)
            batch, want = batch.take(idx), want.take(idx)
        elif op == "select":
            keep = np.array(draw(st.one_of(
                st.just([True] * n), st.just([False] * n),
                st.lists(st.booleans(), min_size=n, max_size=n))),
                dtype=bool)
            selected = batch.select(keep)
            assert (selected is batch) == bool(keep.all())
            batch, want = selected, want.select(keep)
        elif op == "project":
            names = tuple(draw(st.lists(st.sampled_from(want.names),
                                        unique=True))) if want.names else ()
            batch, want = batch.project(names), want.project(names)
        elif op == "merged":
            other, other_want = _start(draw, length=n)
            batch, want = batch.merged(other), want.merged(other_want)
        elif op == "slice":
            item = slice(draw(st.integers(-8, 8) | st.none()),
                         draw(st.integers(-8, 8) | st.none()),
                         draw(st.sampled_from([None, 1, 2, -1, -2])))
            batch, want = batch[item], want.sliced(item)
        else:
            pieces = []
            for _ in range(draw(st.integers(1, 3))):
                idx = _indices(draw, n, draw(st.integers(0, 4)) if n else 0)
                pieces.append((batch.take(idx), want.take(idx)))
            batch = ColumnBatch.concat([got for got, _ in pieces])
            want = _Eager.concat([ref for _, ref in pieces])
        _assert_same(batch, want)


class _InferringCodec:
    """Decodes pooled dict records as numpy infers them: a string
    column is as wide as its longest value, so a longer one widens the
    pool's dtype (``RecordCodec`` always decodes a CHAR column's full
    width)."""

    def batch_projector(self, names, qualified_prefix=None):
        def build(records):
            cols = {}
            for name in names:
                values = [record[name] for record in records]
                null = np.array([value is None for value in values])
                filler = 0 if name == "n" else ""
                cols[name] = (np.array([filler if value is None else value
                                        for value in values]),
                              null if null.any() else None)
            return ColumnBatch.from_columns(names, cols, len(records))
        return build


def test_a_gathered_batch_survives_every_kind_of_pool_growth():
    memo = SeekMemo(_InferringCodec())
    records = []
    batches = []            # (late batch, the records it should read)

    def grow(found):
        memo.add(len(memo.spans), None, found)
        records.extend(found)

    def gather(rows):
        rows = np.array(rows, dtype=np.intp)
        batch = memo.gather(["n", "s"], "i", rows)
        batches.append((batch, [records[i] for i in rows.tolist()]))

    def pool():
        column = memo._columns["s"]
        return column.values, column.length

    grow([{"n": i, "s": "ab"} for i in range(8)])
    gather([7, 0, 3, 3])
    values, length = pool()
    assert len(values) == length == 8
    # Reallocation: the pool outgrows its array.
    grow([{"n": 8, "s": "cd"}])
    gather([8, 1, 8])
    grown, length = pool()
    assert grown is not values and len(grown) > length == 9
    # A tail write within capacity: the same array, written past the
    # length every earlier batch reaches.
    grow([{"n": 9, "s": "ef"}])
    gather([9, 2])
    same, _ = pool()
    assert same is grown
    # A wider string and a first NULL: a wider dtype and a new mask.
    grow([{"n": None, "s": "ghijk"}, {"n": 11, "s": None}])
    gather([10, 11, 0])
    wide, _ = pool()
    assert wide.dtype != same.dtype and memo._columns["n"].mask is not None
    # Every batch is read only now, after all the growth.
    for batch, picked in batches:
        assert batch.rows() == [{"i.n": record["n"], "i.s": record["s"]}
                                for record in picked]
        assert batch.column("i.s")[0].dtype.kind == "U"
