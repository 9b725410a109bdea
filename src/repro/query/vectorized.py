"""Vectorized predicate evaluation over :class:`~repro.columns.ColumnBatch`.

:func:`eval_mask` maps an expression tree from :mod:`repro.query.ast`
onto a boolean numpy mask, one slot per batch row: SQL three-valued
logic collapses NULL comparisons to False, ``NOT LIKE`` / ``NOT IN``
over NULL stay False, and ``IS [NOT] NULL`` reads the null mask
directly.  Null slots hold filler values (``0`` / ``""``) in the value
arrays; every node masks them out with the column's null mask before
they can influence the result.  A LIKE whose only wildcard is ``%``
runs over a unicode column as numpy string kernels; any other LIKE
matches the pattern's compiled regex row by row.  The tests hold it to
a row-at-a-time reference over dict rows, ``eval_row`` in
``tests/rowref.py``.
"""

import numpy as np

from repro.errors import PlanError
from repro.query.ast import (And, Between, ColumnRef, Comparison, InList,
                             IsNull, Like, Literal, Not, Or, _COMPARATORS)


def _operand(expr, batch):
    """``(values, null_mask)`` for a comparison operand.

    Values are an array for a :class:`ColumnRef`, a Python scalar for a
    :class:`Literal` (``None`` meaning NULL everywhere).
    """
    if isinstance(expr, ColumnRef):
        return batch.column(expr.qualified)
    if isinstance(expr, Literal):
        return expr.value, None
    raise PlanError(
        f"unsupported operand in vectorized predicate: {expr!r}")


def _valid(n, *operands):
    """Mask of rows where every operand is non-null."""
    valid = np.ones(n, dtype=bool)
    for values, mask in operands:
        if values is None:
            return np.zeros(n, dtype=bool)
        if mask is not None:
            valid &= ~mask
    return valid


def _broadcast(raw, n):
    """Normalize a comparator result to an ``(n,)`` bool array.

    Numpy collapses comparisons between incompatible dtypes (an int64
    column against a string literal) to a scalar ``False`` — the same
    outcome Python's ``==`` gives per row — so scalars broadcast.
    """
    arr = np.asarray(raw, dtype=bool)
    if arr.shape != (n,):
        arr = np.broadcast_to(arr, (n,)).copy()
    return arr


def _in_list(values, candidates):
    """Elementwise ``value in candidates`` with Python equality."""
    if values.dtype.kind == "i":
        typed = [v for v in candidates if isinstance(v, (int, float))]
        if not typed:
            return np.zeros(len(values), dtype=bool)
        return np.isin(values, np.array(typed))
    if values.dtype.kind in ("U", "S"):
        typed = [v for v in candidates if isinstance(v, str)]
        if not typed:
            return np.zeros(len(values), dtype=bool)
        return np.isin(values, np.array(typed))
    return np.array([value in candidates for value in values.tolist()],
                    dtype=bool)


def _like_percent(values, pattern):
    """``values LIKE pattern`` over a unicode array, for a pattern whose
    only wildcard is ``%``, as numpy string kernels.

    The pattern's pieces between ``%`` signs must occur in order without
    overlapping: the first at the start, the last at the end, and each
    middle one at its leftmost occurrence after the piece before it —
    leftmost is never worse for the pieces after it.  ``end`` holds,
    per value, where the part matched so far ends.  The kernels are
    ``np.char``'s, which numpy 2 runs as the ``np.strings`` ufuncs and
    numpy 1.24 as the ``str`` methods per element, ``find`` with its
    ``start`` array broadcast.
    """
    if "%" not in pattern:
        return values == pattern
    head, *middle, tail = pattern.split("%")
    matched = np.char.startswith(values, head)
    end = len(head)
    for piece in middle:
        if piece:
            found = np.char.find(values, piece, end)
            matched &= found >= 0
            end = found + len(piece)
    if tail:
        # The tail must fit after the pieces before it, not overlap them.
        matched &= np.char.endswith(values, tail)
        matched &= np.char.str_len(values) - len(tail) >= end
    return matched


def eval_mask(expr, batch):
    """Evaluate ``expr`` over every row of ``batch`` at once.

    Returns a boolean array of ``len(batch)`` slots, slot *i* true
    exactly when row *i* of ``batch.rows()`` satisfies ``expr``.
    """
    n = len(batch)

    if isinstance(expr, Comparison):
        left = _operand(expr.left, batch)
        right = _operand(expr.right, batch)
        valid = _valid(n, left, right)
        if not valid.any():
            return valid
        raw = _COMPARATORS[expr.op](left[0], right[0])
        return valid & _broadcast(raw, n)

    if isinstance(expr, Like):
        values, mask = _operand(expr.operand, batch)
        if values is None:
            return np.zeros(n, dtype=bool)
        if values.dtype.kind == "U" and "_" not in expr.pattern:
            matched = _like_percent(values, expr.pattern)
        else:
            match = expr._regex.match
            matched = np.array(
                [match(str(value)) is not None for value in values.tolist()],
                dtype=bool)
        if expr.negated:
            matched = ~matched
        return matched if mask is None else matched & ~mask

    if isinstance(expr, InList):
        values, mask = _operand(expr.operand, batch)
        if values is None:
            return np.zeros(n, dtype=bool)
        matched = _in_list(values, expr.values)
        if expr.negated:
            matched = ~matched
        return matched if mask is None else matched & ~mask

    if isinstance(expr, Between):
        operand = _operand(expr.operand, batch)
        low = _operand(expr.low, batch)
        high = _operand(expr.high, batch)
        valid = _valid(n, operand, low, high)
        if not valid.any():
            return valid
        return (valid & _broadcast(low[0] <= operand[0], n)
                & _broadcast(operand[0] <= high[0], n))

    if isinstance(expr, IsNull):
        values, mask = _operand(expr.operand, batch)
        if values is None:
            is_null = np.ones(n, dtype=bool)
        elif mask is None:
            is_null = np.zeros(n, dtype=bool)
        else:
            is_null = mask.copy()
        return ~is_null if expr.negated else is_null

    if isinstance(expr, Not):
        return ~eval_mask(expr.operand, batch)

    if isinstance(expr, And):
        result = np.ones(n, dtype=bool)
        for item in expr.items:
            result &= eval_mask(item, batch)
        return result

    if isinstance(expr, Or):
        result = np.zeros(n, dtype=bool)
        for item in expr.items:
            result |= eval_mask(item, batch)
        return result

    raise PlanError(
        f"unsupported expression in vectorized predicate: {expr!r}")
