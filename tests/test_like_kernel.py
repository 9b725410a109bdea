"""LIKE over unicode columns as numpy string kernels ≡ the row engine.

``eval_mask`` runs a LIKE whose only wildcard is ``%`` over a unicode
(``U``) column as ``np.char`` string kernels; a pattern with ``_``, or a
column of another kind, matches the pattern's regex row by row.  Both
must agree with ``tests/rowref.py::eval_row`` on every row: values
decoded from CHAR storage (which trims trailing blanks), the same
strings as a unicode array that keeps its trailing blanks, and as an
``object`` column; NULLs, empty strings and NOT LIKE included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns import ColumnBatch
from repro.query.ast import ColumnRef, Like
from repro.query.vectorized import eval_mask
from repro.relational.encoding import RecordCodec
from repro.relational.schema import TableSchema, char_col, int_col
from tests.rowref import eval_row

_CODEC = RecordCodec(TableSchema(
    "t", (int_col("id", False), char_col("s", 8)), "id"))
_COLUMN = ColumnRef("t", "s")

#: ``%``-only patterns (the kernels) as often as patterns with ``_``.
_PATTERNS = st.one_of(st.text(alphabet="%a ", max_size=6),
                      st.text(alphabet="%ab ", max_size=7),
                      st.text(alphabet="%_ab ", max_size=7))


def _values(pattern):
    """Lists of values: NULLs, random strings, and the pieces of the
    pattern's literal characters — with a trailing blank too — that a
    kernel overlapping two pieces would wrongly match."""
    letters = pattern.replace("%", "").replace("_", "b")
    pieces = sorted({letters[i:j] + blank for i in range(len(letters) + 1)
                     for j in range(i, len(letters) + 1)
                     for blank in ("", " ")})
    return st.lists(st.one_of(st.none(),
                              st.text(alphabet="ab \n", max_size=8),
                              st.sampled_from(pieces)),
                    max_size=12)


def _expected(expr, values):
    return [eval_row(expr, {"t.s": value}) for value in values]


def _in_memory(values, dtype):
    """``values`` as one column of ``dtype``, NULLs filled with ``""``."""
    null = np.array([value is None for value in values], dtype=bool)
    column = np.array(["" if value is None else value for value in values],
                      dtype=dtype)
    return ColumnBatch.from_columns(
        ["t.s"], {"t.s": (column, null if null.any() else None)},
        len(values))


@given(pattern=_PATTERNS, data=st.data(), negated=st.booleans())
@settings(max_examples=300, deadline=None)
def test_like_equals_row_engine(pattern, data, negated):
    _check(pattern, data.draw(_values(pattern)), negated)


def test_a_tail_overlapping_the_pieces_before_it_matches_nothing():
    _check("a%a", ["a", "aa", "aba", "a a"], False)
    _check("ab%b%ab", ["abab", "abbab", "ab", "abbb ab"], True)


def _check(pattern, values, negated):
    expr = Like(_COLUMN, pattern, negated)
    raws = [_CODEC.encode({"id": i, "s": value})
            for i, value in enumerate(values)]
    decoded = _CODEC.batch_projector(["s"], "t")(raws)
    row = _CODEC.projector(["s"], qualified_prefix="t")
    assert eval_mask(expr, decoded).tolist() == _expected(
        expr, [row(raw)["t.s"] for raw in raws])
    want = _expected(expr, values)
    for dtype in (str, object):
        assert eval_mask(expr, _in_memory(values, dtype)).tolist() == want


def test_percent_patterns_over_unicode_match_no_regex():
    values = ["abc", "cab", "", None, "ab c ", "bca"]
    for pattern in ("", "abc", "%", "ab%", "%b", "%b%", "a%c", "%a%b%"):
        expr = Like(_COLUMN, pattern)
        want = _expected(expr, values)
        object.__setattr__(expr, "_regex", None)    # any regex use raises
        assert eval_mask(expr, _in_memory(values, str)).tolist() == want


def _per_element(method, dtype):
    """An ``np.char`` kernel the way numpy 1.x runs it: the ``str``
    method called per element, its arguments broadcast with the array."""
    def kernel(values, *args):
        columns = np.broadcast_arrays(values, *map(np.asarray, args))
        return np.array([getattr(value, method)(*rest) for value, *rest
                         in zip(*(column.tolist() for column in columns))],
                        dtype=dtype)
    return kernel


def test_kernels_run_per_element_as_numpy_1_does(monkeypatch):
    # pyproject admits numpy 1.24, whose np.char kernels are the str
    # methods per element; the LIKE kernel must hold there too.
    for name, method, dtype in (("startswith", "startswith", bool),
                                ("find", "find", np.intp),
                                ("endswith", "endswith", bool),
                                ("str_len", "__len__", np.intp)):
        monkeypatch.setattr(np.char, name, _per_element(method, dtype))
    values = ["", "a", "aa", "ab", "a b", "ba ", "abab", "abbab", None,
              "b\n", "bab "]
    for pattern in ("", "a", "%", "a%", "%a", "%a%", "a%a", "ab%b%ab",
                    "% a%", "%%b", "%b%a%", "b%"):
        for negated in (False, True):
            _check(pattern, values, negated)
