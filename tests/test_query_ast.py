"""Tests for expression semantics (incl. NULL handling), evaluated by the
row-at-a-time reference ``tests.rowref.eval_row``."""

import pytest

from repro.errors import PlanError
from repro.query.ast import (And, Between, ColumnRef, Comparison, InList,
                             IsNull, Like, Literal, Not, Or, conjuncts,
                             like_to_regex, make_and)
from tests.rowref import eval_row


def col(name):
    return ColumnRef("t", name)


ROW = {"t.a": 5, "t.s": "hello world", "t.n": None}


class TestComparisons:
    def test_numeric(self):
        assert eval_row(Comparison("<", col("a"), Literal(10)), ROW)
        assert not eval_row(Comparison(">", col("a"), Literal(10)), ROW)

    def test_null_compares_false(self):
        assert not eval_row(Comparison("=", col("n"), Literal(5)), ROW)
        assert not eval_row(Comparison("!=", col("n"), Literal(5)), ROW)

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            Comparison("===", col("a"), Literal(1))

    def test_unbound_column_raises(self):
        with pytest.raises(PlanError):
            eval_row(Comparison("=", ColumnRef("x", "y"), Literal(1)), ROW)


class TestLike:
    def test_percent_wildcard(self):
        assert eval_row(Like(col("s"), "%world"), ROW)
        assert eval_row(Like(col("s"), "hello%"), ROW)
        assert eval_row(Like(col("s"), "%lo wo%"), ROW)

    def test_underscore_wildcard(self):
        assert eval_row(Like(col("s"), "hell_ world"), ROW)
        assert not eval_row(Like(col("s"), "hell_world"), ROW)

    def test_regex_metachars_escaped(self):
        row = {"t.s": "a.b(c)"}
        assert eval_row(Like(col("s"), "a.b(c)"), row)
        assert not eval_row(Like(col("s"), "axb(c)"), row)

    def test_negation(self):
        assert eval_row(Like(col("s"), "%mars%", negated=True), ROW)
        assert not eval_row(Like(col("s"), "%world%", negated=True), ROW)

    def test_null_is_false_even_negated(self):
        assert not eval_row(Like(col("n"), "%x%"), ROW)
        assert not eval_row(Like(col("n"), "%x%", negated=True), ROW)

    def test_like_to_regex(self):
        assert like_to_regex("a%b_c").match("aXXXbYc")


class TestOtherPredicates:
    def test_in_list(self):
        assert eval_row(InList(col("a"), (1, 5, 9)), ROW)
        assert not eval_row(InList(col("a"), (2, 3)), ROW)
        assert eval_row(InList(col("a"), (2, 3), negated=True), ROW)

    def test_in_list_null_false(self):
        assert not eval_row(InList(col("n"), (1, 2)), ROW)
        assert not eval_row(InList(col("n"), (1, 2), negated=True), ROW)

    def test_between_inclusive(self):
        assert eval_row(Between(col("a"), Literal(5), Literal(10)), ROW)
        assert eval_row(Between(col("a"), Literal(1), Literal(5)), ROW)
        assert not eval_row(Between(col("a"), Literal(6), Literal(10)), ROW)

    def test_is_null(self):
        assert eval_row(IsNull(col("n")), ROW)
        assert not eval_row(IsNull(col("a")), ROW)
        assert eval_row(IsNull(col("a"), negated=True), ROW)


class TestBooleans:
    def test_and_or_not(self):
        true = Comparison("=", col("a"), Literal(5))
        false = Comparison("=", col("a"), Literal(6))
        assert eval_row(And((true, true)), ROW)
        assert not eval_row(And((true, false)), ROW)
        assert eval_row(Or((false, true)), ROW)
        assert not eval_row(Or((false, false)), ROW)
        assert eval_row(Not(false), ROW)

    def test_conjuncts_flattening(self):
        a = Comparison("=", col("a"), Literal(1))
        b = Comparison("=", col("a"), Literal(2))
        c = Comparison("=", col("a"), Literal(3))
        nested = And((a, And((b, c))))
        assert conjuncts(nested) == [a, b, c]
        assert conjuncts(None) == []
        assert conjuncts(a) == [a]

    def test_make_and(self):
        a = Comparison("=", col("a"), Literal(1))
        assert make_and([]) is None
        assert make_and([a]) is a
        assert isinstance(make_and([a, a]), And)


class TestIntrospection:
    def test_column_refs_collected(self):
        expr = And((
            Comparison("=", col("a"), ColumnRef("s", "b")),
            Like(col("s"), "%x%"),
        ))
        refs = expr.column_refs()
        assert {(r.alias, r.column) for r in refs} == {
            ("t", "a"), ("s", "b"), ("t", "s")}

    def test_aliases(self):
        expr = Comparison("=", col("a"), ColumnRef("other", "b"))
        assert expr.aliases() == {"t", "other"}

    def test_str_representations(self):
        assert str(col("a")) == "t.a"
        assert str(Literal("x")) == "'x'"
        assert "LIKE" in str(Like(col("s"), "%q%"))
        assert "BETWEEN" in str(Between(col("a"), Literal(1), Literal(2)))
