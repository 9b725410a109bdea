"""Retained token-at-a-time reference SQL lexer and parser.

This module preserves the query front end as it was before the one-pass
lexer: a ``re.match`` per token from the current offset, a
:class:`Token` named tuple per token carrying its offset, and a
recursive-descent parser that reads them through ``_peek`` /
``_advance`` / ``_expect`` / ``_accept``.

It is the equivalence baseline :mod:`repro.query.parser` is tested
against (tests/test_parser_oracle.py): over JOB, generated and mutated
SQL, both must produce the same tokens, equal ``ParsedQuery`` values
that render to the same text, and the same ``ParseError`` type,
message and offset.  It builds the live
:class:`~repro.query.parser.SelectItem` and
:class:`~repro.query.parser.ParsedQuery` classes so results compare
with ``==``.  It is not wired into any code path.
"""

import re
from typing import NamedTuple

from repro.errors import ParseError
from repro.query.ast import (Between, ColumnRef, Comparison, InList,
                             IsNull, Like, Literal, Not, Or, make_and)
from repro.query.parser import ParsedQuery, SelectItem

__all__ = ["Token", "parse_query", "tokenize"]


_KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "like", "in", "between",
    "is", "null", "as", "group", "by", "limit", "min", "max", "count",
    "sum", "avg",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<string>'(?:[^'\\]|\\.|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;*])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    """One lexical token."""

    kind: str
    text: str
    position: int


def tokenize(sql):
    """Tokenize SQL text; raises :class:`ParseError` on junk."""
    tokens = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    keywords = _KEYWORDS
    position = 0
    end = len(sql)
    while position < end:
        match = match_at(sql, position)
        if match is None:
            raise ParseError(f"unexpected character {sql[position]!r}",
                             position)
        kind = match.lastgroup
        if kind != "ws":
            text = match.group()
            if (kind == "ident" and "." not in text
                    and text.lower() in keywords):
                kind = "keyword"
                text = text.lower()
            append(Token(kind, text, position))
        position = match.end()
    append(Token("eof", "", end))
    return tokens



class _Parser:
    def __init__(self, sql):
        self._sql = sql
        self._tokens = tokenize(sql)
        self._pos = 0

    # -- token plumbing -------------------------------------------------
    def _peek(self):
        return self._tokens[self._pos]

    def _advance(self):
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind, text=None):
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {token.text!r}", token.position)
        return self._advance()

    def _accept(self, kind, text=None):
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    # -- grammar --------------------------------------------------------
    def parse(self):
        self._expect("keyword", "select")
        items = self._select_list()
        self._expect("keyword", "from")
        tables = self._table_list()
        where = None
        if self._accept("keyword", "where"):
            where = self._or_expr()
        group_by = []
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by.append(self._column_ref())
            while self._accept("punct", ","):
                group_by.append(self._column_ref())
        limit = None
        if self._accept("keyword", "limit"):
            token = self._expect("number")
            if "." in token.text:
                raise ParseError(
                    f"LIMIT must be an integer, found {token.text!r}",
                    token.position)
            limit = int(token.text)
            if limit < 0:
                raise ParseError(
                    f"LIMIT must be non-negative, found {token.text!r}",
                    token.position)
        self._accept("punct", ";")
        self._expect("eof")
        return ParsedQuery(items, tables, where, group_by, limit)

    def _select_list(self):
        items = [self._select_item()]
        while self._accept("punct", ","):
            items.append(self._select_item())
        return items

    def _select_item(self):
        token = self._peek()
        if token.kind == "keyword" and token.text in (
                "min", "max", "count", "sum", "avg"):
            aggregate = self._advance().text
            self._expect("punct", "(")
            if self._accept("punct", "*"):
                expr = "*"
            else:
                expr = self._column_ref()
            self._expect("punct", ")")
            alias = None
            if self._accept("keyword", "as"):
                alias = self._expect("ident").text
            return SelectItem(expr, aggregate=aggregate, alias=alias)
        if self._accept("punct", "*"):
            return SelectItem("*")
        expr = self._column_ref()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        return SelectItem(expr, alias=alias)

    def _table_list(self):
        tables = [self._table_item()]
        while self._accept("punct", ","):
            tables.append(self._table_item())
        return tables

    def _table_item(self):
        name = self._expect("ident").text
        if "." in name:
            raise ParseError(f"qualified table name {name!r} not supported")
        alias = name
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        elif self._peek().kind == "ident" and "." not in self._peek().text:
            alias = self._advance().text
        return name, alias

    def _or_expr(self):
        items = [self._and_expr()]
        while self._accept("keyword", "or"):
            items.append(self._and_expr())
        if len(items) == 1:
            return items[0]
        return Or(tuple(items))

    def _and_expr(self):
        items = [self._not_expr()]
        while self._accept("keyword", "and"):
            items.append(self._not_expr())
        return make_and(items)

    def _not_expr(self):
        if self._accept("keyword", "not"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self):
        if self._accept("punct", "("):
            inner = self._or_expr()
            self._expect("punct", ")")
            return inner
        operand = self._operand()
        token = self._peek()
        negated = False
        if token.kind == "keyword" and token.text == "not":
            self._advance()
            negated = True
            token = self._peek()
        if token.kind == "keyword" and token.text == "like":
            self._advance()
            pattern = self._string_value()
            return Like(operand, pattern, negated=negated)
        if token.kind == "keyword" and token.text == "in":
            self._advance()
            self._expect("punct", "(")
            values = [self._literal_value()]
            while self._accept("punct", ","):
                values.append(self._literal_value())
            self._expect("punct", ")")
            return InList(operand, tuple(values), negated=negated)
        if token.kind == "keyword" and token.text == "between":
            if negated:
                self._advance()
                low = self._operand()
                self._expect("keyword", "and")
                high = self._operand()
                return Not(Between(operand, low, high))
            self._advance()
            low = self._operand()
            self._expect("keyword", "and")
            high = self._operand()
            return Between(operand, low, high)
        if negated:
            raise ParseError("NOT must precede LIKE/IN/BETWEEN here",
                             token.position)
        if token.kind == "keyword" and token.text == "is":
            self._advance()
            is_negated = bool(self._accept("keyword", "not"))
            self._expect("keyword", "null")
            return IsNull(operand, negated=is_negated)
        op_token = self._expect("op")
        right = self._operand()
        return Comparison(op_token.text, operand, right)

    def _operand(self):
        token = self._peek()
        if token.kind == "ident":
            return self._column_ref()
        if token.kind in ("number", "string"):
            return Literal(self._literal_value())
        raise ParseError(f"expected operand, found {token.text!r}",
                         token.position)

    def _column_ref(self):
        token = self._expect("ident")
        if "." in token.text:
            alias, column = token.text.split(".", 1)
            return ColumnRef(alias, column)
        return ColumnRef("", token.text)

    def _literal_value(self):
        token = self._advance()
        if token.kind == "number":
            text = token.text
            return float(text) if "." in text else int(text)
        if token.kind == "string":
            return self._unquote(token.text)
        raise ParseError(f"expected literal, found {token.text!r}",
                         token.position)

    def _string_value(self):
        token = self._expect("string")
        return self._unquote(token.text)

    @staticmethod
    def _unquote(text):
        """Decode a quoted string literal body in one left-to-right pass.

        ``''`` and ``\\'`` decode to a quote and ``\\\\`` to one
        backslash — sequentially, so escapes never overlap (the old
        chained ``str.replace`` mangled a quote preceded by an escaped
        backslash).
        """
        body = text[1:-1]
        out = []
        i = 0
        while i < len(body):
            ch = body[i]
            if ch == "'" and i + 1 < len(body) and body[i + 1] == "'":
                out.append("'")
                i += 2
            elif ch == "\\" and i + 1 < len(body):
                out.append(body[i + 1])
                i += 2
            else:
                out.append(ch)
                i += 1
        return "".join(out)


def parse_query(sql):
    """Parse SQL text into a :class:`ParsedQuery`."""
    return _Parser(sql).parse()
