"""SQL parser for the JOB subset.

Supported grammar (case-insensitive keywords):

    SELECT item [, item]*           item := agg(expr) [AS name] | col | *
    FROM table [AS] alias [, ...]
    [WHERE or_expr]
    [GROUP BY col [, col]*]
    [LIMIT n]

with predicates =, !=, <>, <, <=, >, >=, [NOT] LIKE, [NOT] IN (...),
BETWEEN ... AND ..., IS [NOT] NULL, combined via AND/OR/NOT and
parentheses — exactly what the Join-Order Benchmark needs.
"""

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ParseError
from repro.query.ast import (Between, ColumnRef, Comparison, InList,
                             IsNull, Like, Literal, Not, Or, make_and)

_KEYWORDS = frozenset({
    "select", "from", "where", "and", "or", "not", "like", "in", "between",
    "is", "null", "as", "group", "by", "limit", "min", "max", "count",
    "sum", "avg",
})
_AGGREGATES = frozenset({"min", "max", "count", "sum", "avg"})

#: One token per match, its text in the group: whitespace before it is
#: skipped, and a character no token starts with is matched alone as
#: junk.  No two token alternatives (ident, punct, op, string, number)
#: can start with the same character, so their order only sets speed
#: (most common first); junk must come last.  Trailing whitespace
#: matches nothing and ends the scan.
_LEX_RE = re.compile(
    r"""
    \s*(
      [A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?
    | [(),;*]
    | <=|>=|!=|<>|=|<|>
    | '(?:[^'\\]|\\.|'')*'
    | -?\d+(?:\.\d+)?
    | \S
    )""",
    re.VERBOSE,
)
_DIGIT_RE = re.compile(r"\d")
_PUNCT = frozenset("(),;*")

#: A token's tag from its first character, where that alone tells: an
#: ident (a keyword once lower-cased), a number, an operator, or the
#: punctuation character itself.  Other first characters (``'``, ``-``,
#: ``!`` and non-ASCII) go through :func:`_rare_tag`.
_TAG_BY_FIRST = {
    **{ch: "ident" for ch in
       "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"},
    **{ch: "number" for ch in "0123456789"},
    **{ch: "op" for ch in "<>="},
    **{ch: ch for ch in _PUNCT},
}


class Token(NamedTuple):
    """One lexical token."""

    kind: str
    text: str
    position: int


def _rare_tag(text):
    """Tag of a token starting with ``'``, ``-``, ``!`` or non-ASCII."""
    first = text[0]
    if len(text) > 1:
        # Only these alternatives match two or more characters here.
        if first == "'":
            return "string"
        return "op" if first == "!" else "number"
    return "number" if _DIGIT_RE.match(first) else "junk"


def _lex(sql):
    """``(tags, texts)``: per token, a tag and the source text.

    A keyword's tag is its lower-case text and a punctuation mark's is
    the mark; any other token is tagged with its kind (``ident``,
    ``number``, ``string``, ``op``, ``junk``).  Both lists end with
    ``("eof", "")``.  Offsets are left to :func:`_offsets`.
    """
    texts = _LEX_RE.findall(sql)
    tags = []
    append = tags.append
    tag_by_first = _TAG_BY_FIRST
    keywords = _KEYWORDS
    for text in texts:
        tag = tag_by_first.get(text[0])
        if tag == "ident":
            lowered = text.lower()
            if lowered in keywords:
                tag = lowered
        elif tag is None:
            tag = _rare_tag(text)
        append(tag)
    append("eof")
    texts.append("")
    return tags, texts


def _offsets(sql):
    """Each token's offset in ``sql``, eof included."""
    offsets = [match.start(1) for match in _LEX_RE.finditer(sql)]
    offsets.append(len(sql))
    return offsets


def _reject_junk(sql, tags):
    """Raise :class:`ParseError` at the first junk character, if any."""
    if "junk" in tags:
        position = _offsets(sql)[tags.index("junk")]
        raise ParseError(f"unexpected character {sql[position]!r}",
                         position)


def _kind_and_text(tag, text):
    """The :class:`Token` kind and text of a tagged token."""
    if tag in _KEYWORDS:
        return "keyword", tag
    if tag in _PUNCT:
        return "punct", text
    return tag, text


def tokenize(sql):
    """Tokenize SQL text; raises :class:`ParseError` on junk."""
    tags, texts = _lex(sql)
    _reject_junk(sql, tags)
    return [Token(*_kind_and_text(tag, text), position)
            for tag, text, position in zip(tags, texts, _offsets(sql))]


@dataclass(frozen=True)
class SelectItem:
    """One entry of the SELECT list."""

    expr: object                  # ColumnRef or "*"
    aggregate: str = None         # 'min' | 'max' | 'count' | 'sum' | 'avg'
    alias: str = None

    @property
    def output_name(self):
        """Column name of this item in the result."""
        if self.alias:
            return self.alias
        if self.aggregate:
            inner = "*" if self.expr == "*" else str(self.expr)
            return f"{self.aggregate}({inner})"
        return str(self.expr)


@dataclass
class ParsedQuery:
    """Raw parse result, before logical analysis."""

    select_items: list
    tables: list                  # [(table_name, alias)]
    where: object = None          # Expr or None
    group_by: list = field(default_factory=list)
    limit: int = None


class _Parser:
    """Recursive descent over ``_lex``'s parallel tag and text lists.

    ``_i`` indexes the next token.  Offsets are computed only to raise a
    :class:`ParseError`.
    """

    __slots__ = ("_sql", "_tags", "_texts", "_i")

    def __init__(self, sql):
        self._sql = sql
        self._tags, self._texts = _lex(sql)
        _reject_junk(sql, self._tags)
        self._i = 0

    # -- token plumbing -------------------------------------------------
    def _error(self, message, index):
        return ParseError(message, _offsets(self._sql)[index])

    def _found(self, index):
        """Token ``index``'s text as an error message quotes it."""
        tag = self._tags[index]
        return repr(tag if tag in _KEYWORDS else self._texts[index])

    def _expect(self, tag):
        """Consume a token tagged ``tag``; returns its text."""
        i = self._i
        if self._tags[i] != tag:
            raise self._error(
                f"expected {tag!r}, found {self._found(i)}", i)
        self._i = i + 1
        return self._texts[i]

    def _accept(self, tag):
        """Consume the next token if it is tagged ``tag``."""
        if self._tags[self._i] == tag:
            self._i += 1
            return True
        return False

    # -- grammar --------------------------------------------------------
    def parse(self):
        self._expect("select")
        items = [self._select_item()]
        while self._accept(","):
            items.append(self._select_item())
        self._expect("from")
        tables = [self._table_item()]
        while self._accept(","):
            tables.append(self._table_item())
        where = None
        if self._accept("where"):
            where = self._or_expr()
        group_by = []
        if self._accept("group"):
            self._expect("by")
            group_by.append(self._column_ref())
            while self._accept(","):
                group_by.append(self._column_ref())
        limit = None
        if self._accept("limit"):
            i = self._i
            text = self._expect("number")
            if "." in text:
                raise self._error(
                    f"LIMIT must be an integer, found {text!r}", i)
            limit = int(text)
            if limit < 0:
                raise self._error(
                    f"LIMIT must be non-negative, found {text!r}", i)
        self._accept(";")
        self._expect("eof")
        return ParsedQuery(items, tables, where, group_by, limit)

    def _select_item(self):
        aggregate = self._tags[self._i]
        if aggregate in _AGGREGATES:
            self._i += 1
            self._expect("(")
            expr = "*" if self._accept("*") else self._column_ref()
            self._expect(")")
            alias = self._expect("ident") if self._accept("as") else None
            return SelectItem(expr, aggregate=aggregate, alias=alias)
        if self._accept("*"):
            return SelectItem("*")
        expr = self._column_ref()
        alias = self._expect("ident") if self._accept("as") else None
        return SelectItem(expr, alias=alias)

    def _table_item(self):
        i = self._i
        name = self._expect("ident")
        if "." in name:
            raise self._error(
                f"qualified table name {name!r} not supported", i)
        alias = name
        if self._accept("as"):
            alias = self._expect("ident")
        else:
            i = self._i
            if self._tags[i] == "ident" and "." not in self._texts[i]:
                alias = self._texts[i]
                self._i = i + 1
        return name, alias

    def _or_expr(self):
        items = [self._and_expr()]
        while self._accept("or"):
            items.append(self._and_expr())
        if len(items) == 1:
            return items[0]
        return Or(tuple(items))

    def _and_expr(self):
        items = [self._not_expr()]
        while self._accept("and"):
            items.append(self._not_expr())
        return make_and(items)

    def _not_expr(self):
        if self._accept("not"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self):
        if self._accept("("):
            inner = self._or_expr()
            self._expect(")")
            return inner
        operand = self._operand()
        tags = self._tags
        i = self._i
        negated = tags[i] == "not"
        if negated:
            i += 1
        tag = tags[i]
        if tag == "like":
            self._i = i + 1
            return Like(operand, self._string_value(), negated=negated)
        if tag == "in":
            self._i = i + 1
            self._expect("(")
            values = [self._literal_value()]
            while self._accept(","):
                values.append(self._literal_value())
            self._expect(")")
            return InList(operand, tuple(values), negated=negated)
        if tag == "between":
            self._i = i + 1
            low = self._operand()
            self._expect("and")
            high = self._operand()
            if negated:
                return Not(Between(operand, low, high))
            return Between(operand, low, high)
        if negated:
            raise self._error("NOT must precede LIKE/IN/BETWEEN here", i)
        if tag == "is":
            self._i = i + 1
            is_negated = self._accept("not")
            self._expect("null")
            return IsNull(operand, negated=is_negated)
        op = self._expect("op")
        return Comparison(op, operand, self._operand())

    def _operand(self):
        tag = self._tags[self._i]
        if tag == "ident":
            return self._column_ref()
        if tag == "number" or tag == "string":
            return Literal(self._literal_value())
        raise self._error(f"expected operand, found {self._found(self._i)}",
                          self._i)

    def _column_ref(self):
        text = self._expect("ident")
        alias, dot, column = text.partition(".")
        if dot:
            return ColumnRef(alias, column)
        return ColumnRef("", text)

    def _literal_value(self):
        i = self._i
        self._i = i + 1
        tag = self._tags[i]
        text = self._texts[i]
        if tag == "number":
            return float(text) if "." in text else int(text)
        if tag == "string":
            return self._unquote(text)
        raise self._error(f"expected literal, found {self._found(i)}", i)

    def _string_value(self):
        return self._unquote(self._expect("string"))

    @staticmethod
    def _unquote(text):
        """Decode a quoted string literal body in one left-to-right pass.

        ``''`` and ``\\'`` decode to a quote and ``\\\\`` to one
        backslash — sequentially, so escapes never overlap (the old
        chained ``str.replace`` mangled a quote preceded by an escaped
        backslash).
        """
        body = text[1:-1]
        if "'" not in body and "\\" not in body:
            return body
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
