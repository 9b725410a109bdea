"""Expression AST.

Columns are named by qualified column names (``alias.column``).
Comparisons follow SQL three-valued logic where it matters for JOB: any
comparison with NULL is false, NOT LIKE over NULL is false, and IS [NOT]
NULL tests nullness explicitly.

The engine and the planner's sampled estimator evaluate expressions
through :func:`repro.query.vectorized.eval_mask`; the tests hold it to a
row-at-a-time reference over dict rows (``eval_row`` in
``tests/rowref.py``).
"""

import re
from dataclasses import dataclass, field

from repro.errors import PlanError


class Expr:
    """Base class for expressions."""

    def column_refs(self):
        """All :class:`ColumnRef` nodes in this subtree."""
        refs = []
        self._collect_refs(refs)
        return refs

    def _collect_refs(self, refs):
        raise NotImplementedError

    def aliases(self):
        """Set of table aliases referenced."""
        return {ref.alias for ref in self.column_refs() if ref.alias}


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to ``alias.column``."""

    alias: str
    column: str

    @property
    def qualified(self):
        """The key used in row dicts."""
        return f"{self.alias}.{self.column}" if self.alias else self.column

    def _collect_refs(self, refs):
        refs.append(self)

    def __str__(self):
        return self.qualified


@dataclass(frozen=True)
class Literal(Expr):
    """A constant."""

    value: object

    def _collect_refs(self, refs):
        pass

    def __str__(self):
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expr):
    """A binary comparison."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _COMPARATORS:
            raise PlanError(f"unknown comparison operator {self.op!r}")

    def _collect_refs(self, refs):
        self.left._collect_refs(refs)
        self.right._collect_refs(refs)

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


def like_to_regex(pattern):
    """Compile a SQL LIKE pattern to a regex (``%`` -> ``.*``, ``_`` -> ``.``)."""
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    # ``\Z``, not ``$``: a value with a trailing newline must match
    # the pattern whole, newline included.
    return re.compile("".join(parts) + r"\Z", re.DOTALL)


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern``."""

    operand: Expr
    pattern: str
    negated: bool = False
    _regex: re.Pattern = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_regex", like_to_regex(self.pattern))

    def _collect_refs(self, refs):
        self.operand._collect_refs(refs)

    def __str__(self):
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand} {op} '{self.pattern}'"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    values: tuple
    negated: bool = False

    def _collect_refs(self, refs):
        self.operand._collect_refs(refs)

    def __str__(self):
        op = "NOT IN" if self.negated else "IN"
        values = ", ".join(repr(v) for v in self.values)
        return f"{self.operand} {op} ({values})"


@dataclass(frozen=True)
class Between(Expr):
    """``expr BETWEEN lo AND hi`` (inclusive, as in SQL)."""

    operand: Expr
    low: Expr
    high: Expr

    def _collect_refs(self, refs):
        self.operand._collect_refs(refs)
        self.low._collect_refs(refs)
        self.high._collect_refs(refs)

    def __str__(self):
        return f"{self.operand} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def _collect_refs(self, refs):
        self.operand._collect_refs(refs)

    def __str__(self):
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand} {op}"


@dataclass(frozen=True)
class And(Expr):
    """Conjunction."""

    items: tuple

    def _collect_refs(self, refs):
        for item in self.items:
            item._collect_refs(refs)

    def __str__(self):
        return "(" + " AND ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction."""

    items: tuple

    def _collect_refs(self, refs):
        for item in self.items:
            item._collect_refs(refs)

    def __str__(self):
        return "(" + " OR ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class Not(Expr):
    """Negation."""

    operand: Expr

    def _collect_refs(self, refs):
        self.operand._collect_refs(refs)

    def __str__(self):
        return f"NOT ({self.operand})"


def conjuncts(expr):
    """Flatten nested ANDs into a list of conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        result = []
        for item in expr.items:
            result.extend(conjuncts(item))
        return result
    return [expr]


def make_and(items):
    """Build the smallest AND expression over ``items``."""
    items = [item for item in items if item is not None]
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(tuple(items))
