"""Logical analysis: from a parsed query to a :class:`QuerySpec`.

Binds unqualified columns to their tables, splits the WHERE conjunction
into per-table filters, equi-join edges, and residual predicates (e.g. OR
terms spanning several tables), and derives the per-table projection —
the columns that must survive each table's early projection.
"""

from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

from repro.errors import PlanError
from repro.query.ast import (And, Between, ColumnRef, Comparison, Literal,
                             Not, Or, conjuncts, make_and)
from repro.relational.schema import DataType

#: Comparisons that order their operands: INT against CHAR has no answer.
_ORDERING_OPS = frozenset({"<", "<=", ">", ">="})


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join condition ``left_alias.left_col = right_alias.right_col``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def touches(self, alias):
        """Whether this edge involves the alias."""
        return alias in (self.left_alias, self.right_alias)

    def other(self, alias):
        """(alias, column) of the end that is not ``alias``."""
        if alias == self.left_alias:
            return self.right_alias, self.right_column
        if alias == self.right_alias:
            return self.left_alias, self.left_column
        raise PlanError(f"edge {self} does not touch {alias}")

    def column_of(self, alias):
        """Column name on the given side."""
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise PlanError(f"edge {self} does not touch {alias}")

    def __str__(self):
        return (f"{self.left_alias}.{self.left_column} = "
                f"{self.right_alias}.{self.right_column}")


@dataclass(frozen=True)
class QuerySpec:
    """A fully analysed query, ready for join ordering.

    Frozen like the plans that hold it: sequences are tuples and mappings
    read-only, so a cached plan's spec cannot be changed in place.
    """

    sql: str
    select_items: tuple
    tables: Mapping                   # alias -> table name
    filters: Mapping                  # alias -> Expr or None
    join_edges: tuple                 # (JoinEdge, ...)
    residual: object                  # Expr spanning >1 table, or None
    group_by: tuple
    limit: int
    projections: Mapping              # alias -> (columns, ...)

    def __post_init__(self):
        for name in ("select_items", "join_edges", "group_by"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("tables", "filters", "projections"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))

    @property
    def aliases(self):
        """All table aliases in FROM order."""
        return list(self.tables)

    @property
    def table_count(self):
        """Number of tables joined."""
        return len(self.tables)

    def filter_for(self, alias):
        """The conjunction of single-table predicates for one alias."""
        return self.filters.get(alias)


def _bind(expr, alias_columns):
    """Qualify unqualified ColumnRefs; returns a rewritten expression."""
    if isinstance(expr, ColumnRef):
        if expr.alias:
            if expr.alias not in alias_columns:
                raise PlanError(f"unknown table alias {expr.alias!r}")
            if expr.column not in alias_columns[expr.alias]:
                raise PlanError(f"unknown column {expr.qualified!r}")
            return expr
        owners = [alias for alias, columns in alias_columns.items()
                  if expr.column in columns]
        if not owners:
            raise PlanError(f"unknown column {expr.column!r}")
        if len(owners) > 1:
            raise PlanError(
                f"ambiguous column {expr.column!r} (in {sorted(owners)})")
        return ColumnRef(owners[0], expr.column)
    # Rebuild container nodes generically.
    from repro.query import ast as _ast
    if isinstance(expr, _ast.Comparison):
        return _ast.Comparison(expr.op, _bind(expr.left, alias_columns),
                               _bind(expr.right, alias_columns))
    if isinstance(expr, _ast.Like):
        return _ast.Like(_bind(expr.operand, alias_columns), expr.pattern,
                         expr.negated)
    if isinstance(expr, _ast.InList):
        return _ast.InList(_bind(expr.operand, alias_columns), expr.values,
                           expr.negated)
    if isinstance(expr, _ast.Between):
        return _ast.Between(_bind(expr.operand, alias_columns),
                            _bind(expr.low, alias_columns),
                            _bind(expr.high, alias_columns))
    if isinstance(expr, _ast.IsNull):
        return _ast.IsNull(_bind(expr.operand, alias_columns), expr.negated)
    if isinstance(expr, _ast.And):
        return _ast.And(tuple(_bind(i, alias_columns) for i in expr.items))
    if isinstance(expr, _ast.Or):
        return _ast.Or(tuple(_bind(i, alias_columns) for i in expr.items))
    if isinstance(expr, _ast.Not):
        return _ast.Not(_bind(expr.operand, alias_columns))
    if isinstance(expr, _ast.Literal):
        return expr
    raise PlanError(f"cannot bind expression of type {type(expr)}")


def _operand_type(expr, tables, catalog):
    """INT or CHAR for a column or a non-NULL literal, else None."""
    if isinstance(expr, ColumnRef):
        return catalog.table(tables[expr.alias]).schema.column(
            expr.column).dtype
    if not isinstance(expr, Literal) or expr.value is None:
        return None
    return DataType.CHAR if isinstance(expr.value, str) else DataType.INT


def _check_ordering(expr, tables, catalog):
    """Reject ``<``, ``<=``, ``>``, ``>=`` and ``BETWEEN`` between an INT
    and a CHAR operand.

    SQL gives them no answer, and the vectorized evaluator cannot order
    an integer array against strings.  ``=``, ``!=`` and ``IN`` across
    types stay legal: no value equals a value of the other type.
    """
    if isinstance(expr, (And, Or)):
        for item in expr.items:
            _check_ordering(item, tables, catalog)
        return
    if isinstance(expr, Not):
        _check_ordering(expr.operand, tables, catalog)
        return
    if isinstance(expr, Comparison) and expr.op in _ORDERING_OPS:
        pairs = [(expr.left, expr.right)]
    elif isinstance(expr, Between):
        pairs = [(expr.operand, expr.low), (expr.operand, expr.high)]
    else:
        return
    for left, right in pairs:
        left_type = _operand_type(left, tables, catalog)
        right_type = _operand_type(right, tables, catalog)
        if {left_type, right_type} == {DataType.INT, DataType.CHAR}:
            raise PlanError(
                f"cannot order {left} ({left_type.name}) against {right} "
                f"({right_type.name}) in {expr}")


def _is_join_conjunct(conjunct):
    """Detects ``a.x = b.y`` with distinct aliases."""
    return (isinstance(conjunct, Comparison) and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
            and conjunct.left.alias != conjunct.right.alias)


def analyze(parsed, catalog, sql=""):
    """Turn a :class:`ParsedQuery` into a :class:`QuerySpec`.

    ``catalog`` resolves table schemas so unqualified columns can be
    bound and per-table projections computed.
    """
    tables = {}
    alias_columns = {}
    for name, alias in parsed.tables:
        if alias in tables:
            raise PlanError(f"duplicate alias {alias!r}")
        table = catalog.table(name)
        tables[alias] = name
        alias_columns[alias] = set(table.schema.column_names)

    where = parsed.where
    if where is not None:
        where = _bind(where, alias_columns)
        _check_ordering(where, tables, catalog)

    select_items = [item if item.expr == "*"
                    else replace(item, expr=_bind(item.expr, alias_columns))
                    for item in parsed.select_items]

    group_by = [_bind(col, alias_columns) for col in parsed.group_by]

    filters = {alias: [] for alias in tables}
    join_edges = []
    residual = []
    for conjunct in conjuncts(where):
        if _is_join_conjunct(conjunct):
            join_edges.append(JoinEdge(
                conjunct.left.alias, conjunct.left.column,
                conjunct.right.alias, conjunct.right.column))
            continue
        aliases = conjunct.aliases()
        if len(aliases) == 1:
            filters[next(iter(aliases))].append(conjunct)
        elif len(aliases) == 0:
            residual.append(conjunct)   # constant predicate
        else:
            residual.append(conjunct)

    residual = make_and(residual)
    return QuerySpec(
        sql=sql,
        select_items=select_items,
        tables=tables,
        filters={alias: make_and(items) for alias, items in filters.items()},
        join_edges=join_edges,
        residual=residual,
        group_by=group_by,
        limit=parsed.limit,
        projections=_projections(tables, select_items, join_edges, residual,
                                 group_by, catalog),
    )


def _projections(tables, select_items, join_edges, residual, group_by,
                 catalog):
    """Columns each table must deliver (SELECT + joins + residual)."""
    needed = {alias: set() for alias in tables}
    for item in select_items:
        if item.expr == "*":
            for alias, name in tables.items():
                needed[alias].update(
                    catalog.table(name).schema.column_names)
            continue
        ref = item.expr
        needed[ref.alias].add(ref.column)
    for edge in join_edges:
        needed[edge.left_alias].add(edge.left_column)
        needed[edge.right_alias].add(edge.right_column)
    if residual is not None:
        for ref in residual.column_refs():
            needed[ref.alias].add(ref.column)
    for col in group_by:
        needed[col.alias].add(col.column)
    # Filters are applied before projection, but a filtered column still
    # has to be read; it does not have to be *shipped* unless needed above.
    return {alias: tuple(sorted(columns))
            for alias, columns in needed.items()}
