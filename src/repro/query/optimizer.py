"""The baseline optimizer: SQL -> left-deep physical plan.

Combines parsing, logical analysis, join ordering, access-path selection
and join-algorithm selection.  hybridNDP (repro.core) then extends the
resulting plan with offloading decisions; this module is deliberately the
"vanilla MyRocks" part of the stack.
"""

from repro.errors import PlanError
from repro.query.ast import ColumnRef, Comparison, InList, conjuncts
from repro.query.join_order import (cumulative_rows, filtered_estimates,
                                     greedy_order)
from repro.query.logical import analyze
from repro.query.parser import parse_query
from repro.query.physical import (AccessPath, JoinAlgorithm, QueryPlan,
                                  TableAccess)


def _equality_constant_columns(expr, alias):
    """Columns of ``alias`` constrained by ``col = const`` (or small IN)."""
    columns = []
    for conjunct in conjuncts(expr):
        if (isinstance(conjunct, Comparison) and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and conjunct.left.alias == alias
                and not conjunct.right.column_refs()):
            columns.append(conjunct.left.column)
        elif (isinstance(conjunct, InList) and not conjunct.negated
                and isinstance(conjunct.operand, ColumnRef)
                and conjunct.operand.alias == alias
                and len(conjunct.values) <= 8):
            columns.append(conjunct.operand.column)
    return columns


def _choose_access_path(table, local_filter, alias):
    """Pick FULL_SCAN / PK_RANGE / SECONDARY_LOOKUP for a driving table."""
    if local_filter is None:
        return AccessPath.FULL_SCAN, None
    eq_columns = _equality_constant_columns(local_filter, alias)
    for column in eq_columns:
        if column in table.indexes:
            return AccessPath.SECONDARY_LOOKUP, column
    pk = table.schema.primary_key
    for conjunct in conjuncts(local_filter):
        refs = conjunct.column_refs()
        if (len(refs) == 1 and refs[0].column == pk
                and isinstance(conjunct, Comparison)):
            return AccessPath.PK_RANGE, pk
    return AccessPath.FULL_SCAN, None


def build_plan(sql_or_spec, catalog):
    """Build the greedy plan from SQL text or an analysed QuerySpec."""
    if isinstance(sql_or_spec, str):
        parsed = parse_query(sql_or_spec)
        spec = analyze(parsed, catalog, sql=sql_or_spec)
    else:
        spec = sql_or_spec
    estimates = filtered_estimates(spec, catalog)
    order = greedy_order(spec, catalog, estimates)
    output_rows = cumulative_rows(spec, catalog, order, estimates)
    return plan_for(spec, catalog, order, estimates, output_rows)


def plan_for(spec, catalog, order, estimates, output_rows):
    """The left-deep plan joining ``spec``'s tables in ``order``, with
    ``estimates`` (``alias -> (selectivity, rows)``) and ``output_rows``
    (rows after each join) as given: it chooses only the physical
    operators."""
    if sorted(order) != sorted(spec.aliases):
        raise PlanError(f"{list(order)} does not order {spec.aliases}")
    entries = []
    for position, alias in enumerate(order):
        table = catalog.table(spec.tables[alias])
        local_filter = spec.filter_for(alias)
        selectivity, rows = estimates[alias]
        projection = tuple(spec.projections.get(alias, ()))
        path, index_column, algorithm, edges = _physical_choice(
            spec, table, alias, local_filter, order[:position])
        entries.append(TableAccess(
            alias=alias, table_name=table.name,
            access_path=path, index_column=index_column,
            local_filter=local_filter, projection=projection,
            join_edges=edges, join_algorithm=algorithm,
            estimated_selectivity=selectivity, estimated_rows=rows,
            estimated_output_rows=output_rows[position],
            table_rows=max(1, table.row_count),
            record_bytes=table.record_bytes,
            projection_bytes=table.schema.projection_bytes(projection),
            field_count=table.schema.field_count,
            projection_field_count=len(projection),
        ))
    return QueryPlan(spec=spec, entries=entries, residual=spec.residual,
                     group_by=spec.group_by, select_items=spec.select_items,
                     limit=spec.limit)


def _physical_choice(spec, table, alias, local_filter, placed):
    """``(access path, index column, join algorithm, join edges)`` of
    ``alias`` joined to the ``placed`` prefix (empty: the driver)."""
    if not placed:
        path, index_column = _choose_access_path(table, local_filter, alias)
        return path, index_column, None, ()
    edges = tuple(
        edge for edge in spec.join_edges
        if (edge.left_alias == alias and edge.right_alias in placed)
        or (edge.right_alias == alias and edge.left_alias in placed))
    if not edges:
        return AccessPath.FULL_SCAN, None, JoinAlgorithm.BNLJ, ()
    index_column = _indexed_join_column(table, edges, alias)
    if index_column is not None:
        path = (AccessPath.PK_RANGE
                if index_column == table.schema.primary_key
                else AccessPath.SECONDARY_LOOKUP)
        return path, index_column, JoinAlgorithm.BNLJI, edges
    # A local equality filter on an indexed column still narrows the
    # scan used to build the join side.
    path, index_column = _choose_access_path(table, local_filter, alias)
    return path, index_column, JoinAlgorithm.BNLJ, edges


def _indexed_join_column(table, edges, alias):
    """A join column of ``alias`` backed by the PK or a secondary index."""
    for edge in edges:
        column = edge.column_of(alias)
        if column == table.schema.primary_key:
            return column
    for edge in edges:
        column = edge.column_of(alias)
        if column in table.indexes:
            return column
    return None


__all__ = ["build_plan", "plan_for"]
