"""Retained row-at-a-time reference executor and epilogue.

This module preserves the pre-columnar pipeline verbatim — dict rows,
``for row in source`` inner loops, per-row counter increments — migrated
only to the :class:`~repro.relational.scan.ScanRequest` call surface,
and the row finalize (:func:`finalize_rows`) that was its epilogue.
It is the equivalence baseline the columnar
:class:`~repro.engine.pipeline.PipelineExecutor` and
:func:`~repro.engine.pipeline.finalize` are tested against
(tests/test_columnar_equivalence.py): for any plan, both must produce
identical rows *and* identical :class:`WorkCounters`.

It is not wired into any engine; production execution is columnar.

:func:`eval_row` is the row interpreter over the expression AST: SQL's
three-valued semantics, one dict row at a time, the reference
:func:`~repro.query.vectorized.eval_mask` is held to.

:func:`row_sampled_selectivity` is the row-at-a-time estimator the
columnar :func:`~repro.query.join_order.sampled_selectivity` replaced:
:func:`eval_row` over each sampled dict row, presented under qualified
names.  The estimator equivalence tests
(tests/test_sampled_estimation.py) hold the two to float equality.
"""

import math

from repro.engine.pipeline import _POINTER_BYTES, predicate_cost, stable_hash
from repro.errors import ExecutionError, PlanError
from repro.lsm.store import ReadStats
from repro.query.ast import (_COMPARATORS, And, Between, ColumnRef,
                             Comparison, InList, IsNull, Like, Literal, Not,
                             Or, conjuncts)
from repro.query.physical import AccessPath, JoinAlgorithm
from repro.relational.scan import ScanRequest

__all__ = ["RowPipelineExecutor", "eval_row", "finalize_rows",
           "row_sampled_selectivity"]


def eval_row(expr, row):
    """Evaluate ``expr`` against one dict row keyed by qualified names.

    Any comparison, LIKE, IN or BETWEEN with a NULL operand is false,
    negated or not; ``IS [NOT] NULL`` tests nullness.  An unbound column
    raises :class:`~repro.errors.PlanError`.
    """
    if isinstance(expr, ColumnRef):
        try:
            return row[expr.qualified]
        except KeyError:
            raise PlanError(
                f"column {expr.qualified!r} not bound in row") from None
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Comparison):
        left = eval_row(expr.left, row)
        right = eval_row(expr.right, row)
        if left is None or right is None:
            return False
        return _COMPARATORS[expr.op](left, right)
    if isinstance(expr, Like):
        value = eval_row(expr.operand, row)
        if value is None:
            return False
        matched = expr._regex.match(str(value)) is not None
        return (not matched) if expr.negated else matched
    if isinstance(expr, InList):
        value = eval_row(expr.operand, row)
        if value is None:
            return False
        matched = value in expr.values
        return (not matched) if expr.negated else matched
    if isinstance(expr, Between):
        value = eval_row(expr.operand, row)
        low = eval_row(expr.low, row)
        high = eval_row(expr.high, row)
        if value is None or low is None or high is None:
            return False
        return low <= value <= high
    if isinstance(expr, IsNull):
        is_null = eval_row(expr.operand, row) is None
        return (not is_null) if expr.negated else is_null
    if isinstance(expr, And):
        return all(eval_row(item, row) for item in expr.items)
    if isinstance(expr, Or):
        return any(eval_row(item, row) for item in expr.items)
    if isinstance(expr, Not):
        return not eval_row(expr.operand, row)
    raise PlanError(f"cannot evaluate {type(expr).__name__}")


def _admitted(op, value, step):
    """The first integer ``key``, stepping by ``step`` (1: upwards, -1:
    downwards) from just past ``value`` on the other side, for which
    ``key op value`` holds."""
    key = int(value) - step
    while not _COMPARATORS[op](key, value):
        key += step
    return key


class RowPipelineExecutor:
    """Row-at-a-time twin of :class:`repro.engine.pipeline.PipelineExecutor`."""

    def __init__(self, catalog, config, counters):
        self.catalog = catalog
        self.config = config
        self.counters = counters
        self._row_bytes = {}
        self.stage_trace = []
        if config.block_cache_bytes > 0:
            from repro.lsm.cache import BlockCache
            self.block_cache = BlockCache(config.block_cache_bytes)
        else:
            self.block_cache = None

    def _stats(self):
        stats = ReadStats()
        stats.cache = self.block_cache
        return stats

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, entries, tables, residual_conjuncts=(), input_rows=None,
            input_row_bytes=0, input_aliases=(), driving_shard=None):
        """Execute stages over ``entries``; see the columnar twin."""
        self._tables = tables
        pending_residual = list(residual_conjuncts)
        if input_rows is not None:
            rows = list(input_rows)
            row_bytes = input_row_bytes
            available = set(input_aliases)
            stages = entries
        else:
            if not entries:
                raise ExecutionError("pipeline needs at least one stage")
            rows, row_bytes = self._driving(entries[0], shard=driving_shard)
            available = {entries[0].alias}
            rows, pending_residual = self._apply_residual(
                rows, pending_residual, available)
            self.stage_trace.append((entries[0].alias, len(rows)))
            stages = entries[1:]

        for entry in stages:
            rows, row_bytes = self._join(rows, row_bytes, entry)
            available.add(entry.alias)
            rows, pending_residual = self._apply_residual(
                rows, pending_residual, available)
            self.stage_trace.append((entry.alias, len(rows)))
            if self.config.max_rows and len(rows) > self.config.max_rows:
                raise ExecutionError(
                    f"intermediate result exceeded {self.config.max_rows} rows")
        return rows, row_bytes

    # ------------------------------------------------------------------
    # Per-entry decode planning
    # ------------------------------------------------------------------
    def _decode_plan(self, entry):
        table = self.catalog.table(entry.table_name)
        needed = set(entry.projection or table.schema.column_names)
        if entry.local_filter is not None:
            for ref in entry.local_filter.column_refs():
                if ref.alias == entry.alias:
                    needed.add(ref.column)
        for edge in entry.join_edges:
            needed.add(edge.column_of(entry.alias))
        needed = sorted(needed)
        projection = entry.projection or table.schema.column_names
        qualified_projection = [f"{entry.alias}.{name}"
                                for name in projection]
        exact = set(projection) == set(needed)
        return needed, qualified_projection, exact

    @staticmethod
    def _project_qualified(row, qualified_projection, exact):
        if exact:
            return row
        return {name: row[name] for name in qualified_projection}

    # ------------------------------------------------------------------
    # Driving table
    # ------------------------------------------------------------------
    def _driving(self, entry, shard=None):
        table = self.catalog.table(entry.table_name)
        predicate = self._compiled_filter(entry)
        ops, memcmp = predicate_cost(entry.local_filter, self.catalog,
                                     self._tables)
        needed, q_projection, exact = self._decode_plan(entry)
        pk_qualified = None
        if shard is not None:
            pk = table.schema.primary_key
            pk_qualified = f"{entry.alias}.{pk}"
            if pk not in needed:
                needed = sorted(set(needed) | {pk})
                exact = False
        stats = self._stats()
        rows = []
        if shard is not None and shard.is_empty:
            source = ()
        elif entry.access_path is AccessPath.SECONDARY_LOOKUP:
            source = self._secondary_driving(table, entry, stats, needed)
        elif entry.access_path is AccessPath.PK_RANGE:
            lo, hi = self._pk_bounds(entry)
            if shard is not None:
                lo, hi = shard.clamp(lo, hi)
            source = table.scan(ScanRequest(
                stats=stats, pk_lo=lo, pk_hi=hi, columns=tuple(needed),
                qualified_as=entry.alias))
        else:
            if shard is not None and shard.pk_lo is not None:
                source = table.scan(ScanRequest(
                    stats=stats, pk_lo=shard.pk_lo, pk_hi=shard.pk_hi,
                    columns=tuple(needed), qualified_as=entry.alias))
            else:
                source = table.scan(ScanRequest(
                    stats=stats, columns=tuple(needed),
                    qualified_as=entry.alias))
        row_bytes = self._materialized_bytes(entry)
        counters = self.counters
        for row in source:
            if (shard is not None
                    and not shard.contains(row[pk_qualified])):
                continue
            counters.records_evaluated += 1
            counters.predicate_ops += ops
            counters.memcmp_bytes += memcmp
            if predicate is not None and not predicate(row):
                continue
            rows.append(self._project_qualified(row, q_projection, exact))
            counters.bytes_materialized += row_bytes
        counters.absorb_read_stats(stats)
        self._row_bytes[entry.alias] = row_bytes
        return rows, row_bytes

    def _secondary_driving(self, table, entry, stats, needed):
        constants = self._index_constants(entry)
        for value in constants:
            self.counters.index_seeks += 1
            yield from table.index_lookup(entry.index_column, value,
                                          stats=stats, columns=needed,
                                          qualified_as=entry.alias)

    def _index_constants(self, entry):
        values = []
        for conjunct in conjuncts(entry.local_filter):
            if (isinstance(conjunct, Comparison) and conjunct.op == "="
                    and isinstance(conjunct.left, ColumnRef)
                    and conjunct.left.column == entry.index_column
                    and isinstance(conjunct.right, Literal)):
                values.append(conjunct.right.value)
            elif (isinstance(conjunct, InList) and not conjunct.negated
                    and isinstance(conjunct.operand, ColumnRef)
                    and conjunct.operand.column == entry.index_column):
                values.extend(conjunct.values)
        if not values:
            raise ExecutionError(
                f"no constant bound to index column {entry.index_column!r}")
        return values

    def _pk_bounds(self, entry):
        """The least and greatest primary keys the filter's literal
        comparisons on the key admit, found by stepping from the
        literal's integer part until the comparison holds; an equality
        bounds both ends, intersected with the other bounds, and a
        literal that is not a finite number bounds nothing."""
        lo = hi = None
        pk = self.catalog.table(entry.table_name).schema.primary_key
        for conjunct in conjuncts(entry.local_filter):
            if not (isinstance(conjunct, Comparison)
                    and isinstance(conjunct.left, ColumnRef)
                    and conjunct.left.column == pk
                    and isinstance(conjunct.right, Literal)):
                continue
            value = conjunct.right.value
            if not (isinstance(value, int) or (isinstance(value, float)
                                               and math.isfinite(value))):
                continue
            if conjunct.op in ("=", "<", "<="):
                op = "<=" if conjunct.op == "=" else conjunct.op
                bound = _admitted(op, value, -1)
                hi = bound if hi is None else min(hi, bound)
            if conjunct.op in ("=", ">", ">="):
                op = ">=" if conjunct.op == "=" else conjunct.op
                bound = _admitted(op, value, 1)
                lo = bound if lo is None else max(lo, bound)
        return lo, hi

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join(self, outer_rows, outer_row_bytes, entry):
        if entry.join_algorithm in (JoinAlgorithm.BNLJI, JoinAlgorithm.NLJ) \
                and entry.index_column is not None:
            return self._join_bnlji(outer_rows, outer_row_bytes, entry)
        if entry.join_algorithm is JoinAlgorithm.GHJ:
            return self._join_ghj(outer_rows, outer_row_bytes, entry)
        if entry.join_algorithm is JoinAlgorithm.NLJ:
            return self._join_nlj(outer_rows, outer_row_bytes, entry)
        return self._join_bnlj(outer_rows, outer_row_bytes, entry)

    def _join_bnlji(self, outer_rows, outer_row_bytes, entry):
        table = self.catalog.table(entry.table_name)
        predicate = self._compiled_filter(entry)
        ops, memcmp = predicate_cost(entry.local_filter, self.catalog,
                                     self._tables)
        index_edge = None
        extra_edges = []
        for edge in entry.join_edges:
            if (edge.column_of(entry.alias) == entry.index_column
                    and index_edge is None):
                index_edge = edge
            else:
                extra_edges.append(edge)
        if index_edge is None:
            raise ExecutionError(
                f"{entry.alias}: BNLJI without an edge on the index column")
        other_alias, other_column = index_edge.other(entry.alias)
        outer_key = f"{other_alias}.{other_column}"
        use_pk = entry.index_column == table.schema.primary_key
        needed, q_projection, exact = self._decode_plan(entry)

        stats = self._stats()
        inner_bytes = self._materialized_bytes(entry)
        out_bytes = outer_row_bytes + inner_bytes
        counters = self.counters
        result = []
        for outer in outer_rows:
            value = outer.get(outer_key)
            if value is None:
                continue
            counters.index_seeks += 1
            if use_pk:
                match = table.get_by_pk(value, stats=stats,
                                        columns=needed,
                                        qualified_as=entry.alias)
                matches = () if match is None else (match,)
            else:
                matches = table.index_lookup(
                    entry.index_column, value, stats=stats,
                    columns=needed, qualified_as=entry.alias)
            for row in matches:
                counters.records_evaluated += 1
                counters.predicate_ops += ops
                counters.memcmp_bytes += memcmp
                if predicate is not None and not predicate(row):
                    continue
                merged = dict(outer)
                merged.update(self._project_qualified(row, q_projection,
                                                      exact))
                if not self._extra_edges_hold(merged, extra_edges):
                    continue
                result.append(merged)
                counters.bytes_materialized += out_bytes
        counters.absorb_read_stats(stats)
        counters.output_rows += len(result)
        return result, out_bytes

    def _join_bnlj(self, outer_rows, outer_row_bytes, entry):
        table = self.catalog.table(entry.table_name)
        predicate = self._compiled_filter(entry)
        ops, memcmp = predicate_cost(entry.local_filter, self.catalog,
                                     self._tables)
        edges = entry.join_edges
        outer_keys = [f"{edge.other(entry.alias)[0]}."
                      f"{edge.other(entry.alias)[1]}" for edge in edges]
        needed, q_projection, exact = self._decode_plan(entry)
        inner_columns = [f"{entry.alias}.{edge.column_of(entry.alias)}"
                         for edge in edges]

        per_row = max(1, outer_row_bytes)
        rows_per_block = max(1, self.config.join_buffer_bytes // per_row)
        inner_bytes = self._materialized_bytes(entry)
        out_bytes = outer_row_bytes + inner_bytes
        counters = self.counters

        result = []
        for start in range(0, max(len(outer_rows), 1), rows_per_block):
            block = outer_rows[start:start + rows_per_block]
            if not block:
                break
            hash_table = {}
            for outer in block:
                key = tuple(outer.get(name) for name in outer_keys)
                if None in key:
                    continue
                hash_table.setdefault(key, []).append(outer)
                counters.hash_probes += 1
            counters.bytes_materialized += len(block) * per_row
            for row in self._inner_scan(table, entry, needed):
                counters.records_evaluated += 1
                counters.predicate_ops += ops
                counters.memcmp_bytes += memcmp
                if predicate is not None and not predicate(row):
                    continue
                key = tuple(row.get(column) for column in inner_columns)
                if None in key:
                    continue
                counters.hash_probes += 1
                partners = hash_table.get(key)
                if not partners:
                    continue
                inner_projected = self._project_qualified(
                    row, q_projection, exact)
                for outer in partners:
                    merged = dict(outer)
                    merged.update(inner_projected)
                    result.append(merged)
                    counters.bytes_materialized += out_bytes
        counters.output_rows += len(result)
        return result, out_bytes

    def _join_nlj(self, outer_rows, outer_row_bytes, entry):
        table = self.catalog.table(entry.table_name)
        predicate = self._compiled_filter(entry)
        ops, memcmp = predicate_cost(entry.local_filter, self.catalog,
                                     self._tables)
        edges = entry.join_edges
        outer_keys = [f"{edge.other(entry.alias)[0]}."
                      f"{edge.other(entry.alias)[1]}" for edge in edges]
        needed, q_projection, exact = self._decode_plan(entry)
        inner_columns = [f"{entry.alias}.{edge.column_of(entry.alias)}"
                         for edge in edges]
        inner_bytes = self._materialized_bytes(entry)
        out_bytes = outer_row_bytes + inner_bytes
        counters = self.counters
        result = []
        for outer in outer_rows:
            key = tuple(outer.get(name) for name in outer_keys)
            if None in key:
                continue
            for row in self._inner_scan(table, entry, needed):
                counters.records_evaluated += 1
                counters.predicate_ops += ops + len(edges)
                counters.memcmp_bytes += memcmp
                if predicate is not None and not predicate(row):
                    continue
                if tuple(row.get(c) for c in inner_columns) != key:
                    continue
                merged = dict(outer)
                merged.update(self._project_qualified(row, q_projection,
                                                      exact))
                result.append(merged)
                counters.bytes_materialized += out_bytes
        counters.output_rows += len(result)
        return result, out_bytes

    def _join_ghj(self, outer_rows, outer_row_bytes, entry):
        table = self.catalog.table(entry.table_name)
        predicate = self._compiled_filter(entry)
        ops, memcmp = predicate_cost(entry.local_filter, self.catalog,
                                     self._tables)
        edges = entry.join_edges
        outer_keys = [f"{edge.other(entry.alias)[0]}."
                      f"{edge.other(entry.alias)[1]}" for edge in edges]
        needed, q_projection, exact = self._decode_plan(entry)
        inner_columns = [f"{entry.alias}.{edge.column_of(entry.alias)}"
                         for edge in edges]
        inner_bytes = self._materialized_bytes(entry)
        out_bytes = outer_row_bytes + inner_bytes
        counters = self.counters

        per_row = max(1, outer_row_bytes)
        outer_bytes_total = len(outer_rows) * per_row
        partitions = max(1, -(-outer_bytes_total
                              // self.config.join_buffer_bytes))

        outer_parts = [[] for _ in range(partitions)]
        for outer in outer_rows:
            key = tuple(outer.get(name) for name in outer_keys)
            if None in key:
                continue
            counters.hash_probes += 1
            counters.bytes_materialized += per_row
            outer_parts[stable_hash(key) % partitions].append((key, outer))

        inner_parts = [[] for _ in range(partitions)]
        for row in self._inner_scan(table, entry, needed):
            counters.records_evaluated += 1
            counters.predicate_ops += ops
            counters.memcmp_bytes += memcmp
            if predicate is not None and not predicate(row):
                continue
            key = tuple(row.get(c) for c in inner_columns)
            if None in key:
                continue
            counters.hash_probes += 1
            counters.bytes_materialized += inner_bytes
            inner_parts[stable_hash(key) % partitions].append((key, row))

        result = []
        for outer_part, inner_part in zip(outer_parts, inner_parts):
            hash_table = {}
            for key, outer in outer_part:
                hash_table.setdefault(key, []).append(outer)
            for key, row in inner_part:
                counters.hash_probes += 1
                partners = hash_table.get(key)
                if not partners:
                    continue
                inner_projected = self._project_qualified(
                    row, q_projection, exact)
                for outer in partners:
                    merged = dict(outer)
                    merged.update(inner_projected)
                    result.append(merged)
                    counters.bytes_materialized += out_bytes
        counters.output_rows += len(result)
        return result, out_bytes

    def _inner_scan(self, table, entry, needed):
        stats = self._stats()
        if (entry.access_path is AccessPath.SECONDARY_LOOKUP
                and entry.index_column is not None
                and entry.index_column not in
                [edge.column_of(entry.alias) for edge in entry.join_edges]):
            for value in self._index_constants(entry):
                self.counters.index_seeks += 1
                yield from table.index_lookup(entry.index_column, value,
                                              stats=stats, columns=needed,
                                              qualified_as=entry.alias)
        else:
            yield from table.scan(ScanRequest(stats=stats,
                                              columns=tuple(needed),
                                              qualified_as=entry.alias))
        self.counters.absorb_read_stats(stats)

    # ------------------------------------------------------------------
    # Residual predicates
    # ------------------------------------------------------------------
    def _apply_residual(self, rows, pending, available):
        ready = [conjunct for conjunct in pending
                 if conjunct.aliases() <= available]
        if not ready:
            return rows, pending
        remaining = [conjunct for conjunct in pending
                     if conjunct not in ready]
        total_ops = 0
        total_memcmp = 0
        for conjunct in ready:
            ops, memcmp = predicate_cost(conjunct, self.catalog, self._tables)
            total_ops += ops
            total_memcmp += memcmp
        kept = []
        for row in rows:
            self.counters.records_evaluated += 1
            self.counters.predicate_ops += total_ops
            self.counters.memcmp_bytes += total_memcmp
            if all(eval_row(conjunct, row) for conjunct in ready):
                kept.append(row)
        return kept, remaining

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _compiled_filter(self, entry):
        expr = entry.local_filter
        if expr is None:
            return None
        return lambda row: eval_row(expr, row)

    def _materialized_bytes(self, entry):
        """Bytes one projected row of this table occupies in caches."""
        if self.config.pointer_cache:
            return _POINTER_BYTES * max(1, entry.projection_field_count)
        return max(4, entry.projection_bytes)

    @staticmethod
    def _extra_edges_hold(merged, edges):
        for edge in edges:
            left = merged.get(f"{edge.left_alias}.{edge.left_column}")
            right = merged.get(f"{edge.right_alias}.{edge.right_column}")
            if left is None or right is None or left != right:
                return False
        return True


def finalize_rows(rows, select_items, group_by, counters, limit=None):
    """Row-at-a-time finalize over dict rows (the retained epilogue)."""
    has_aggregates = any(item.aggregate for item in select_items)
    columns = [item.output_name for item in select_items]

    if not has_aggregates and not group_by:
        star = any(item.expr == "*" for item in select_items)
        output = []
        for row in rows:
            counters.records_evaluated += 1
            if star:
                output.append(dict(row))
            else:
                output.append({item.output_name: row.get(item.expr.qualified)
                               for item in select_items})
        if limit is not None:
            output = output[:limit]
        counters.output_rows += len(output)
        if star and output:
            columns = sorted(output[0])
        return output, columns

    def group_key(row):
        return tuple(row.get(col.qualified) for col in group_by)

    groups = {}
    for row in rows:
        counters.records_evaluated += 1
        counters.hash_probes += 1
        groups.setdefault(group_key(row), []).append(row)
    if not groups and has_aggregates and not group_by:
        groups[()] = []

    output = []
    for key, members in groups.items():
        result = {}
        for col, value in zip(group_by, key):
            result[col.qualified] = value
        for item in select_items:
            if not item.aggregate:
                source = members[0] if members else {}
                result[item.output_name] = source.get(item.expr.qualified)
                continue
            if item.expr == "*":
                values = members
            else:
                values = [row.get(item.expr.qualified) for row in members
                          if row.get(item.expr.qualified) is not None]
            counters.records_evaluated += len(members)
            result[item.output_name] = _aggregate(item.aggregate, values,
                                                  item.expr == "*", members)
        output.append(result)
    if limit is not None:
        output = output[:limit]
    counters.output_rows += len(output)
    if group_by:
        columns = [col.qualified for col in group_by] + columns
    return output, columns


def _aggregate(name, values, star, members):
    if name == "count":
        return len(members) if star else len(values)
    if not values:
        return None
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    raise ExecutionError(f"unknown aggregate {name!r}")


def qualify_row(alias, row):
    """Present a sample row under its qualified column names."""
    return {f"{alias}.{name}": value for name, value in row.items()}


def row_sampled_selectivity(stats, alias, expr):
    """Smoothed fraction of ``stats``' sampled rows satisfying ``expr``,
    one :func:`eval_row` per row; a row whose evaluation raises
    ``KeyError`` or ``TypeError`` counts as non-matching."""
    if not stats.sample:
        return 0.1
    matched = 0
    for row in stats.sample:
        try:
            if eval_row(expr, qualify_row(alias, row)):
                matched += 1
        except (KeyError, TypeError):
            continue
    return (matched + 1.0) / (len(stats.sample) + 2.0)
