"""Greedy left-deep join ordering with sampled statistics.

Mirrors the MySQL/MyRocks behaviour the paper relies on (§3.2 "Join"):
estimate the best access path per table, pick a cheap driving table, then
repeatedly attach the connected table that keeps the running intermediate
cardinality lowest.  Join selectivity uses the classical 1/max(NDV)
formula over index-sample distinct counts.
"""

import numpy as np

from repro.errors import PlanError
from repro.query.vectorized import eval_mask


def sampled_selectivity(stats, alias, expr):
    """Fraction of rows satisfying ``expr``, estimated over ``stats``'
    reservoir sample.

    ``expr`` names its columns ``alias.column``; it is evaluated by the
    engine's own :func:`eval_mask` over the sample's columns, with
    add-one smoothing.  An empty sample yields the MySQL-ish default of
    0.1.
    """
    if not stats.sample:
        return 0.1
    columns = dict.fromkeys(ref.column for ref in expr.column_refs())
    batch = stats.sample_batch(alias, columns)
    matched = int(np.count_nonzero(eval_mask(expr, batch)))
    return (matched + 1.0) / (len(batch) + 2.0)


def filtered_cardinality(spec, catalog, alias):
    """(selectivity, rows) of one table after its local filter."""
    stats = catalog.table(spec.tables[alias]).statistics
    expr = spec.filter_for(alias)
    if expr is None:
        return 1.0, max(1, stats.row_count)
    selectivity = sampled_selectivity(stats, alias, expr)
    return selectivity, stats.estimated_rows(selectivity)


def join_selectivity(spec, catalog, edge):
    """1/max(NDV) selectivity for one equi-join edge."""
    left_table = catalog.table(spec.tables[edge.left_alias])
    right_table = catalog.table(spec.tables[edge.right_alias])
    left_ndv = left_table.statistics.column(edge.left_column).distinct_estimate
    right_ndv = right_table.statistics.column(
        edge.right_column).distinct_estimate
    ndv = max(left_ndv, right_ndv, 1)
    return 1.0 / ndv


def order_tables(spec, catalog):
    """Compute a left-deep join order.

    Returns ``(ordered_aliases, estimates, cumulative_cards)`` where
    ``estimates[alias]`` is the ``(selectivity, rows)`` of each table
    after its local filter (:func:`filtered_cardinality`, evaluated once
    per alias) and ``cumulative_cards[i]`` estimates the intermediate
    result after joining the first ``i+1`` tables.
    """
    aliases = spec.aliases
    if not aliases:
        raise PlanError("query references no tables")

    estimates = {alias: filtered_cardinality(spec, catalog, alias)
                 for alias in aliases}
    base = {alias: rows for alias, (_selectivity, rows) in estimates.items()}

    if len(aliases) == 1:
        return aliases, estimates, [base[aliases[0]]]

    remaining = set(aliases)
    # Driving table: the connected table with the smallest filtered
    # cardinality (prefer one that has at least one join edge).
    connected = {alias for alias in aliases if spec.edges_for(alias)}
    candidates = connected or remaining
    driving = min(sorted(candidates), key=lambda alias: base[alias])
    order = [driving]
    remaining.discard(driving)
    cumulative = [base[driving]]
    current = float(base[driving])

    while remaining:
        best = None
        best_rows = None
        for alias in sorted(remaining):
            edges = [edge for edge in spec.edges_for(alias)
                     if edge.other(alias)[0] in order]
            if not edges:
                continue
            rows = current * base[alias]
            for edge in edges:
                rows *= join_selectivity(spec, catalog, edge)
            if best is None or rows < best_rows:
                best, best_rows = alias, rows
        if best is None:
            # Disconnected subgraph: fall back to a cartesian step with
            # the smallest table (JOB has none, but users might).
            best = min(sorted(remaining), key=lambda alias: base[alias])
            best_rows = current * base[best]
        order.append(best)
        remaining.discard(best)
        current = max(1.0, best_rows)
        cumulative.append(int(round(current)))

    return order, estimates, cumulative
