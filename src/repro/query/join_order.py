"""Greedy left-deep join ordering with sampled statistics.

Mirrors the MySQL/MyRocks behaviour the paper relies on (§3.2 "Join"):
:func:`filtered_estimates` estimates each table's filtered rows,
:func:`greedy_order` picks a cheap driving table and repeatedly attaches
the connected table that keeps the intermediate cardinality lowest, and
:func:`cumulative_rows` prices any order by that same step.  Join
selectivity is the classical 1/max(NDV) over index-sample distinct counts.
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


def filtered_estimates(spec, catalog):
    """``alias -> (selectivity, rows)`` of every table after its local
    filter, each filter evaluated once."""
    estimates = {}
    for alias in spec.aliases:
        stats = catalog.table(spec.tables[alias]).statistics
        expr = spec.filter_for(alias)
        if expr is None:
            estimates[alias] = 1.0, max(1, stats.row_count)
        else:
            selectivity = sampled_selectivity(stats, alias, expr)
            estimates[alias] = selectivity, stats.estimated_rows(selectivity)
    return estimates


def join_selectivity(spec, catalog, edge):
    """1/max(NDV) selectivity for one equi-join edge."""
    left_table = catalog.table(spec.tables[edge.left_alias])
    right_table = catalog.table(spec.tables[edge.right_alias])
    left_ndv = left_table.statistics.column(edge.left_column).distinct_estimate
    right_ndv = right_table.statistics.column(
        edge.right_column).distinct_estimate
    ndv = max(left_ndv, right_ndv, 1)
    return 1.0 / ndv


def _links(spec, catalog):
    """``alias -> [(other alias, join selectivity)]`` per edge touching
    the alias, in ``spec.join_edges`` order: the products' float order."""
    links = {alias: [] for alias in spec.aliases}
    for edge in spec.join_edges:
        selectivity = join_selectivity(spec, catalog, edge)
        links[edge.left_alias].append((edge.right_alias, selectivity))
        links[edge.right_alias].append((edge.left_alias, selectivity))
    return links


def _joined_rows(current, rows, links, placed):
    """``current × rows × Π selectivity`` over the ``links`` into
    ``placed``: the rows after joining a table to the prefix."""
    joined = current * rows
    for other, selectivity in links:
        if other in placed:
            joined *= selectivity
    return joined


def greedy_order(spec, catalog, estimates):
    """The greedy left-deep order over ``estimates``: the connected
    table with the fewest rows drives, then each step attaches the table
    joined to the prefix with the fewest :func:`_joined_rows` (ties: the
    first alias in sorted order).  When none is joined, every remaining
    table competes by the same formula: a cartesian step."""
    if not spec.aliases:
        raise PlanError("query references no tables")
    links = _links(spec, catalog)
    remaining = sorted(spec.aliases)
    order = [min([alias for alias in remaining if links[alias]]
                 or remaining, key=lambda alias: estimates[alias][1])]
    remaining.remove(order[0])
    current = float(estimates[order[0]][1])
    while remaining:
        placed = set(order)
        joined = [alias for alias in remaining
                  if any(other in placed for other, _ in links[alias])]
        steps = {alias: _joined_rows(current, estimates[alias][1],
                                     links[alias], placed)
                 for alias in joined or remaining}
        best = min(steps, key=steps.get)
        current = max(1.0, steps[best])
        order.append(best)
        remaining.remove(best)
    return order


def cumulative_rows(spec, catalog, order, estimates):
    """The estimated rows after each join of ``order``: entry ``i`` is
    the intermediate result of its first ``i + 1`` tables."""
    links = _links(spec, catalog)
    cumulative = [estimates[order[0]][1]]
    current = float(cumulative[0])
    for position, alias in enumerate(order[1:], 1):
        current = max(1.0, _joined_rows(current, estimates[alias][1],
                                        links[alias], set(order[:position])))
        cumulative.append(int(round(current)))
    return cumulative
