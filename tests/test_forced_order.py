"""Forced join orders: a plan is derived from inputs, not rewritten.

:func:`~repro.query.optimizer.plan_for` builds the physical plan of any
join order from the same per-alias estimates the greedy order uses.  A
connected left-deep order other than the greedy one must answer the
query with the same rows on every placement: host-only, full NDP and a
split.  Plans are frozen values, so deriving one never touches the
runner's cached plan.
"""

import re
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.bench.experiments import force_bnlj
from repro.engine.stacks import Stack
from repro.errors import PlanError, ReproError
from repro.query.join_order import cumulative_rows, filtered_estimates
from repro.query.optimizer import build_plan, plan_for
from repro.workloads.job_queries import query

QUERIES = ("1a", "6a", "8c")


def _joined_rows_sql(name):
    """JOB query ``name`` with its ``MIN`` aggregates dropped, so every
    joined row is compared, not only the minima."""
    return re.sub(r"MIN\((.*?)\)", r"\1", query(name))


def _connected_order(spec, first, preference):
    """A left-deep order driven by ``first``: each step attaches the
    first alias of ``preference`` joined to the prefix."""
    order = [first]
    while len(order) < len(preference):
        order.append(next(
            alias for alias in preference if alias not in order
            and any(edge.touches(alias) and edge.other(alias)[0] in order
                    for edge in spec.join_edges)))
    return order


def _forced_plans(env, greedy):
    """Plans of two connected orders other than ``greedy``'s: its first
    two tables swapped, and one driven by its last table."""
    spec, catalog = greedy.spec, env.catalog
    estimates = filtered_estimates(spec, catalog)
    aliases = greedy.aliases
    orders = [[aliases[1], aliases[0], *aliases[2:]],
              _connected_order(spec, aliases[-1], aliases)]
    plans = []
    for order in orders:
        assert order != aliases
        plans.append(plan_for(spec, catalog, order, estimates,
                              cumulative_rows(spec, catalog, order,
                                              estimates)))
    return plans


def _rows(report):
    return report.result.sorted_rows()


def _some_split(env, plan):
    """The report of the shallowest Hk, k ≥ 1, the device can host."""
    for k in range(1, plan.table_count):
        try:
            return env.run(plan, Stack.HYBRID, split_index=k)
        except ReproError:
            continue    # pipeline does not fit the device: infeasible
    pytest.fail("no feasible split")


@pytest.mark.parametrize("name", QUERIES)
def test_forced_orders_return_the_greedy_rows(job_env, name):
    greedy = job_env.runner.plan(_joined_rows_sql(name))
    expected = _rows(job_env.run(greedy, Stack.NATIVE))
    assert expected
    for forced in _forced_plans(job_env, greedy):
        assert forced.aliases != greedy.aliases
        assert _rows(job_env.run(forced, Stack.NATIVE)) == expected
        assert _rows(job_env.run(forced, Stack.NDP)) == expected
        assert _rows(_some_split(job_env, forced)) == expected


@pytest.mark.parametrize("name", QUERIES)
def test_forced_plans_leave_the_cached_plan_alone(job_env, name):
    sql = query(name)
    cached = job_env.runner.plan(sql)
    before = repr(cached)
    for forced in [*_forced_plans(job_env, cached), force_bnlj(cached)]:
        job_env.run(forced, Stack.NATIVE)
    assert job_env.runner.plan(sql) is cached
    assert repr(cached) == before
    assert cached == build_plan(sql, job_env.catalog)


def test_plans_are_frozen(job_env):
    plan = job_env.runner.plan(query("1a"))
    with pytest.raises(FrozenInstanceError):
        plan.limit = 1
    with pytest.raises(FrozenInstanceError):
        plan.entries[1].join_algorithm = None
    assert isinstance(plan.entries, tuple)
    assert isinstance(plan.entries[1].join_edges, tuple)
    assert isinstance(replace(plan, entries=list(plan.entries)).entries,
                      tuple)


def test_a_plans_spec_is_frozen_too(job_env):
    sql = query("8c")
    spec = job_env.runner.plan(sql).spec
    with pytest.raises(FrozenInstanceError):
        spec.limit = 1
    with pytest.raises(AttributeError):
        spec.join_edges.append("x")
    with pytest.raises(FrozenInstanceError):
        spec.select_items[0].alias = "x"
    for mapping in (spec.tables, spec.filters, spec.projections):
        with pytest.raises(TypeError):
            mapping["x"] = None
    assert all(isinstance(columns, tuple)
               for columns in spec.projections.values())
    assert job_env.runner.plan(sql).spec == build_plan(
        sql, job_env.catalog).spec


def test_plan_for_needs_every_table_once(job_env):
    plan = job_env.runner.plan(query("1a"))
    estimates = filtered_estimates(plan.spec, job_env.catalog)
    rows = [1] * plan.table_count
    with pytest.raises(PlanError):
        plan_for(plan.spec, job_env.catalog, plan.aliases[:-1], estimates,
                 rows)
    with pytest.raises(PlanError):
        plan_for(plan.spec, job_env.catalog,
                 [plan.aliases[0], *plan.aliases[:-1]], estimates, rows)
