"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("StorageError", "LSMError", "SchemaError",
                     "CatalogError", "ParseError", "PlanError",
                     "ExecutionError", "DeviceOverloadError",
                     "OffloadError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_device_overload_is_execution_error(self):
        assert issubclass(errors.DeviceOverloadError,
                          errors.ExecutionError)

    def test_parse_error_position(self):
        error = errors.ParseError("bad token", position=17)
        assert "17" in str(error)
        assert error.position == 17

    def test_parse_error_without_position(self):
        error = errors.ParseError("bad token")
        assert str(error) == "bad token"
        assert error.position is None

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.LSMError("boom")



def _ordering_cases():
    """``(predicate, column, operand)``: every ordering operator and
    BETWEEN, both operand orders, INT against CHAR as column/literal,
    column/column and a column of another table."""
    pairs = [("t.production_year", "'abc'"), ("t.title", "5"),
             ("t.production_year", "t.title"), ("mc.id", "t.title")]
    cases = []
    for column, operand in pairs:
        for op in ("<", "<=", ">", ">="):
            cases.append((f"{column} {op} {operand}", column, operand))
            cases.append((f"{operand} {op} {column}", column, operand))
        cases.append((f"{column} BETWEEN {operand} AND {operand}",
                      column, operand))
        cases.append((f"{operand} BETWEEN {column} AND {column}",
                      column, operand))
    cases += [
        ("t.production_year BETWEEN 1990 AND 'b'", "t.production_year",
         "'b'"),
        ("NOT (t.production_year < 'abc')", "t.production_year", "'abc'"),
        ("(t.id = 1 OR t.title >= 7)", "t.title", "7"),
    ]
    return cases


class TestTypeMismatchedOrdering:
    """Ordering an INT operand against a CHAR one is a typed
    :class:`~repro.errors.PlanError` at analysis, through ``build_plan``
    and through ``runner.run``; ``=``, ``!=`` and ``IN`` across types
    still plan and run."""

    SQL = ("SELECT t.title FROM title AS t, movie_companies AS mc "
           "WHERE {} AND t.id = mc.movie_id")

    @pytest.mark.parametrize("predicate, column, operand", _ordering_cases())
    def test_plan_and_run_raise_plan_error(self, job_env, predicate, column,
                                           operand):
        from repro.engine.stacks import Stack
        from repro.query.optimizer import build_plan
        sql = self.SQL.format(predicate)
        for attempt in (lambda: build_plan(sql, job_env.catalog),
                        lambda: job_env.runner.run(sql, Stack.NATIVE)):
            with pytest.raises(errors.PlanError) as caught:
                attempt()
            message = str(caught.value)
            assert column in message and operand in message, message

    @pytest.mark.parametrize("predicate, matches", [
        ("t.title = 5", False), ("5 = t.title", False),
        ("t.production_year = 'abc'", False),
        ("t.production_year IN ('a', 'b')", False),
        ("t.title IN (1, 2)", False), ("t.title != 5", True)])
    def test_equality_across_types_runs(self, job_env, predicate, matches):
        from repro.engine.stacks import Stack
        report = job_env.runner.run(self.SQL.format(predicate), Stack.NATIVE)
        assert bool(len(report.result)) is matches

    @pytest.mark.parametrize("predicate", [
        "t.title < 5", "t.production_year < 'abc'",
        "t.production_year BETWEEN 'a' AND 'b'"])
    def test_single_table_query_raises_plan_error(self, job_env, predicate):
        from repro.engine.stacks import Stack
        with pytest.raises(errors.PlanError):
            job_env.runner.run(
                f"SELECT t.title FROM title AS t WHERE {predicate}",
                Stack.NATIVE)
