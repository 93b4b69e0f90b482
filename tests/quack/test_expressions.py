"""Vectorized expression evaluation internals (quack executor)."""

import numpy as np
import pytest

from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.binder import Binder, BinderContext
from repro.quack.executor import ExecutionContext, evaluate
from repro.quack.plan import (
    BoundColumnRef,
    BoundConjunction,
    BoundConstant,
)
from repro.quack.sql import Parser
from repro.quack.types import BIGINT, BOOLEAN, DOUBLE, SQLNULL, VARCHAR
from repro.quack.vector import DataChunk, Vector


def _bind(db, expr_sql: str, columns: dict):
    """Bind an expression over an ad-hoc scope."""
    context = BinderContext(db.catalog, db.functions, db.types)
    binder = Binder(context)
    for name, ltype in columns.items():
        binder.scope.add(None, name, ltype)
    parser = Parser(f"SELECT {expr_sql}")
    stmt = parser.parse_statements()[0]
    return binder.bind_expr(stmt.select_items[0].expr)


def _chunk(columns: dict) -> DataChunk:
    return DataChunk([
        Vector.from_values(ltype, values)
        for (ltype, values) in columns.values()
    ])


@pytest.fixture(scope="module")
def db():
    return Database()


class TestEvaluate:
    def test_arithmetic_vectorized(self, db):
        expr = _bind(db, "a + b * 2", {"a": BIGINT, "b": BIGINT})
        chunk = _chunk({"a": (BIGINT, [1, 2, None]),
                        "b": (BIGINT, [10, 20, 30])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [21, 42, None]

    def test_comparison_numpy_path(self, db):
        expr = _bind(db, "a >= 2", {"a": BIGINT})
        chunk = _chunk({"a": (BIGINT, [1, 2, 3, None])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [False, True, True, None]

    def test_and_three_valued(self, db):
        expr = _bind(db, "a > 0 AND b > 0", {"a": BIGINT, "b": BIGINT})
        chunk = _chunk({
            "a": (BIGINT, [1, 1, -1, None]),
            "b": (BIGINT, [1, None, None, None]),
        })
        got = evaluate(expr, chunk, ExecutionContext())
        # TRUE, NULL, FALSE (false dominates null), NULL
        assert got.to_list() == [True, None, False, None]

    def test_or_three_valued(self, db):
        expr = _bind(db, "a > 0 OR b > 0", {"a": BIGINT, "b": BIGINT})
        chunk = _chunk({
            "a": (BIGINT, [1, -1, -1]),
            "b": (BIGINT, [None, None, 1]),
        })
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [True, None, True]

    def test_case_lazy_branches(self, db):
        expr = _bind(db, "CASE WHEN a > 0 THEN 10 / a ELSE 0 END",
                     {"a": BIGINT})
        chunk = _chunk({"a": (BIGINT, [2, 0, 5])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [5.0, 0, 2.0]

    def test_cast_numeric_vector(self, db):
        expr = _bind(db, "a::DOUBLE / 4", {"a": BIGINT})
        chunk = _chunk({"a": (BIGINT, [1, 2])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [0.25, 0.5]

    def test_cast_rounds_double_to_int(self, db):
        expr = _bind(db, "a::BIGINT", {"a": DOUBLE})
        chunk = _chunk({"a": (DOUBLE, [1.6, 2.4])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [2, 2]

    def test_null_constant_typed(self, db):
        expr = _bind(db, "NULL::VARCHAR", {})
        assert isinstance(expr, BoundConstant)
        assert expr.ltype == VARCHAR

    def test_in_list_with_null_operand(self, db):
        expr = _bind(db, "a IN (1, 2)", {"a": BIGINT})
        chunk = _chunk({"a": (BIGINT, [1, 5, None])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [True, False, None]

    def test_is_null_always_valid(self, db):
        expr = _bind(db, "a IS NULL", {"a": VARCHAR})
        chunk = _chunk({"a": (VARCHAR, ["x", None])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [False, True]
        assert got.all_valid()

    def test_coalesce_handles_null(self, db):
        expr = _bind(db, "coalesce(a, b, 0)", {"a": BIGINT, "b": BIGINT})
        chunk = _chunk({
            "a": (BIGINT, [None, 1, None]),
            "b": (BIGINT, [5, 9, None]),
        })
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [5, 1, 0]

    def test_not(self, db):
        expr = _bind(db, "NOT (a > 1)", {"a": BIGINT})
        chunk = _chunk({"a": (BIGINT, [0, 5])})
        got = evaluate(expr, chunk, ExecutionContext())
        assert got.to_list() == [True, False]


class TestSubqueryCaching:
    @pytest.mark.parametrize("factory", [Database, RowDatabase],
                             ids=["quack", "pgsim"])
    def test_correlated_subquery_cached_per_key(self, factory, monkeypatch):
        con = factory().connect()
        con.execute("CREATE TABLE t(k INTEGER, v INTEGER)")
        con.execute(
            "INSERT INTO t SELECT i % 3, i FROM "
            "generate_series(1, 300) AS g(i)"
        )
        # 300 outer rows but only 3 distinct correlation keys: every row
        # consults the memo, the subquery plan runs once per key.
        lookups, runs = [], []
        lookup = ExecutionContext.subquery_rows

        def counting(self, plan, params, run):
            lookups.append(params)

            def counted_run(plan, ctx):
                runs.append(params)
                return run(plan, ctx)

            return lookup(self, plan, params, counted_run)

        monkeypatch.setattr(ExecutionContext, "subquery_rows", counting)
        result = con.execute(
            "SELECT count(*) FROM t t1 WHERE v = "
            "(SELECT max(v) FROM t t2 WHERE t2.k = t1.k)"
        )
        assert result.scalar() == 3
        assert len(lookups) == 300
        assert sorted(runs) == [(0,), (1,), (2,)]

    def test_uncorrelated_subquery_evaluated_once_logically(self):
        db = Database()
        con = db.connect()
        con.execute("CREATE TABLE t(v INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        got = con.execute(
            "SELECT count(*) FROM t WHERE v < (SELECT max(v) FROM t)"
        ).scalar()
        assert got == 2
