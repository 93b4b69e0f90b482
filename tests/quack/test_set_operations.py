"""UNION / UNION ALL / EXCEPT / INTERSECT on both engines.

Both engines combine rows through one function,
``LogicalSetOp.combine``, so the expected rows here are worked out by
hand rather than compared between engines.
"""

import math

import pytest

from repro.pgsim import RowDatabase
from repro.quack import BinderError, Database


def _make(factory):
    con = factory().connect()
    con.execute("CREATE TABLE t(a INTEGER, b VARCHAR)")
    con.execute(
        "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (2, 'y')"
    )
    return con


@pytest.fixture(params=[Database, RowDatabase], ids=["quack", "pgsim"])
def con(request):
    return _make(request.param)


class TestSetOperations:
    def test_union_all_keeps_duplicates(self, con):
        rows = con.execute(
            "SELECT a FROM t WHERE a <= 2 UNION ALL "
            "SELECT a FROM t WHERE a >= 2 ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [1, 2, 2, 2, 2, 3]

    def test_union_deduplicates(self, con):
        rows = con.execute(
            "SELECT a FROM t UNION SELECT a FROM t ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_except(self, con):
        rows = con.execute(
            "SELECT a FROM t EXCEPT SELECT a FROM t WHERE a = 2 ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [1, 3]

    def test_intersect(self, con):
        rows = con.execute(
            "SELECT a FROM t WHERE a <= 2 INTERSECT "
            "SELECT a FROM t WHERE a >= 2"
        ).fetchall()
        assert rows == [(2,)]

    def test_except_all_keeps_surplus_copies(self, con):
        # 2 appears twice on the left and never on the right
        rows = con.execute(
            "SELECT a FROM t EXCEPT ALL SELECT a FROM t WHERE a = 3 "
            "ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [1, 2, 2]

    def test_except_all_subtracts_copies(self, con):
        # two copies of 2 on the left, one on the right: one survives
        rows = con.execute(
            "SELECT a FROM t EXCEPT ALL SELECT 2 ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_intersect_all_keeps_common_copies(self, con):
        rows = con.execute(
            "SELECT a FROM t INTERSECT ALL SELECT a FROM t ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [1, 2, 2, 3]

    def test_intersect_all_takes_the_smaller_count(self, con):
        # two copies of 2 on the left, one on the right
        rows = con.execute(
            "SELECT a FROM t INTERSECT ALL SELECT 2"
        ).fetchall()
        assert rows == [(2,)]

    def test_chained_unions(self, con):
        rows = con.execute(
            "SELECT 1 AS v UNION ALL SELECT 2 UNION ALL SELECT 3 "
            "ORDER BY v DESC"
        ).fetchall()
        assert [r[0] for r in rows] == [3, 2, 1]

    def test_order_by_output_name(self, con):
        rows = con.execute(
            "SELECT a AS v, b FROM t WHERE a = 1 UNION "
            "SELECT a, b FROM t WHERE a = 3 ORDER BY v DESC"
        ).fetchall()
        assert [r[0] for r in rows] == [3, 1]

    def test_limit_applies_to_whole(self, con):
        rows = con.execute(
            "SELECT a FROM t UNION ALL SELECT a FROM t LIMIT 5"
        ).fetchall()
        assert len(rows) == 5

    def test_multi_column(self, con):
        rows = con.execute(
            "SELECT a, b FROM t UNION SELECT a, b FROM t ORDER BY 1, 2"
        ).fetchall()
        assert rows == [(1, "x"), (2, "y"), (3, "z")]

    def test_column_count_mismatch(self, con):
        with pytest.raises(BinderError):
            con.execute("SELECT a, b FROM t UNION SELECT a FROM t")

    def test_union_in_subquery(self, con):
        got = con.execute(
            "SELECT count(*) FROM ("
            "SELECT a FROM t UNION SELECT a + 10 FROM t) s"
        ).scalar()
        assert got == 6

    def test_union_in_cte(self, con):
        got = con.execute(
            "WITH u AS (SELECT a FROM t WHERE a = 1 UNION "
            "SELECT a FROM t WHERE a = 3) SELECT sum(a) FROM u"
        ).scalar()
        assert got == 4

    def test_explain_shows_set_op(self, con):
        plan = con.explain("SELECT a FROM t UNION SELECT a FROM t")
        assert "UNION" in plan


def _label(value):
    """NULL, NaN and zero of either sign as one comparable label each."""
    if value is None:
        return "NULL"
    if math.isnan(value):
        return "NaN"
    return repr(value + 0.0)


@pytest.fixture(params=[Database, RowDatabase], ids=["quack", "pgsim"])
def doubles(request):
    """l: NULL, NaN and zero twice each (one zero negative) and 1.0;
    r: NULL, NaN and -0.0 once each."""
    con = request.param().connect()
    con.execute("CREATE TABLE l(x DOUBLE)")
    con.execute("CREATE TABLE r(x DOUBLE)")
    nan = float("nan")
    con.database.catalog.get_table("l").append_rows(
        [(None,), (nan,), (0.0,), (None,), (nan,), (-0.0,), (1.0,)]
    )
    con.database.catalog.get_table("r").append_rows(
        [(nan,), (None,), (-0.0,)]
    )
    return con


class TestMultisetKeys:
    """NULL equals NULL, all NaNs are one value and -0.0 equals 0.0."""

    @pytest.mark.parametrize("op, expected", [
        ("EXCEPT ALL", ["0.0", "1.0", "NULL", "NaN"]),
        ("INTERSECT ALL", ["0.0", "NULL", "NaN"]),
        ("EXCEPT", ["1.0"]),
        ("INTERSECT", ["0.0", "NULL", "NaN"]),
        ("UNION", ["0.0", "1.0", "NULL", "NaN"]),
    ])
    def test_double_keys(self, doubles, op, expected):
        rows = doubles.execute(
            f"SELECT x FROM l {op} SELECT x FROM r"
        ).fetchall()
        assert sorted(_label(x) for (x,) in rows) == expected
