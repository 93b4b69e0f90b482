"""Subquery and IN-list results pinned by hand on both engines.

Both engines compute subquery, IN and quantified-comparison results
through one shared rule (``plan.quantify`` / ``BoundSubqueryExpr.result``),
so a quack-vs-pgsim differential test cannot catch a bug in it.  Every
expected value here is worked out from SQL's three-valued logic instead:
``x IN S`` is ``x = ANY S``; ANY is TRUE when one comparison is TRUE, ALL
is FALSE when one is FALSE; otherwise a NULL comparison makes the result
NULL, and over the empty set ANY is FALSE and ALL TRUE, whatever x is.
``=`` and ``<>`` make NaN equal to NaN, as PostgreSQL and DuckDB do;
the ordering comparisons follow IEEE 754 (NaN compares FALSE with every
value), and ``0.0 = -0.0``.
"""

import math

import pytest

from repro.pgsim import RowDatabase
from repro.quack import Database, ExecutionError

NAN = float("nan")

#: The sets the subqueries read: empty, one holding NULL, one holding
#: NaN and both zeros.
SETS = {
    "empty": [],
    "nul": [(1.0,), (None,)],
    "zeros": [(NAN,), (0.0,), (-0.0,)],
}


@pytest.fixture(params=[Database, RowDatabase], ids=["quack", "pgsim"])
def con(request):
    con = request.param().connect()
    for name, rows in SETS.items():
        con.execute(f"CREATE TABLE {name}(x DOUBLE)")
        if rows:
            con.database.catalog.get_table(name).append_rows(rows)
    return con


def _value(con, sql):
    return con.execute(f"SELECT {sql}").fetchall()[0][0]


NULL = "CAST(NULL AS DOUBLE)"
NAN_SQL = "CAST('NaN' AS DOUBLE)"

#: (operand, set, {predicate: expected}) with None for NULL.
CASES = [
    (NULL, "empty", {"IN": False, "NOT IN": True, "= ANY": False,
                     "<> ALL": True, "<= ALL": True}),
    ("0.0", "empty", {"IN": False, "NOT IN": True, "= ANY": False,
                      "<> ALL": True, "<= ALL": True}),
    (NULL, "nul", {"IN": None, "NOT IN": None, "= ANY": None,
                   "<> ALL": None, "<= ALL": None}),
    # 0 = 1 is FALSE, 0 = NULL is NULL: nothing TRUE, so NULL; 0 <= 1
    # and 0 <> 1 are TRUE, the NULL comparison leaves ALL NULL.
    ("0.0", "nul", {"IN": None, "NOT IN": None, "= ANY": None,
                    "<> ALL": None, "<= ALL": None}),
    # 1 = 1 decides IN and = ANY; 1 <> 1 is FALSE, which decides <> ALL.
    ("1.0", "nul", {"IN": True, "NOT IN": False, "= ANY": True,
                    "<> ALL": False, "<= ALL": None}),
    (NULL, "zeros", {"IN": None, "NOT IN": None, "= ANY": None,
                     "<> ALL": None, "<= ALL": None}),
    # 0.0 = -0.0; 0.0 <= NaN is FALSE.
    ("0.0", "zeros", {"IN": True, "NOT IN": False, "= ANY": True,
                      "<> ALL": False, "<= ALL": False}),
    # 1.0 equals none of NaN, 0.0, -0.0 and differs from all of them.
    ("1.0", "zeros", {"IN": False, "NOT IN": True, "= ANY": False,
                      "<> ALL": True, "<= ALL": False}),
    # NaN = NaN is TRUE; NaN <= NaN stays FALSE.
    (NAN_SQL, "zeros", {"IN": True, "NOT IN": False, "= ANY": True,
                        "<> ALL": False, "<= ALL": False}),
    # NaN = 1 is FALSE, NaN = NULL NULL; NaN <> 1 is TRUE; NaN <= 1 FALSE.
    (NAN_SQL, "nul", {"IN": None, "NOT IN": None, "= ANY": None,
                      "<> ALL": None, "<= ALL": False}),
]


@pytest.mark.parametrize(
    "operand, table, predicate, expected",
    [
        (operand, table, predicate, expected)
        for operand, table, verdicts in CASES
        for predicate, expected in verdicts.items()
    ],
)
def test_set_predicate(con, operand, table, predicate, expected):
    sql = f"{operand} {predicate} (SELECT x FROM {table})"
    assert _value(con, sql) is expected


class TestScalarSubquery:
    def test_no_row_is_null(self, con):
        assert _value(con, "(SELECT x FROM empty)") is None

    def test_one_row_is_its_value(self, con):
        assert _value(con, "(SELECT x FROM nul WHERE x = 1.0)") == 1.0

    def test_two_rows_raise(self, con):
        with pytest.raises(ExecutionError, match="more than one row"):
            _value(con, "(SELECT x FROM nul)")

    def test_nan_row(self, con):
        assert math.isnan(
            _value(con, "(SELECT x FROM zeros WHERE NOT x = 0.0)")
        )


class TestExists:
    @pytest.mark.parametrize("table, exists", [
        ("empty", False),
        ("nul", True),
        # A row holding only NULL is still a row.
        ("(SELECT x FROM nul WHERE x IS NULL) s", True),
    ])
    def test_exists_and_not_exists(self, con, table, exists):
        assert _value(con, f"EXISTS (SELECT * FROM {table})") is exists
        assert _value(con, f"NOT EXISTS (SELECT * FROM {table})") is (
            not exists
        )


class TestInList:
    @pytest.mark.parametrize("sql, expected", [
        ("2 IN (1, NULL)", None),
        ("2 NOT IN (1, NULL)", None),
        ("1 IN (1, NULL)", True),
        ("1 NOT IN (1, NULL)", False),
        ("2 IN (1, 3)", False),
        ("2 NOT IN (1, 3)", True),
        ("NULL IN (1, 3)", None),
        ("0.0 IN (-0.0)", True),
        ("CAST('NaN' AS DOUBLE) IN (1.0, 2.0)", False),
        ("CAST('NaN' AS DOUBLE) IN (1.0, CAST('NaN' AS DOUBLE))", True),
    ])
    def test_three_valued(self, con, sql, expected):
        assert _value(con, sql) is expected


class TestCorrelatedMemo:
    """A correlated subquery runs once per distinct outer value; the memo
    tells values apart exactly as the subquery could."""

    def test_negative_zero_is_not_zero(self, con):
        con.execute("CREATE TABLE s(x DOUBLE)")
        con.execute("CREATE TABLE one(i INTEGER)")
        con.database.catalog.get_table("s").append_rows([(0.0,), (-0.0,)])
        con.execute("INSERT INTO one VALUES (1)")
        assert con.execute(
            "SELECT CAST(x AS VARCHAR),"
            " (SELECT CAST(s.x AS VARCHAR) FROM one) FROM s"
        ).fetchall() == [("0.0", "0.0"), ("-0.0", "-0.0")]

    def test_list_outer_value(self, con):
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (2)")
        assert con.execute(
            "WITH s AS (SELECT a, list(a) AS l FROM t GROUP BY a)"
            " SELECT a, (SELECT count(*) FROM t WHERE s.l IS NOT NULL"
            " AND t.a = s.a) FROM s ORDER BY a"
        ).fetchall() == [(1, 1), (2, 2)]
