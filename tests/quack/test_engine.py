"""End-to-end SQL engine tests: DDL, DML, SELECT features.

Parametrized over both engines: every behaviour must hold on the columnar
quack engine and on the row-store pgsim baseline (they share SQL
semantics; only the execution strategy differs).
"""

import pytest

from repro.pgsim import RowDatabase
from repro.quack import (
    BinderError,
    CatalogError,
    Database,
    ExecutionError,
    ParserError,
)


@pytest.fixture(params=[Database, RowDatabase], ids=["quack", "pgsim"])
def con(request):
    db = request.param()
    con = db.connect()
    con.execute("CREATE TABLE t(a INTEGER, b VARCHAR, c DOUBLE)")
    con.execute(
        "INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), "
        "(3, 'three', 3.5), (NULL, 'null', NULL)"
    )
    return con


class TestBasics:
    def test_select_constant(self, con):
        assert con.execute("SELECT 1 + 1").scalar() == 2

    def test_projection(self, con):
        rows = con.execute("SELECT a, b FROM t WHERE a = 2").fetchall()
        assert rows == [(2, "two")]

    def test_where_nulls_filtered(self, con):
        rows = con.execute("SELECT a FROM t WHERE a > 0").fetchall()
        assert len(rows) == 3

    def test_is_null(self, con):
        assert con.execute(
            "SELECT b FROM t WHERE a IS NULL"
        ).fetchall() == [("null",)]

    def test_order_by(self, con):
        rows = con.execute("SELECT a FROM t WHERE a IS NOT NULL "
                           "ORDER BY a DESC").fetchall()
        assert [r[0] for r in rows] == [3, 2, 1]

    def test_order_by_nulls_last_asc(self, con):
        rows = con.execute("SELECT a FROM t ORDER BY a").fetchall()
        assert rows[-1][0] is None

    def test_limit_offset(self, con):
        rows = con.execute(
            "SELECT a FROM t WHERE a IS NOT NULL ORDER BY a "
            "LIMIT 1 OFFSET 1"
        ).fetchall()
        assert rows == [(2,)]

    def test_distinct(self, con):
        con.execute("INSERT INTO t VALUES (1, 'one', 1.5)")
        rows = con.execute("SELECT DISTINCT a, b FROM t WHERE a = 1")
        assert len(rows) == 1

    def test_case(self, con):
        rows = con.execute(
            "SELECT CASE WHEN a >= 2 THEN 'big' ELSE 'small' END "
            "FROM t WHERE a IS NOT NULL ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == ["small", "big", "big"]

    def test_in_list(self, con):
        rows = con.execute("SELECT a FROM t WHERE a IN (1, 3) ORDER BY a")
        assert [r[0] for r in rows] == [1, 3]

    def test_in_list_with_null_item(self, con):
        # 2 IN (1, NULL) is NULL, not FALSE, so NOT IN keeps no row
        assert con.execute(
            "SELECT a FROM t WHERE a NOT IN (1, NULL)"
        ).fetchall() == []
        assert con.execute(
            "SELECT a FROM t WHERE a IN (1, NULL)"
        ).fetchall() == [(1,)]
        # the IN subquery agrees with the IN list
        assert con.execute(
            "SELECT a FROM t WHERE a NOT IN "
            "(SELECT NULL::INTEGER UNION ALL SELECT 1)"
        ).fetchall() == []

    def test_between(self, con):
        rows = con.execute("SELECT a FROM t WHERE a BETWEEN 2 AND 3 "
                           "ORDER BY a")
        assert [r[0] for r in rows] == [2, 3]

    def test_like(self, con):
        rows = con.execute("SELECT b FROM t WHERE b LIKE 't%' ORDER BY b")
        assert [r[0] for r in rows] == ["three", "two"]

    def test_string_concat(self, con):
        assert con.execute("SELECT 'a' || 1 || 'b'").scalar() == "a1b"

    def test_division_by_zero_is_null(self, con):
        assert con.execute("SELECT 1 / 0").scalar() is None

    def test_three_valued_logic(self, con):
        # NULL AND FALSE is FALSE; NULL AND TRUE is NULL.
        assert con.execute("SELECT count(*) FROM t "
                           "WHERE a > 0 AND b = 'nope'").scalar() == 0


class TestAggregation:
    def test_global_aggregates(self, con):
        row = con.execute(
            "SELECT count(*), count(a), sum(a), min(a), max(a), avg(a) "
            "FROM t"
        ).fetchone()
        assert row == (4, 3, 6, 1, 3, 2.0)

    def test_group_by(self, con):
        con.execute("INSERT INTO t VALUES (1, 'uno', 9.0)")
        rows = con.execute(
            "SELECT a, count(*) FROM t WHERE a IS NOT NULL "
            "GROUP BY a ORDER BY a"
        ).fetchall()
        assert rows == [(1, 2), (2, 1), (3, 1)]

    def test_group_by_expression(self, con):
        rows = con.execute(
            "SELECT a % 2, count(*) FROM t WHERE a IS NOT NULL "
            "GROUP BY a % 2 ORDER BY 1"
        ).fetchall()
        assert rows == [(0, 1), (1, 2)]

    def test_having(self, con):
        con.execute("INSERT INTO t VALUES (1, 'uno', 9.0)")
        rows = con.execute(
            "SELECT a FROM t WHERE a IS NOT NULL GROUP BY a "
            "HAVING count(*) > 1"
        ).fetchall()
        assert rows == [(1,)]

    def test_count_distinct(self, con):
        con.execute("INSERT INTO t VALUES (1, 'x', 0.0)")
        assert con.execute(
            "SELECT count(DISTINCT a) FROM t"
        ).scalar() == 3

    def test_list_aggregate(self, con):
        got = con.execute(
            "SELECT list(a) FROM t WHERE a IS NOT NULL"
        ).scalar()
        assert sorted(got) == [1, 2, 3]

    def test_aggregate_empty_input(self, con):
        row = con.execute("SELECT count(*), sum(a) FROM t WHERE a > 99")
        assert row.fetchone() == (0, None)

    def test_order_by_aggregate(self, con):
        rows = con.execute(
            "SELECT b, count(*) FROM t GROUP BY b ORDER BY count(*) DESC, b"
        )
        assert len(rows) == 4


class TestJoins:
    @pytest.fixture
    def joined(self, con):
        con.execute("CREATE TABLE s(a INTEGER, tag VARCHAR)")
        con.execute("INSERT INTO s VALUES (1, 'x'), (2, 'y'), (9, 'z')")
        return con

    def test_hash_join_from_where(self, joined):
        rows = joined.execute(
            "SELECT t.a, s.tag FROM t, s WHERE t.a = s.a ORDER BY t.a"
        ).fetchall()
        assert rows == [(1, "x"), (2, "y")]

    def test_explicit_join(self, joined):
        rows = joined.execute(
            "SELECT t.a, s.tag FROM t JOIN s ON t.a = s.a ORDER BY t.a"
        ).fetchall()
        assert rows == [(1, "x"), (2, "y")]

    def test_left_join(self, joined):
        rows = joined.execute(
            "SELECT s.a, t.b FROM s LEFT JOIN t ON s.a = t.a ORDER BY s.a"
        ).fetchall()
        assert rows == [(1, "one"), (2, "two"), (9, None)]

    def test_cross_join_count(self, joined):
        assert joined.execute(
            "SELECT count(*) FROM t, s"
        ).scalar() == 12

    def test_non_equi_join(self, joined):
        rows = joined.execute(
            "SELECT t.a, s.a FROM t, s WHERE t.a < s.a AND s.a < 5 "
            "ORDER BY t.a, s.a"
        ).fetchall()
        assert rows == [(1, 2)]

    def test_self_join_aliases(self, joined):
        rows = joined.execute(
            "SELECT t1.a FROM t t1, t t2 "
            "WHERE t1.a = t2.a AND t1.a IS NOT NULL ORDER BY 1"
        )
        assert len(rows) == 3


class TestSubqueries:
    def test_scalar_subquery(self, con):
        assert con.execute(
            "SELECT (SELECT max(a) FROM t)"
        ).scalar() == 3

    def test_in_subquery(self, con):
        rows = con.execute(
            "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a > 1) "
            "ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [2, 3]

    def test_correlated_scalar(self, con):
        rows = con.execute(
            "SELECT a FROM t t1 WHERE a = "
            "(SELECT min(a) FROM t t2 WHERE t2.a >= t1.a)"
        )
        assert len(rows) == 3

    def test_quantified_all(self, con):
        rows = con.execute(
            "SELECT a FROM t WHERE a <= ALL (SELECT a FROM t "
            "WHERE a IS NOT NULL)"
        ).fetchall()
        assert rows == [(1,)]

    def test_quantified_any(self, con):
        rows = con.execute(
            "SELECT a FROM t WHERE a > ANY (SELECT a FROM t "
            "WHERE a IS NOT NULL) ORDER BY a"
        ).fetchall()
        assert [r[0] for r in rows] == [2, 3]

    def test_exists(self, con):
        assert con.execute(
            "SELECT count(*) FROM t WHERE EXISTS (SELECT 1 WHERE 1 = 1)"
        ).scalar() == 4

    def test_correlated_all_like_query7(self, con):
        # The paper's Query 7 shape: <= ALL with correlation.
        con.execute("CREATE TABLE ts(k INTEGER, v INTEGER)")
        con.execute(
            "INSERT INTO ts VALUES (1, 10), (1, 20), (2, 5), (2, 5)"
        )
        rows = con.execute(
            "SELECT k, v FROM ts t1 WHERE t1.v <= ALL "
            "(SELECT t2.v FROM ts t2 WHERE t1.k = t2.k) ORDER BY k, v"
        ).fetchall()
        assert rows == [(1, 10), (2, 5), (2, 5)]


class TestCtes:
    def test_basic(self, con):
        assert con.execute(
            "WITH big AS (SELECT a FROM t WHERE a >= 2) "
            "SELECT count(*) FROM big"
        ).scalar() == 2

    def test_referenced_twice(self, con):
        got = con.execute(
            "WITH c AS (SELECT a FROM t WHERE a IS NOT NULL) "
            "SELECT (SELECT count(*) FROM c) + (SELECT sum(a) FROM c)"
        ).scalar()
        assert got == 9

    def test_chained(self, con):
        assert con.execute(
            "WITH a AS (SELECT 2 AS x), b AS (SELECT x * 10 AS y FROM a) "
            "SELECT y FROM b"
        ).scalar() == 20

    def test_column_aliases(self, con):
        assert con.execute(
            "WITH c(n) AS (SELECT a FROM t WHERE a = 1) SELECT n FROM c"
        ).scalar() == 1


class TestDml:
    def test_update(self, con):
        con.execute("UPDATE t SET c = c * 2 WHERE a = 1")
        assert con.execute(
            "SELECT c FROM t WHERE a = 1"
        ).scalar() == 3.0

    def test_update_all(self, con):
        con.execute("UPDATE t SET b = 'x'")
        assert con.execute(
            "SELECT count(*) FROM t WHERE b = 'x'"
        ).scalar() == 4

    def test_delete(self, con):
        con.execute("DELETE FROM t WHERE a = 1")
        assert con.execute("SELECT count(*) FROM t").scalar() == 3

    def test_delete_all(self, con):
        con.execute("DELETE FROM t")
        assert con.execute("SELECT count(*) FROM t").scalar() == 0

    def test_insert_column_subset(self, con):
        con.execute("INSERT INTO t(a) VALUES (42)")
        row = con.execute("SELECT a, b, c FROM t WHERE a = 42").fetchone()
        assert row == (42, None, None)

    def test_create_table_as(self, con):
        con.execute("CREATE TABLE t2 AS SELECT a, b FROM t WHERE a > 1")
        assert con.execute("SELECT count(*) FROM t2").scalar() == 2


class TestTableFunctions:
    def test_generate_series(self, con):
        rows = con.execute(
            "SELECT i FROM generate_series(1, 5) AS g(i)"
        ).fetchall()
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5]

    def test_generate_series_in_insert(self, con):
        con.execute("CREATE TABLE nums(n BIGINT)")
        con.execute(
            "INSERT INTO nums SELECT i * 2 FROM generate_series(1, 100) "
            "AS g(i)"
        )
        assert con.execute("SELECT count(*), max(n) FROM nums") \
            .fetchone() == (100, 200)

    @pytest.mark.parametrize("call, expected", [
        ("generate_series(3)", [1, 2, 3]),
        ("generate_series(1, 10, 4)", [1, 5, 9]),
        ("generate_series(10, 1, -4)", [10, 6, 2]),
        ("generate_series(3, 1)", []),
        ("range(4)", [1, 2, 3]),
        ("range(1, 10, 4)", [1, 5, 9]),
        # range() excludes its upper bound in either direction
        ("range(5, 1, -1)", [5, 4, 3, 2]),
    ])
    def test_series_values(self, con, call, expected):
        rows = con.execute(f"SELECT * FROM {call}").fetchall()
        assert [r[0] for r in rows] == expected

    @pytest.mark.parametrize("call, message", [
        ("generate_series()", "1 to 3 arguments"),
        ("generate_series(1, 3, 1, 4)", "1 to 3 arguments"),
        ("generate_series(1, 10, 0)", "step cannot be zero"),
        ("range(1, 10, 0)", "step cannot be zero"),
        ("generate_series(1, 2.5)", "constant integers"),
        ("generate_series(1, NULL)", "constant integers"),
        ("generate_series(1, a)", None),
    ])
    def test_bad_arguments_are_binder_errors(self, con, call, message):
        with pytest.raises(BinderError, match=message):
            con.execute(f"SELECT * FROM {call}")


class TestErrors:
    def test_unknown_table(self, con):
        with pytest.raises(CatalogError):
            con.execute("SELECT * FROM nope")

    def test_unknown_column(self, con):
        with pytest.raises(BinderError):
            con.execute("SELECT nope FROM t")

    def test_unknown_function(self, con):
        with pytest.raises(BinderError):
            con.execute("SELECT frobnicate(a) FROM t")

    def test_ambiguous_column(self, con):
        con.execute("CREATE TABLE u(a INTEGER)")
        with pytest.raises(BinderError):
            con.execute("SELECT a FROM t, u")

    def test_duplicate_table(self, con):
        with pytest.raises(CatalogError):
            con.execute("CREATE TABLE t(x INTEGER)")

    def test_scalar_subquery_multiple_rows(self, con):
        with pytest.raises(ExecutionError):
            con.execute("SELECT (SELECT a FROM t)")

    def test_where_requires_boolean(self, con):
        with pytest.raises(BinderError):
            con.execute("SELECT * FROM t WHERE a")


class TestTimestamps:
    def test_timestamp_arithmetic(self, con):
        got = con.execute(
            "SELECT '2025-01-01'::TIMESTAMP + INTERVAL '36 hours'"
        ).scalar()
        from repro.meos.timetypes import parse_timestamptz

        assert got == parse_timestamptz("2025-01-02 12:00:00")

    def test_timestamp_comparison(self, con):
        assert con.execute(
            "SELECT '2025-01-02'::TIMESTAMP > '2025-01-01'::TIMESTAMP"
        ).scalar() is True

    def test_date_part(self, con):
        assert con.execute(
            "SELECT date_part('year', '2025-06-15'::TIMESTAMP)"
        ).scalar() == 2025
