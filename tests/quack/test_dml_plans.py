"""UPDATE and DELETE are plans: ``PROJECTION [rowid, new values] /
FILTER / SEQ_SCAN``, bound, optimized and run like a SELECT on both
engines, then applied by the table.

So a WHERE that SELECT prunes by zone map or answers by index scan is
pruned or index-scanned here too, a SET expression runs only on the
rows the WHERE keeps, and EXPLAIN prints the plan.  The statements that
read the table they write, correlated subqueries in SET, indexed and
attached tables are checked against pgsim's rows."""

from __future__ import annotations

import pytest

from repro import core, meos
from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.errors import BinderError

ENGINES = {"quack": Database, "pgsim": RowDatabase}


@pytest.fixture(params=sorted(ENGINES))
def con(request):
    return ENGINES[request.param]().connect()


def _rows(con, table: str = "t") -> list[tuple]:
    return sorted(con.execute(f"SELECT * FROM {table}").fetchall(),
                  key=repr)


def _on_both(*statements: str, setup=()) -> list[tuple]:
    """Run ``setup`` then ``statements`` on each engine; the final rows
    of ``t``, equal on both."""
    results = []
    for database in (Database, RowDatabase):
        con = database().connect()
        for sql in (*setup, *statements):
            con.execute(sql)
        results.append(_rows(con))
    quack, pgsim = results
    assert quack == pgsim
    return quack


def _six_thousand(con) -> None:
    """6,000 rows in three row groups, ``a`` ascending."""
    con.execute("CREATE TABLE t(a BIGINT, b BIGINT)")
    con.execute("INSERT INTO t SELECT i, i % 7 "
                "FROM generate_series(1, 6000) AS g(i)")


class TestSetRunsOnKeptRows:
    def test_set_cast_skips_rows_the_where_rejects(self, con):
        con.execute("CREATE TABLE t(a BIGINT, s VARCHAR)")
        con.execute("INSERT INTO t VALUES (1, '5'), (2, 'x')")
        result = con.execute(
            "UPDATE t SET a = CAST(s AS BIGINT) WHERE s <> 'x'"
        )
        assert result.fetchall() == [(1,)]
        assert _rows(con) == [(2, "x"), (5, "5")]


class TestWherePlansLikeSelect:
    def test_delete_skips_row_groups(self):
        con = Database().connect()
        _six_thousand(con)
        select = con.execute("SELECT count(*) FROM t WHERE a < 100").stats()
        stats = con.execute("DELETE FROM t WHERE a < 100").stats()
        assert select.counter("storage.rowgroups_skipped") == 2
        assert stats.counter("storage.rowgroups_skipped") == 2
        assert con.execute("SELECT count(*) FROM t").scalar() == 6000 - 99

    def test_update_skips_row_groups(self):
        con = Database().connect()
        _six_thousand(con)
        stats = con.execute("UPDATE t SET b = -1 WHERE a > 5990").stats()
        assert stats.counter("storage.rowgroups_skipped") == 2
        assert con.execute(
            "SELECT min(a), count(*) FROM t WHERE b = -1"
        ).fetchall() == [(5991, 10)]

    def test_pgsim_delete_scans_the_index(self):
        con = RowDatabase().connect()
        _six_thousand(con)
        con.execute("CREATE INDEX ta ON t USING BTREE(a)")
        stats = con.execute("DELETE FROM t WHERE a = 5").stats()
        assert stats.counter("executor.index_scans") == 1
        assert con.execute(
            "SELECT count(*) FROM t WHERE a BETWEEN 4 AND 6"
        ).scalar() == 2

    def test_explain_pushes_the_filter_into_the_scan(self):
        con = Database().connect()
        _six_thousand(con)
        assert con.explain("DELETE FROM t WHERE a < 100").splitlines() == [
            "PROJECTION [rowid]",
            "  FILTER",
            "    SEQ_SCAN t [zonemap: a <]",
        ]
        assert con.explain(
            "UPDATE t SET b = a + 1 WHERE a > 5990"
        ).splitlines() == [
            "PROJECTION [rowid, b]",
            "  FILTER",
            "    SEQ_SCAN t [zonemap: a >]",
        ]
        row = RowDatabase().connect()
        _six_thousand(row)
        row.execute("CREATE INDEX ta ON t USING BTREE(a)")
        assert row.explain("DELETE FROM t WHERE a = 5").splitlines() == [
            "PROJECTION [rowid]",
            "  FILTER",
            "    BTREE_INDEX_SCAN t (a = …)",
        ]

    def test_explain_analyze_of_dml_is_refused(self, con):
        con.execute("CREATE TABLE t(a BIGINT)")
        with pytest.raises(BinderError, match="SELECT"):
            con.execute("EXPLAIN ANALYZE UPDATE t SET a = 1")
        assert _rows(con) == []


class TestAgainstPgsim:
    SETUP = (
        "CREATE TABLE t(a BIGINT, b BIGINT, s VARCHAR)",
        "INSERT INTO t SELECT i, i % 5, 'r' || i "
        "FROM generate_series(1, 30) AS g(i)",
    )

    def test_update_after_delete(self):
        rows = _on_both(
            "DELETE FROM t WHERE a % 3 = 0",
            "UPDATE t SET b = a * 10, s = s || '!' WHERE a > 20",
            setup=self.SETUP,
        )
        assert len(rows) == 20
        assert (22, 220, "r22!") in rows and (21, 1, "r21") not in rows
        assert (20, 0, "r20") in rows

    def test_delete_reads_the_table_it_writes(self):
        rows = _on_both(
            "DELETE FROM t WHERE a IN (SELECT a FROM t WHERE b = 0)",
            "DELETE FROM t WHERE a > (SELECT avg(a) FROM t)",
            setup=self.SETUP,
        )
        # 24 rows survive the first delete, averaging 15.5
        assert [row[0] for row in sorted(rows)] == [
            a for a in range(1, 16) if a % 5
        ]

    def test_correlated_subquery_in_set(self):
        rows = _on_both(
            "CREATE TABLE u(k BIGINT, y BIGINT)",
            "INSERT INTO u VALUES (1, 5), (1, 7), (2, 3), (40, 1)",
            "UPDATE t SET b = (SELECT max(y) FROM u WHERE u.k = t.a) "
            "WHERE a < 4",
            setup=self.SETUP,
        )
        assert [row[:2] for row in sorted(rows)[:4]] == [
            (1, 7), (2, 3), (3, None), (4, 4)
        ]

    def test_two_column_set_on_an_indexed_table(self):
        box = ("CAST('STBOX X((' || {0} || ',' || {0} || '),(' || "
               "({0} + 1) || ',' || ({0} + 1) || '))' AS STBOX)")
        probe = ("SELECT id FROM t WHERE b && "
                 "STBOX 'STBOX X((104,104),(112,112))' ORDER BY id")
        results = []
        for con, index in ((core.connect(), "TRTREE"),
                           (core.connect_baseline(), "GIST")):
            con.execute("CREATE TABLE t(id BIGINT, b STBOX)")
            con.execute(f"INSERT INTO t SELECT i, {box.format('i')} "
                        "FROM generate_series(1, 40) AS g(i)")
            con.execute(f"CREATE INDEX tb ON t USING {index}(b)")
            con.execute(
                f"UPDATE t SET id = id + 1000, b = {box.format('id + 100')} "
                "WHERE b && STBOX 'STBOX X((5,5),(20,20))'"
            )
            assert f"{index}_INDEX_SCAN" in con.explain(probe)
            results.append(con.execute(probe).fetchall())
        quack, pgsim = results
        assert quack == pgsim == [(1000 + i,) for i in range(4, 13)]

    def test_attached_table_round_trips(self, tmp_path):
        path = tmp_path / "dml.quackdb"
        con = Database().connect()
        for sql in self.SETUP:
            con.execute(sql)
        con.execute(f"CHECKPOINT '{path}'")
        statements = (
            "DELETE FROM t WHERE b = 1",
            "UPDATE t SET s = 'u' || a, b = b + 100 WHERE a > 12",
        )
        attached = Database().connect()
        attached.execute(f"ATTACH '{path}'")
        for sql in statements:
            attached.execute(sql)
        attached.execute("CHECKPOINT")
        reopened = Database().connect()
        reopened.execute(f"ATTACH '{path}'")
        rows = _on_both(*statements, setup=self.SETUP)
        assert _rows(attached) == _rows(reopened) == rows
        assert (13, 103, "u13") in rows and len(rows) == 24


class TestUpdateReplacesOnlyItsSegments:
    """An UPDATE replaces, in each assigned column, only the segments
    holding the rows it writes: every other segment keeps its stored
    bytes, its zone entry and its derived views."""

    ROWS = 100_000  # 49 row groups

    def _load(self, con):
        con.execute("CREATE TABLE t(a BIGINT, b BIGINT, s VARCHAR)")
        con.database.catalog.get_table("t").append_rows(
            [(i, i, f"s{i % 11}") for i in range(self.ROWS)])

    def test_attached_update_decodes_and_rewrites_one_segment(
            self, tmp_path, unverified):
        path = tmp_path / "t.quackdb"
        con = Database().connect()
        self._load(con)
        con.execute(f"CHECKPOINT '{path}'")
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")
        update = "UPDATE t SET s = 'y' WHERE b = 3"
        stats = att.execute(update).stats()
        assert stats.counter("storage.segments_decoded") <= 2
        att.execute(f"CHECKPOINT '{tmp_path / 'next.quackdb'}'")
        assert att.last_query_stats.counter(
            "storage.segments_copied") == 49 * 3 - 1
        skip = att.execute("SELECT count(*) FROM t WHERE b < 100").stats()
        assert skip.counter("storage.rowgroups_skipped") == 48
        row = RowDatabase().connect()
        self._load(row)
        row.execute(update)
        assert _rows(att) == _rows(row)

    def test_untouched_groups_keep_their_layout(self, unverified):
        con = _trips()
        con.execute("SELECT max(length(trip)) FROM tr").fetchall()
        con.execute("UPDATE tr SET trip = '[POINT(0 0)@2020-01-01, "
                    "POINT(3 4)@2020-01-02]' WHERE id = 3")
        result = con.execute(
            "SELECT max(length(trip)) FROM tr WHERE id >= 2048")
        assert result.stats().counter("quack.view_builds.tcsr") <= 1
        assert result.fetchall() == [(2 ** 0.5,)]

    def test_zone_maps_lay_out_only_the_columns_a_scan_prunes_on(
            self, unverified):
        """The WHERE prunes on ``id``: neither the UPDATE nor the SELECT
        lays out a ``trip`` view for a zone entry; the SELECT lays out
        the one group its ``length`` reads."""
        con = _trips()
        update = con.execute("UPDATE tr SET trip = '[POINT(0 0)@2020-01-01, "
                             "POINT(3 4)@2020-01-02]' WHERE id = 3").stats()
        assert update.counter("storage.rowgroups_skipped") == 1
        assert update.counter("quack.view_builds.tcsr") == 0
        assert update.counter("quack.view_builds.box_soa.tpoint") == 0
        select = con.execute(
            "SELECT max(length(trip)) FROM tr WHERE id >= 2048")
        stats = select.stats()
        assert stats.counter("storage.rowgroups_skipped") == 1
        assert stats.counter("quack.view_builds.tcsr") == 1
        assert stats.counter("quack.view_builds.box_soa.tpoint") == 0
        assert select.fetchall() == [(2 ** 0.5,)]


def _trips():
    """An in-memory 4,096-row ``tr(id BIGINT, trip TGEOMPOINT)``: two
    row groups."""
    con = core.connect()
    con.execute("CREATE TABLE tr(id BIGINT, trip TGEOMPOINT)")
    con.database.catalog.get_table("tr").append_rows([
        (i, meos.tgeompoint(f"[POINT({i % 50} 0)@2020-01-01, "
                            f"POINT({i % 50 + 1} 1)@2020-01-02]"))
        for i in range(4096)
    ])
    return con
