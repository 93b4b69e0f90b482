"""Row-store baseline engine tests: volcano execution, varlena, indexes."""

import pytest

from repro import core
from repro.pgsim import RowConnection, RowDatabase
from repro.pgsim.table import Varlena, detoast, toast
from repro.quack import Connection, Database
from repro.quack.catalog import Catalog
from repro.quack.errors import CatalogError


@pytest.fixture
def con():
    db = RowDatabase()
    con = db.connect()
    con.execute("CREATE TABLE t(a INTEGER, b VARCHAR)")
    con.execute(
        "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')"
    )
    return con


class TestBasics:
    def test_select(self, con):
        rows = con.execute("SELECT a, b FROM t WHERE a >= 2 ORDER BY a")
        assert rows.fetchall() == [(2, "two"), (3, "three")]

    def test_aggregates(self, con):
        assert con.execute("SELECT count(*), sum(a) FROM t") \
            .fetchone() == (3, 6)

    def test_group_by(self, con):
        rows = con.execute(
            "SELECT a % 2, count(*) FROM t GROUP BY a % 2 ORDER BY 1"
        ).fetchall()
        assert rows == [(0, 1), (1, 2)]

    def test_cte(self, con):
        assert con.execute(
            "WITH c AS (SELECT a * 10 AS x FROM t) SELECT sum(x) FROM c"
        ).scalar() == 60

    def test_subquery(self, con):
        assert con.execute(
            "SELECT a FROM t WHERE a = (SELECT max(a) FROM t)"
        ).scalar() == 3

    def test_update_delete(self, con):
        con.execute("UPDATE t SET b = 'ONE' WHERE a = 1")
        assert con.execute("SELECT b FROM t WHERE a = 1").scalar() == "ONE"
        con.execute("DELETE FROM t WHERE a > 1")
        assert con.execute("SELECT count(*) FROM t").scalar() == 1

    def test_left_join(self, con):
        con.execute("CREATE TABLE s(a INTEGER, z VARCHAR)")
        con.execute("INSERT INTO s VALUES (1, 'x')")
        rows = con.execute(
            "SELECT t.a, s.z FROM t LEFT JOIN s ON t.a = s.a ORDER BY t.a"
        ).fetchall()
        assert rows == [(1, "x"), (2, None), (3, None)]


class TestConnectionLayer:
    """pgsim shares quack's connection layer but stays its own class."""

    def test_wrapping_row_execute_leaves_quack_untouched(self, monkeypatch):
        # The benchmark's span recorder wraps RowConnection.execute by
        # assigning to the class attribute; quack must not see it.
        quack_execute = Connection.execute
        calls = []
        original = RowConnection.execute

        def wrapped(self, sql):
            calls.append(sql)
            return original(self, sql)

        monkeypatch.setattr(RowConnection, "execute", wrapped)
        assert Connection.execute is quack_execute
        Database().connect().execute("SELECT 1")
        assert calls == []
        RowDatabase().connect().execute("SELECT 2")
        assert calls == ["SELECT 2"]

    def test_row_database_is_not_a_quack_database(self):
        # core.extension registers TRTREE by this isinstance check
        db = RowDatabase()
        assert not isinstance(db, Database)
        db.load_extension(core)
        assert not db.config.index_types.known("TRTREE")


@pytest.fixture(params=["quack", "pgsim"])
def engine_con(request):
    # each engine with an index type over STBOX: TRTREE on quack, GiST
    # on pgsim
    if request.param == "quack":
        return core.connect(), "TRTREE"
    return core.connect_baseline(), "GIST"


class TestSharedCatalog:
    """Both engines keep tables and indexes in ``quack.catalog.Catalog``,
    so DDL behaves identically on each."""

    def test_row_database_uses_quack_catalog(self):
        assert type(RowDatabase().catalog) is Catalog

    def test_duplicate_table_rejected(self, engine_con):
        con, _ = engine_con
        con.execute("CREATE TABLE t(a INTEGER)")
        with pytest.raises(CatalogError, match="table 'T' already exists"):
            con.execute("CREATE TABLE T(b INTEGER)")
        con.execute("CREATE TABLE IF NOT EXISTS t(b INTEGER)")
        assert con.execute("SELECT count(*) FROM t").scalar() == 0

    def test_drop_missing_table(self, engine_con):
        con, _ = engine_con
        with pytest.raises(CatalogError, match="table 'nope' does not exist"):
            con.execute("DROP TABLE nope")
        con.execute("DROP TABLE IF EXISTS nope")

    def test_names_are_case_insensitive(self, engine_con):
        con, _ = engine_con
        con.execute("CREATE TABLE Trips(a INTEGER)")
        con.execute("INSERT INTO TRIPS VALUES (7)")
        assert con.execute("SELECT a FROM trips").scalar() == 7
        assert con.database.catalog.has_table("tRiPs")

    def test_create_or_replace_table(self, engine_con):
        con, _ = engine_con
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute("INSERT INTO t VALUES (1)")
        con.execute("CREATE OR REPLACE TABLE t(b VARCHAR)")
        assert con.execute("SELECT count(*) FROM t").scalar() == 0
        assert con.database.catalog.get_table("t").column_names == ["b"]

    def test_drop_table_drops_its_indexes(self, engine_con):
        con, index_type = engine_con
        con.execute("CREATE TABLE g(box STBOX)")
        con.execute(f"CREATE INDEX gx ON g USING {index_type}(box)")
        with pytest.raises(CatalogError, match="index 'gx' already exists"):
            con.execute(f"CREATE INDEX gx ON g USING {index_type}(box)")
        con.execute("DROP TABLE g")
        assert con.database.catalog.indexes == {}
        con.execute("CREATE TABLE g(box STBOX)")
        con.execute(f"CREATE INDEX gx ON g USING {index_type}(box)")
        assert [i.name for i in
                con.database.catalog.get_table("g").indexes] == ["gx"]


class TestVarlena:
    def test_heavy_values_toasted(self):
        from repro.meos import tstzspan

        value = tstzspan("[2025-01-01, 2025-01-02]")
        wrapped = toast(value)
        assert isinstance(wrapped, Varlena)
        assert detoast(wrapped) == value

    def test_scalars_stay_inline(self):
        assert toast(5) == 5
        assert toast("abc") == "abc"
        assert toast(None) is None

    def test_temporal_round_trip_through_heap(self):
        con = core.connect_baseline()
        con.execute("CREATE TABLE trips(trip TGEOMPOINT)")
        con.execute(
            "INSERT INTO trips VALUES "
            "('[Point(0 0)@2025-01-01, Point(3 4)@2025-01-02]')"
        )
        # The stored datum is toasted...
        table = con.database.catalog.get_table("trips")
        assert isinstance(table.rows[0][0], Varlena)
        # ...and queries see the original value.
        assert con.execute("SELECT length(trip) FROM trips").scalar() == 5.0

    def test_geometry_pickle_round_trip(self):
        from repro.geo import parse_wkt

        geom = parse_wkt("SRID=4326;POLYGON((0 0, 1 0, 1 1, 0 0))")
        assert detoast(toast(geom)) == geom

    def test_span_and_set_pickle(self):
        from repro.meos import geomset, intset, tstzspanset

        for value in (
            intset("{1, 2, 3}"),
            tstzspanset("{[2025-01-01, 2025-01-02]}"),
            geomset("{Point(0 0)}"),
        ):
            assert detoast(toast(value)) == value


class TestIndexes:
    def test_btree_used_for_equality(self, con):
        con.execute("CREATE INDEX ia ON t USING BTREE(a)")
        plan = con.explain("SELECT * FROM t WHERE a = 2")
        assert "BTREE_INDEX_SCAN" in plan
        assert con.execute("SELECT b FROM t WHERE a = 2").scalar() == "two"

    def test_gist_on_temporal_column(self):
        con = core.connect_baseline()
        con.execute("CREATE TABLE trips(id INTEGER, trip TGEOMPOINT)")
        con.execute(
            "INSERT INTO trips SELECT i, ('[Point(' || i || ' 0)@2025-01-01"
            ", Point(' || (i + 1) || ' 0)@2025-01-02]') "
            "FROM generate_series(1, 50) AS t(i)"
        )
        con.execute("CREATE INDEX g ON trips USING GIST(trip)")
        query = (
            "SELECT count(*) FROM trips WHERE trip && "
            "stbox 'STBOX X((10.0,-1.0),(12.0,1.0))'"
        )
        plan = con.explain(query)
        assert "GIST_INDEX_SCAN" in plan
        got = con.execute(query).scalar()

        # Same result without the index.
        plain = core.connect_baseline()
        plain.execute("CREATE TABLE trips(id INTEGER, trip TGEOMPOINT)")
        plain.execute(
            "INSERT INTO trips SELECT i, ('[Point(' || i || ' 0)@2025-01-01"
            ", Point(' || (i + 1) || ' 0)@2025-01-02]') "
            "FROM generate_series(1, 50) AS t(i)"
        )
        assert plain.execute(query).scalar() == got

    def test_gist_index_nl_join(self):
        con = core.connect_baseline()
        con.execute("CREATE TABLE a_t(trip TGEOMPOINT)")
        con.execute("CREATE TABLE b_t(trip TGEOMPOINT)")
        for table in ("a_t", "b_t"):
            con.execute(
                f"INSERT INTO {table} SELECT "
                "('[Point(' || i || ' 0)@2025-01-01, Point(' || (i + 1) "
                "|| ' 0)@2025-01-02]') FROM generate_series(1, 30) AS t(i)"
            )
        con.execute("CREATE INDEX g ON b_t USING GIST(trip)")
        query = ("SELECT count(*) FROM a_t, b_t "
                 "WHERE b_t.trip && expandSpace(a_t.trip::STBOX, 0.1)")
        plan = con.explain(query)
        assert "INDEX_NL_JOIN" in plan
        got = con.execute(query).scalar()

        # Cross-check against the columnar engine without indexes.
        duck = core.connect()
        duck.execute("CREATE TABLE a_t(trip TGEOMPOINT)")
        duck.execute("CREATE TABLE b_t(trip TGEOMPOINT)")
        for table in ("a_t", "b_t"):
            duck.execute(
                f"INSERT INTO {table} SELECT "
                "('[Point(' || i || ' 0)@2025-01-01, Point(' || (i + 1) "
                "|| ' 0)@2025-01-02]') FROM generate_series(1, 30) AS t(i)"
            )
        assert duck.execute(query).scalar() == got


class TestCrossEngineEquivalence:
    """The same SQL must return the same rows on both engines."""

    QUERIES = [
        "SELECT duration('{1@2025-01-01, 2@2025-01-03}'::TINT, true)"
        "::VARCHAR",
        "SELECT length(tgeompoint '[Point(0 0)@2025-01-01, "
        "Point(3 4)@2025-01-02]')",
        "SELECT (tgeompoint '[Point(0 0)@2025-01-01, "
        "Point(1 1)@2025-01-02]')::tstzspan::VARCHAR",
        "SELECT whenTrue(tDwithin("
        "tgeompoint '[Point(0 0)@2025-01-01, Point(10 0)@2025-01-02]',"
        "tgeompoint '[Point(10 0)@2025-01-01, Point(0 0)@2025-01-02]',"
        "2.0))::VARCHAR",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_equivalence(self, query):
        duck = core.connect()
        base = core.connect_baseline()
        assert duck.execute(query).fetchall() == \
            base.execute(query).fetchall()
