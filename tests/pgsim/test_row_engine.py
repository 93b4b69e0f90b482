"""Row-store baseline engine tests: volcano execution, TOAST, indexes."""

import math

import pytest

from repro import core, geo
from repro.core.codecs import TCSR_CODEC, WKB_CODEC
from repro.core.spatial import GEOMETRY_TYPE
from repro.core.types import TEMPORAL_TYPES
from repro.meos import (
    STBox,
    Span,
    Temporal,
    TInstant,
    TSequence,
    intset,
    tfloat,
)
from repro.meos.temporal.ttypes import TGEOMPOINT
from repro.pgsim import RowConnection, RowDatabase
from repro.pgsim.table import TOAST_THRESHOLD, Varlena, detoast, toast
from repro.quack import Connection, Database
from repro.quack.catalog import Catalog
from repro.quack.errors import CatalogError
from repro.quack.types import BIGINT, VARCHAR


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


def _trip(instants: int):
    """A linear trip of ``instants`` instants that normalization keeps
    (no three consecutive positions are collinear at constant speed)."""
    return TSequence(TGEOMPOINT, [
        TInstant(TGEOMPOINT, geo.Point(float(i), float(i * i % 13)),
                 10**6 * i)
        for i in range(instants)
    ])


def _disc(vertices: int):
    ring = [(math.cos(2 * math.pi * i / vertices),
             math.sin(2 * math.pi * i / vertices)) for i in range(vertices)]
    return geo.Polygon(ring + ring[:1], srid=4326)


#: Out of line: flat layouts past the threshold.
_LONG_TRIP = _trip(400)
_BIG_POLYGON = _disc(200)


def _stored(con, table):
    return con.database.catalog.get_table(table).rows


class TestVarlena:
    """PostgreSQL's TOAST rule: a datum stays inline, read in place,
    unless its type's codec lays it out in more than 2032 bytes."""

    def test_layouts_straddle_the_threshold(self):
        assert len(TCSR_CODEC.encode_datum(_trip(3))) <= TOAST_THRESHOLD
        assert len(TCSR_CODEC.encode_datum(_LONG_TRIP)) > TOAST_THRESHOLD
        assert len(WKB_CODEC.encode_datum(_BIG_POLYGON)) > TOAST_THRESHOLD

    def test_short_datums_stay_inline(self, unverified):
        con = core.connect_baseline()
        con.execute("CREATE TABLE s(trip TGEOMPOINT, period TSTZSPAN, "
                    "geom GEOMETRY)")
        con.execute(
            "INSERT INTO s VALUES ('[Point(0 0)@2025-01-01, "
            "Point(3 4)@2025-01-02]', '[2025-01-01, 2025-01-02]', "
            "'SRID=4326;POLYGON((0 0, 1 0, 1 1, 0 0))')"
        )
        trip, period, geom = _stored(con, "s")[0]
        assert isinstance(trip, Temporal)
        assert isinstance(period, Span)
        assert isinstance(geom, geo.Polygon)
        stats = con.execute(
            "SELECT length(trip), duration(period), ST_Area(geom) FROM s"
        ).stats()
        assert stats.counter("pgsim.detoast") == 0
        assert stats.counter("pgsim.detoast_bytes") == 0

    def test_scalars_and_nulls_stay_inline(self):
        assert toast(5, BIGINT) == 5
        assert toast("abc", VARCHAR) == "abc"
        assert toast(None, TEMPORAL_TYPES["tgeompoint"]) is None

    @pytest.mark.parametrize("ltype, value", [
        (TEMPORAL_TYPES["tgeompoint"], _LONG_TRIP),
        (GEOMETRY_TYPE, _BIG_POLYGON),
    ], ids=["trip", "polygon"])
    def test_large_datums_go_out_of_line(self, ltype, value):
        pointer = toast(value, ltype)
        assert isinstance(pointer, Varlena)
        # stored compressed: smaller than the flat layout
        assert len(pointer.blob) < len(ltype.codec.encode_datum(value))
        assert detoast(pointer) == value
        assert toast(pointer, ltype) is pointer

    def test_out_of_line_access_detoasts(self, unverified):
        con = core.connect_baseline()
        con.execute("CREATE TABLE big(id INTEGER, trip TGEOMPOINT, "
                    "geom GEOMETRY)")
        con.database.catalog.get_table("big").append_rows(
            [(i, _LONG_TRIP, _BIG_POLYGON) for i in range(3)]
        )
        rows = _stored(con, "big")
        blob_bytes = sum(len(row[1].blob) for row in rows)
        result = con.execute("SELECT numInstants(trip) FROM big")
        assert result.fetchall() == [(400,)] * 3
        stats = result.stats()
        assert stats.counter("pgsim.detoast") == 3
        assert stats.counter("pgsim.detoast_bytes") == blob_bytes
        # each reference pays again: there is no detoast cache
        stats = con.execute(
            "SELECT ST_Area(geom), ST_Area(geom) FROM big"
        ).stats()
        assert stats.counter("pgsim.detoast") == 6
        assert con.execute(
            "SELECT ST_Area(geom) FROM big WHERE id = 0"
        ).scalar() == pytest.approx(_BIG_POLYGON.area())

    def test_insert_and_update_move_datums_out_of_line(self, unverified):
        con = core.connect_baseline()
        con.execute("CREATE TABLE t(id INTEGER, trip TGEOMPOINT)")
        long_text = str(_LONG_TRIP)
        stats = con.execute(
            f"INSERT INTO t VALUES (1, '{long_text}'), "
            "(2, '[Point(0 0)@2025-01-01, Point(1 1)@2025-01-02]')"
        ).stats()
        assert stats.counter("pgsim.toast_out_of_line") == 1
        stats = con.execute(
            f"UPDATE t SET trip = '{long_text}' WHERE id = 2"
        ).stats()
        assert stats.counter("pgsim.toast_out_of_line") == 1
        assert all(isinstance(row[1], Varlena) for row in _stored(con, "t"))
        # an UPDATE of another column keeps the pointer as it was
        pointer = _stored(con, "t")[0][1]
        stats = con.execute("UPDATE t SET id = 3 WHERE id = 1").stats()
        assert stats.counter("pgsim.toast_out_of_line") == 0
        assert _stored(con, "t")[0][1] is pointer
        # CTAS writes its rows through the same rule
        stats = con.execute("CREATE TABLE u AS SELECT trip FROM t").stats()
        assert stats.counter("pgsim.toast_out_of_line") == 2
        assert con.execute("SELECT count(*) FROM u WHERE trip = "
                           f"tgeompoint '{long_text}'").scalar() == 2

    @pytest.mark.parametrize("type_name, value", [
        ("STBOX", STBox.parse("STBOX XT(((0,0),(1,1)),"
                              "[2025-01-01, 2025-01-02])")),
        ("TFLOAT", tfloat("[" + ", ".join(
            f"{i * i % 13}.5@2025-01-01 00:{i // 60:02d}:{i % 60:02d}"
            for i in range(600)) + "]")),
        ("INTSET", intset("{" + ", ".join(map(str, range(2000))) + "}")),
        # what the tcsr codec declines has no layout to measure
        ("TGEOMPOINT", TSequence(TGEOMPOINT, [
            TInstant(TGEOMPOINT, geo.Point(float(i), 1.0), 10**6 * i)
            for i in range(399)
        ] + [TInstant(TGEOMPOINT, geo.Point(math.nan, 1.0), 10**9)])),
        ("TGEOMPOINT", TSequence(TGEOMPOINT, [
            TInstant(TGEOMPOINT, geo.Point(float(i), float(i % 3),
                                           4326 if i else 0), 10**6 * i)
            for i in range(400)
        ])),
    ], ids=["stbox", "tfloat", "intset", "nan-trip", "mixed-srid-trip"])
    def test_types_without_a_layout_stay_inline(self, type_name, value):
        con = core.connect_baseline()
        con.execute(f"CREATE TABLE k(v {type_name})")
        ltype = con.database.catalog.get_table("k").column_types[0]
        assert ltype.codec is None or ltype.codec.encode_datum(value) is None
        con.database.catalog.get_table("k").append_rows([(value,)])
        assert _stored(con, "k")[0][0] is value

    def test_analyze_and_index_builds_over_out_of_line_column(
            self, unverified):
        trips = [(i, _trip(400 + i) if i % 2 else _trip(5 + i))
                 for i in range(6)]
        engines = []
        for con in (core.connect(), core.connect_baseline()):
            con.execute("CREATE TABLE tr(id INTEGER, trip TGEOMPOINT)")
            con.database.catalog.get_table("tr").append_rows(trips)
            engines.append(con)
        duck, base = engines
        assert sum(isinstance(row[1], Varlena)
                   for row in _stored(base, "tr")) == 3
        stats = base.execute("ANALYZE tr").stats()
        assert stats.counter("pgsim.detoast") == 3
        duck.execute("ANALYZE tr")
        assert base.database.catalog.get_table("tr").stats == \
            duck.database.catalog.get_table("tr").stats
        base.execute("CREATE INDEX g ON tr USING GIST(trip)")
        base.execute("CREATE INDEX b ON tr USING BTREE(trip)")
        for query, ids in (
            ("SELECT id FROM tr WHERE trip && "
             "stbox 'STBOX X((300.0,0.0),(420.0,12.0))' ORDER BY id",
             [(1,), (3,), (5,)]),
            (f"SELECT id FROM tr WHERE trip = tgeompoint '{trips[3][1]}'",
             [(3,)]),
        ):
            assert "INDEX_SCAN" in base.explain(query)
            assert base.execute(query).fetchall() == \
                duck.execute(query).fetchall() == ids


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
