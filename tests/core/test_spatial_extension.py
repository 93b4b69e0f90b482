"""Mini DuckDB-Spatial extension tests (GEOMETRY, ST_*, RTREE, BOX_2D)."""

import pytest

from repro import core, geo


@pytest.fixture(scope="module")
def con():
    return core.connect()


class TestGeometryType:
    def test_wkt_casts(self, con):
        got = con.execute(
            "SELECT ST_AsText('POINT(1 2)'::GEOMETRY)"
        ).scalar()
        assert got == "POINT(1 2)"

    def test_wkb_round_trip(self, con):
        got = con.execute(
            "SELECT ST_AsText((('LINESTRING(0 0, 1 1)'::GEOMETRY)"
            "::WKB_BLOB)::GEOMETRY)"
        ).scalar()
        assert got == "LINESTRING(0 0, 1 1)"

    def test_geometry_column_storage(self, con):
        con.execute("CREATE OR REPLACE TABLE g(geom GEOMETRY)")
        con.execute("INSERT INTO g VALUES ('POINT(3 4)'::GEOMETRY)")
        value = con.execute("SELECT geom FROM g").scalar()
        assert isinstance(value, geo.Point)


class TestStFunctions:
    def test_distance(self, con):
        assert con.execute(
            "SELECT ST_Distance('POINT(0 0)'::GEOMETRY, "
            "'POINT(3 4)'::GEOMETRY)"
        ).scalar() == 5.0

    def test_intersects(self, con):
        assert con.execute(
            "SELECT ST_Intersects('POLYGON((0 0, 2 0, 2 2, 0 2, 0 0))'"
            "::GEOMETRY, 'POINT(1 1)'::GEOMETRY)"
        ).scalar() is True

    def test_dwithin(self, con):
        assert con.execute(
            "SELECT ST_DWithin('POINT(0 0)'::GEOMETRY, "
            "'POINT(0 3)'::GEOMETRY, 3.5)"
        ).scalar() is True

    def test_length_area_centroid(self, con):
        assert con.execute(
            "SELECT ST_Length('LINESTRING(0 0, 3 4)'::GEOMETRY)"
        ).scalar() == 5.0
        assert con.execute(
            "SELECT ST_Area('POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))'"
            "::GEOMETRY)"
        ).scalar() == 16.0
        got = con.execute(
            "SELECT ST_AsText(ST_Centroid('POLYGON((0 0, 2 0, 2 2, 0 2,"
            " 0 0))'::GEOMETRY))"
        ).scalar()
        assert got == "POINT(1 1)"

    def test_st_point_and_xy(self, con):
        assert con.execute("SELECT ST_X(ST_Point(3.5, 4.5))").scalar() == 3.5
        assert con.execute("SELECT ST_Y(ST_Point(3.5, 4.5))").scalar() == 4.5

    def test_collect_list(self, con):
        con.execute("CREATE OR REPLACE TABLE pts(g GEOMETRY)")
        con.execute(
            "INSERT INTO pts VALUES ('POINT(0 0)'::GEOMETRY), "
            "('POINT(1 1)'::GEOMETRY)"
        )
        got = con.execute(
            "SELECT ST_AsText(ST_Collect(list(g))) FROM pts"
        ).scalar()
        assert got.startswith("MULTIPOINT")

    def test_extent_aggregate(self, con):
        con.execute("CREATE OR REPLACE TABLE pts2(g GEOMETRY)")
        con.execute(
            "INSERT INTO pts2 VALUES ('POINT(0 0)'::GEOMETRY), "
            "('POINT(5 9)'::GEOMETRY)"
        )
        box = con.execute("SELECT ST_Extent(g) FROM pts2").scalar()
        assert box.max_y == 9.0


class TestBox2D:
    def test_struct_literal_cast(self, con):
        box = con.execute(
            "SELECT {min_x: 1, min_y: 2, max_x: 3, max_y: 4}::BOX_2D"
        ).scalar()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (1, 2, 3, 4)

    def test_intersects_with_box(self, con):
        assert con.execute(
            "SELECT ST_Intersects('POINT(2 3)'::GEOMETRY, "
            "{min_x: 0, min_y: 0, max_x: 5, max_y: 5}::BOX_2D)"
        ).scalar() is True

    def test_missing_field_rejected(self, con):
        from repro.quack import QuackError

        with pytest.raises(QuackError):
            con.execute("SELECT {min_x: 1}::BOX_2D")


class TestFig2GeomTableFlow:
    """The paper's §4.4 test_geo_geom construction: UPDATE + RTREE."""

    def test_update_geometry_then_index(self):
        con = core.connect()
        con.execute(
            "CREATE TABLE test_geo_geom(times TIMESTAMPTZ, box STBOX, "
            "geom GEOMETRY)"
        )
        con.execute(
            "INSERT INTO test_geo_geom(times, box) "
            "SELECT ('2025-08-11 12:00:00'::timestamp + "
            "INTERVAL (i || ' minutes')), "
            "('STBOX X((' || i || ',' || i || '),(' || (i + 0.5) || ',' "
            "|| (i + 0.5) || '))') FROM generate_series(1, 500) AS t(i)"
        )
        # The paper's exact UPDATE:
        con.execute(
            "UPDATE test_geo_geom SET geom = geometry(box)::GEOMETRY"
        )
        con.execute(
            "CREATE INDEX rtree_geom ON test_geo_geom USING RTREE(geom)"
        )
        query = (
            "SELECT count(*) FROM test_geo_geom WHERE ST_Intersects(geom, "
            "{min_x: 100, min_y: 100, max_x: 110, max_y: 110}::BOX_2D)"
        )
        assert "RTREE_INDEX_SCAN" in con.explain(query)
        assert con.execute(query).scalar() == 11


class TestRtreeRegistration:
    @pytest.mark.parametrize("engine", ["quack", "pgsim"])
    def test_rtree_exists_on_the_columnar_engine_only(self, engine):
        """MobilityDB and PostGIS index geometry through GiST: on the row
        engine ``USING RTREE`` is an unknown index type."""
        from repro.quack.errors import CatalogError

        con = core.connect() if engine == "quack" else \
            core.connect_baseline()
        con.execute("CREATE TABLE g(id INTEGER, geom GEOMETRY)")
        con.execute("INSERT INTO g VALUES (1, 'POINT(1 1)'), "
                    "(2, 'POINT(5 5)')")
        ddl = "CREATE INDEX gi ON g USING RTREE(geom)"
        if engine == "pgsim":
            with pytest.raises(CatalogError, match="unknown index type"):
                con.execute(ddl)
            return
        con.execute(ddl)
        query = ("SELECT id FROM g WHERE ST_Intersects(geom, "
                 "ST_GeomFromText('POLYGON((0 0, 2 0, 2 2, 0 2, 0 0))'))")
        assert "RTREE_INDEX_SCAN" in con.explain(query)
        assert con.execute(query).fetchall() == [(1,)]
        assert con.execute(query).stats().counters[
            "index.rtree.candidates"] == 1
