"""TRTREE index tests mirroring paper §4.2 (both construction paths)."""

import numpy as np
import pytest

from repro import core
from repro.core.rtree_index import RTreeIndex
from repro.meos import STBox, stbox
from repro.quack.errors import ExecutionError


INSERT = (
    "INSERT INTO test_geo "
    "SELECT ('2025-08-11 12:00:00'::timestamp + "
    "INTERVAL (i || ' minutes')), "
    "('STBOX X((' || (i * 1.0) || ',' || (i * 1.0) || '),(' || "
    "(i * 1.0 + 0.5) || ',' || (i * 1.0 + 0.5) || '))') "
    "FROM generate_series(1, {n}) AS t(i)"
)

QUERY = ("SELECT count(*) FROM test_geo WHERE box && "
         "STBOX('STBOX X((100.0,100.0),(110.0,110.0))')")


def _make(con):
    con.execute('CREATE TABLE test_geo("times" timestamptz, "box" stbox)')


class TestIncrementalConstruction:
    """§4.2.1: index first, data appended afterwards."""

    def test_paper_4_4_walkthrough(self):
        con = core.connect()
        _make(con)
        con.execute("CREATE INDEX rtree_stbox ON test_geo "
                    "USING TRTREE(box)")
        con.execute(INSERT.format(n=1000))
        index = con.database.catalog.indexes["rtree_stbox"]
        assert len(index) == 1000
        plan = con.explain(QUERY)
        assert "TRTREE_INDEX_SCAN" in plan
        assert con.execute(QUERY).scalar() == 11

    def test_appends_after_creation_visible(self):
        con = core.connect()
        _make(con)
        con.execute("CREATE INDEX rt ON test_geo USING TRTREE(box)")
        con.execute(INSERT.format(n=100))
        con.execute(
            "INSERT INTO test_geo VALUES ('2025-08-11'::TIMESTAMPTZ, "
            "'STBOX X((105,105),(106,106))')"
        )
        # Boxes 1..100 only reach 100.5; the query box [100,110]
        # overlaps box 100 plus the manually inserted one.
        assert con.execute(QUERY).scalar() == 2


class TestBulkConstruction:
    """§4.2.2: data first, CREATE INDEX runs Sink/Combine/BulkConstruct."""

    def test_create_index_on_populated_table(self):
        con = core.connect()
        _make(con)
        con.execute(INSERT.format(n=1000))
        con.execute("CREATE INDEX rt ON test_geo USING TRTREE(box)")
        index = con.database.catalog.indexes["rt"]
        assert len(index) == 1000
        assert "TRTREE_INDEX_SCAN" in con.explain(QUERY)
        assert con.execute(QUERY).scalar() == 11

    def test_three_phase_pipeline_manual(self):
        con = core.connect()
        _make(con)
        con.execute(INSERT.format(n=50))
        table = con.database.catalog.get_table("test_geo")
        index = RTreeIndex("manual", table, "box")
        # Re-run the pipeline explicitly (phases of §4.2.2).
        for values, row_ids in table.scan_column("box"):
            index.sink(values, row_ids)
        entries = index.combine()
        assert len(entries) == 50
        index.bulk_construct(entries)
        assert len(index) == 50

    def test_bulk_equals_incremental_results(self):
        bulk = core.connect()
        _make(bulk)
        bulk.execute(INSERT.format(n=500))
        bulk.execute("CREATE INDEX rt ON test_geo USING TRTREE(box)")

        inc = core.connect()
        _make(inc)
        inc.execute("CREATE INDEX rt ON test_geo USING TRTREE(box)")
        inc.execute(INSERT.format(n=500))

        for lo in (10, 100, 400):
            query = (f"SELECT count(*) FROM test_geo WHERE box && "
                     f"STBOX('STBOX X(({lo}.0,{lo}.0),"
                     f"({lo + 20}.0,{lo + 20}.0))')")
            assert bulk.execute(query).scalar() == \
                inc.execute(query).scalar()


class TestScanMatching:
    """§4.3: operator/type matching for scan injection."""

    def test_matches_overlap_on_indexed_column(self):
        con = core.connect()
        _make(con)
        con.execute("CREATE INDEX rt ON test_geo USING TRTREE(box)")
        index = con.database.catalog.indexes["rt"]
        box = stbox("STBOX X((0,0),(1,1))")
        assert index.matches("&&", "box", box)
        assert not index.matches("&&", "times", box)
        assert not index.matches("=", "box", box)
        assert index.matches("&&", "box", None)  # join probe

    def test_probe_rechecks_not_needed_for_boxes(self):
        con = core.connect()
        _make(con)
        con.execute("CREATE INDEX rt ON test_geo USING TRTREE(box)")
        con.execute(INSERT.format(n=200))
        index = con.database.catalog.indexes["rt"]
        hits = index.probe("&&", stbox("STBOX X((50,50),(60,60))"))
        assert len(hits) == 11  # boxes 50..60 overlap [50, 60]

    def test_update_triggers_rebuild(self):
        con = core.connect()
        _make(con)
        con.execute("CREATE INDEX rt ON test_geo USING TRTREE(box)")
        con.execute(INSERT.format(n=50))
        con.execute(
            "UPDATE test_geo SET box = 'STBOX X((900,900),(901,901))'"
            "::STBOX WHERE times = '2025-08-11 12:01:00'::TIMESTAMPTZ"
        )
        moved = con.execute(
            "SELECT count(*) FROM test_geo WHERE box && "
            "STBOX('STBOX X((899.0,899.0),(902.0,902.0))')"
        ).scalar()
        assert moved == 1


class TestSrid:
    def test_rect_conversion(self):
        con = core.connect()
        con.execute("CREATE TABLE g(box stbox)")
        con.execute("CREATE INDEX rt ON g USING TRTREE(box)")
        rect = con.database.catalog.indexes["rt"].rect(STBox(0, 0, 2, 2))
        assert rect[0] == 0 and rect[3] == 2
        assert rect[2] < -1e18 and rect[5] > 1e18  # unbounded time

    def test_query_in_other_srid_searches_everything(self):
        con = core.connect()
        con.execute("CREATE TABLE g(box stbox)")
        con.execute("CREATE INDEX rt ON g USING TRTREE(box)")
        # Index in UTM 48N metres around Hanoi.
        con.execute(
            "INSERT INTO g VALUES "
            "('SRID=32648;STBOX X((585000,2325000),(586000,2326000))'), "
            "('SRID=32648;STBOX X((0,0),(1,1))')"
        )
        index = con.database.catalog.indexes["rt"]
        # A WGS84 probe: ``&&`` raises on every entry, so the index
        # skips none of them and the recheck raises as a scan would.
        query = STBox(105.7, 20.9, 106.0, 21.2, srid=4326)
        assert sorted(index.probe("&&", query)) == [0, 1]
        with pytest.raises(ExecutionError, match="SRID mismatch"):
            con.execute("SELECT count(*) FROM g WHERE box && "
                        "'SRID=4326;STBOX X((105.7,20.9),(106,21.2))'"
                        "::STBOX").fetchall()
        assert index.probe("&&", STBox(0, 0, 0.5, 0.5, srid=32648)) == [1]