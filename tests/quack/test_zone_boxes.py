"""One box per value: :func:`repro.quack.boxes.bounding_box` decides
it, and the zone maps, ANALYZE, the box selectivity estimators, the box
kernels and both engines' box indexes read it.

A temporal point, a geometry or an stbox gives its spatial box, plus
time where it has one; any other temporal value, a tstzspan or a
tstzspanset its time span; a tbox its value span on ``x`` and its time;
everything else no box.  A box skip never hides the SRID error that
``&&`` raises.
"""

from datetime import datetime, timezone

import pytest

from repro import core
from repro.meos import STBox, TBox
from repro.quack.boxes import bounding_box
from repro.quack.errors import ExecutionError
from repro.quack.vector import STANDARD_VECTOR_SIZE

#: A sample literal of every Table 1 type, plus the box and geometry
#: constants a query probes with.
SAMPLES = {
    "textset": "'{\"a\", \"b\"}'::textset",
    "intset": "'{1, 2}'::intset",
    "bigintset": "'{1, 2}'::bigintset",
    "floatset": "'{1.5}'::floatset",
    "dateset": "'{2025-01-01}'::dateset",
    "tstzset": "'{2025-01-01}'::tstzset",
    "geomset": "'{Point(1 1)}'::geomset",
    "intspan": "'[1, 2]'::intspan",
    "bigintspan": "'[1, 2]'::bigintspan",
    "floatspan": "'[1.0, 2.0]'::floatspan",
    "datespan": "'[2025-01-01, 2025-01-02]'::datespan",
    "tstzspan": "'[2025-01-01, 2025-01-02]'::tstzspan",
    "intspanset": "'{[1, 2]}'::intspanset",
    "bigintspanset": "'{[1, 2]}'::bigintspanset",
    "floatspanset": "'{[1.0, 2.0]}'::floatspanset",
    "datespanset": "'{[2025-01-01, 2025-01-02]}'::datespanset",
    "tstzspanset": "'{[2025-01-01, 2025-01-02], "
                   "[2025-01-04, 2025-01-05]}'::tstzspanset",
    "tbool": "'t@2025-01-01'::tbool",
    "tint": "'[1@2025-01-01, 3@2025-01-03]'::tint",
    "tfloat": "'[1.5@2025-01-01, 2.5@2025-01-02]'::tfloat",
    "ttext": "'\"x\"@2025-01-01'::ttext",
    "tgeompoint": "'[Point(1 1)@2025-01-01, Point(2 3)@2025-01-02]'"
                  "::tgeompoint",
    "stbox": "stbox 'STBOX XT(((1,1),(2,2)),[2020-01-01,2020-01-02])'",
    "srid stbox": "stbox 'SRID=4326;STBOX X((1,1),(2,2))'",
    "tbox": "tbox 'TBOX XT([1,2],[2020-01-01,2020-01-02])'",
    "geometry": "geometry 'LINESTRING(0 0, 2 3)'",
    "empty geometry": "geometry 'POINT EMPTY'",
    "timestamptz": "timestamptz '2025-01-01'",
    "integer": "1",
}


@pytest.fixture(scope="module")
def con():
    return core.connect()


def _t(day, year=2025):
    """Midnight UTC of ``year-01-day`` in epoch microseconds."""
    return datetime(year, 1, day, tzinfo=timezone.utc).timestamp() * 1e6


#: The box of every sample that has one: its per-axis intervals and its
#: SRID.
BOXES = {
    "tstzspan": ({"t": (_t(1), _t(2))}, 0),
    "tstzspanset": ({"t": (_t(1), _t(5))}, 0),
    "tbool": ({"t": (_t(1), _t(1))}, 0),
    "tint": ({"t": (_t(1), _t(3))}, 0),
    "tfloat": ({"t": (_t(1), _t(2))}, 0),
    "ttext": ({"t": (_t(1), _t(1))}, 0),
    "tgeompoint": ({"x": (1.0, 2.0), "y": (1.0, 3.0),
                    "t": (_t(1), _t(2))}, 0),
    "stbox": ({"x": (1.0, 2.0), "y": (1.0, 2.0),
               "t": (_t(1, 2020), _t(2, 2020))}, 0),
    "srid stbox": ({"x": (1.0, 2.0), "y": (1.0, 2.0)}, 4326),
    "tbox": ({"x": (1.0, 2.0), "t": (_t(1, 2020), _t(2, 2020))}, 0),
    "geometry": ({"x": (0.0, 2.0), "y": (0.0, 3.0)}, 0),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_each_type_has_its_box(con, name):
    value = con.execute(f"SELECT {SAMPLES[name]}").scalar()
    assert bounding_box(value) == BOXES.get(name)


def _pruning_table(con):
    """6,000 rows, three row groups: row i's trip starts at (i/100,
    i/100) and its tfloat lives on day 1 + i // 1000."""
    con.execute("CREATE TABLE t(id BIGINT, trip TGEOMPOINT, v TFLOAT)")
    day = "CAST(1 + (i - i % 1000) / 1000 AS BIGINT)"
    con.execute(
        "INSERT INTO t SELECT i, CAST('[Point(' || (i / 100.0) || ' ' "
        "|| (i / 100.0) || ')@2020-01-01, Point(' || (i / 100.0 + 0.5) "
        "|| ' ' || (i / 100.0 + 0.5) || ')@2020-01-02]' AS TGEOMPOINT), "
        f"CAST('[' || i || '@2020-01-0' || {day} || ' 00:00:00+00, ' "
        f"|| i || '@2020-01-0' || {day} || ' 01:00:00+00]' AS TFLOAT) "
        "FROM generate_series(0, 5999) AS g(i)"
    )
    return con


@pytest.fixture(scope="module")
def pruning():
    return (_pruning_table(core.connect()),
            _pruning_table(core.connect_baseline()))


@pytest.mark.parametrize("where,matches", [
    ("trip && stbox('STBOX X((10,10),(12,12))')", 251),
    ("eIntersects(trip, geometry 'POINT(10.5 10.5)')", 51),
    ("v && tstzspan '[2020-01-02 00:30:00+00, 2020-01-02 00:40:00+00]'",
     1000),
])
def test_zone_maps_prune_by_the_value_box(pruning, where, matches):
    con, baseline = pruning
    sql = f"SELECT count(*) FROM t WHERE {where}"
    assert "[zonemap:" in con.explain(sql)
    result = con.execute(sql)
    assert result.scalar() == matches
    counters = result.stats().counters
    assert counters["storage.rowgroups_skipped"] == 2
    assert counters["storage.rowgroups_scanned"] == 1
    assert baseline.execute(sql).scalar() == matches


def test_geometry_segments_keep_no_zone_box():
    con = core.connect()
    con.execute("CREATE TABLE g(geom GEOMETRY)")
    con.execute("INSERT INTO g VALUES (geometry 'POINT(1 2)'), (NULL)")
    (entry,) = con.database.catalog.get_table("g").zone_maps()[0]
    assert (entry.rows, entry.nulls, entry.box) == (2, 1, None)


#: Every access path of a box predicate: zone maps in memory and
#: attached, a TRTREE on either, and pgsim with and without its GIST.
ACCESS_PATHS = ["quack", "quack+TRTREE", "attached", "attached+TRTREE",
                "pgsim", "pgsim+GIST"]


@pytest.fixture(scope="module", params=ACCESS_PATHS)
def boxes(request, tmp_path_factory):
    """Row i holds ``SRID=4326;STBOX X((i,i),(i+1, i+1))`` and
    ``TBOXFLOAT X([i, i+1])``: three row groups on quack, 64 rows on
    pgsim, which has none (its GIST inserts row by row)."""
    engine, _, index = request.param.partition("+")
    con = core.connect_baseline() if engine == "pgsim" else core.connect()
    con.execute("CREATE TABLE t(id BIGINT, b STBOX, v TBOX)")
    con.database.catalog.get_table("t").append_rows([
        (i, STBox(i, i, i + 1, i + 1, srid=4326),
         TBox.parse(f"TBOXFLOAT X([{i}, {i + 1}])"))
        for i in range(64 if engine == "pgsim" else 3 * STANDARD_VECTOR_SIZE)
    ])
    if engine == "attached":
        path = tmp_path_factory.mktemp("boxes") / "t.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        con = core.connect()
        con.execute(f"ATTACH '{path}'")
    for column in ("b", "v") if index else ():
        con.execute(f"CREATE INDEX t_{column} ON t USING {index}({column})")
    return request.param, con


def _skipped(path, result):
    """Row groups the zone maps skipped (None where no zone map ran)."""
    if "+" in path or path == "pgsim":
        return None
    return result.stats().counters["storage.rowgroups_skipped"]


@pytest.mark.parametrize("where", [
    "b && {probe}",
    "b && {probe} OR id < 0",  # no pushdown: the sequential scan
    "{probe} && b",
])
def test_a_box_skip_never_hides_the_srid_error(boxes, where):
    """A zone-map group or an index probe skips a row only where ``&&``
    would be false for it, never where it would raise."""
    _, con = boxes
    probe = "'SRID=3857;STBOX X((100000,100000),(100001,100001))'::STBOX"
    with pytest.raises(ExecutionError,
                       match="stbox SRID mismatch: (4326 vs 3857|3857 vs "
                             "4326)"):
        con.execute(
            f"SELECT count(*) FROM t WHERE {where.format(probe=probe)}"
        ).fetchall()


@pytest.mark.parametrize("srid", ["SRID=4326;", ""])
def test_a_probe_in_the_srid_of_the_boxes_still_skips(boxes, srid):
    path, con = boxes
    result = con.execute(
        "SELECT id FROM t WHERE b && "
        f"'{srid}STBOX X((10.5,10.5),(11.5,11.5))'::STBOX ORDER BY id"
    )
    assert result.fetchall() == [(10,), (11,)]
    assert _skipped(path, result) in (None, 2)


def test_tbox_columns_prune_and_index(boxes):
    """A tbox has a box (its value span on ``x``): the zone maps skip by
    it and TRTREE/GIST serve it, with the sequential scan's rows."""
    path, con = boxes
    sql = ("SELECT id FROM t WHERE v && tbox 'TBOXFLOAT X([10.5, 11.5])' "
           "ORDER BY id")
    result = con.execute(sql)
    assert result.fetchall() == [(10,), (11,)]
    assert _skipped(path, result) in (None, 2)
    if "+" in path:
        assert "INDEX_SCAN" in con.explain(sql)


def test_an_srid_free_probe_of_a_mixed_srid_trtree_finds_every_row():
    """Boxes of two SRIDs are indexed as they are: a probe without SRID
    finds what the sequential scan finds."""
    con = core.connect()
    con.execute("CREATE TABLE m(b STBOX)")
    con.database.catalog.get_table("m").append_rows([
        (STBox(105.8, 21.0, 105.9, 21.1, srid=4326),),
        (STBox(585000, 2325000, 586000, 2326000, srid=32648),),
    ])
    sql = ("SELECT count(*) FROM m WHERE b && "
           "'STBOX X((585100,2325100),(585200,2325200))'::STBOX")
    assert con.execute(sql).scalar() == 1
    con.execute("CREATE INDEX m_b ON m USING TRTREE(b)")
    assert "TRTREE_INDEX_SCAN" in con.explain(sql)
    assert con.execute(sql).scalar() == 1
