"""A value's box is the one the box index reads, for the zone maps and
the box selectivity estimators alike.

``quack.stats.box_of`` (duck-typed, so the engine imports no payload
type) must agree with :func:`repro.index.value_box` on every Table 1
type: a temporal point or a geometry gives its stbox, any other temporal
value, a tstzspan or a tstzspanset its time span, and everything else no
box.  Only a TBox, which the index does not read, is a box of its own.
"""

import pytest

from repro import core
from repro.index import value_box
from repro.meos import STBox
from repro.quack.stats import box_intervals, box_of

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
    "geometry": "geometry 'LINESTRING(0 0, 2 3)'",
    "empty geometry": "geometry 'POINT EMPTY'",
    "timestamptz": "timestamptz '2025-01-01'",
    "integer": "1",
}


@pytest.fixture(scope="module")
def con():
    return core.connect()


def _index_intervals(box):
    """The axis intervals of a :func:`value_box` result."""
    if box is None:
        return None
    if isinstance(box, STBox):
        return box_intervals(box)
    return {"t": (float(box.lower), float(box.upper))}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_box_of_agrees_with_the_index(con, name):
    value = con.execute(f"SELECT {SAMPLES[name]}").scalar()
    expected = _index_intervals(value_box(value))
    box = box_of(value)
    assert (None if box is None else box_intervals(box)) == expected
    if name in ("tgeompoint", "geometry", "stbox", "tstzspan",
                "tstzspanset", "tint", "tfloat", "tbool", "ttext"):
        assert expected


def test_tbox_keeps_its_value_span_on_x(con):
    value = con.execute(
        "SELECT tbox 'TBOX XT([1,2],[2020-01-01,2020-01-02])'"
    ).scalar()
    assert value_box(value) is None
    intervals = box_intervals(box_of(value))
    assert intervals["x"] == (1.0, 2.0)
    assert set(intervals) == {"x", "t"}


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
