"""The CSR batch kernels against a scalar reference kept only here.

``ref_*`` below is the per-object implementation the kernels replaced
(nested loops over primitives, segments and vertices calling the
retained scalar primitives ``segments_intersect``,
``point_segment_distance`` and ``point_in_polygon``), with the rules the
kernels fixed applied: a one-vertex line is its point, and a segment no
longer than EPSILON is its start point.  The kernels must reproduce it
bit for bit, for every batch shape.
"""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core, geo, meos
from repro.berlinmod import generate, get_query, prepare_scenario
from repro.core.boxkernels import geom_csr, geom_soa, tpoint_csr
from repro.core.types import TEMPORAL_TYPES
from repro.geo import (
    GeometryCollection,
    GeometryError,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    distance_rows,
    dwithin_rows,
    flatten,
    geometry_csr,
    intersects_rows,
)
from repro.geo import kernels
from repro.geo.algorithms import (
    EPSILON,
    point_in_polygon,
    point_segment_distance,
    segments_intersect,
)
from repro.quack import plan as bound
from repro.quack.errors import ExecutionError
from repro.quack.sql.parser import parse_sql
from repro.quack.types import BLOB, VARCHAR
from repro.quack.vector import Vector

# ---------------------------------------------------------------------------
# Scalar reference
# ---------------------------------------------------------------------------


def _as_point(geom):
    """A one-vertex line is the point it degenerated to."""
    if isinstance(geom, LineString) and len(geom.points) == 1:
        return Point(*geom.points[0])
    return geom


def _prims(geom):
    return [_as_point(g) for g in flatten(geom) if not g.is_empty()]


def _segments_of(geom):
    if isinstance(geom, LineString):
        return list(geom.segments())
    if isinstance(geom, Polygon):
        return [s for ring in geom.rings() for s in zip(ring, ring[1:])]
    return []


def _norm(ex, ey):
    return math.sqrt(ex * ex + ey * ey)


def _disjoint(a, b, pad=0.0):
    if a.is_empty() or b.is_empty():
        return True
    ax0, ay0, ax1, ay1 = a.bounds()
    bx0, by0, bx1, by1 = b.bounds()
    return (ax1 + pad < bx0 or bx1 + pad < ax0
            or ay1 + pad < by0 or by1 + pad < ay0)


def _prim_intersects(a, b):
    if isinstance(a, Point) and isinstance(b, Point):
        return _norm(a.x - b.x, a.y - b.y) <= EPSILON
    if isinstance(a, Point):
        return _prim_intersects(b, a)
    if isinstance(b, Point):
        p = (b.x, b.y)
        if isinstance(a, LineString):
            return any(point_segment_distance(p, s, e) <= EPSILON
                       for s, e in a.segments())
        return point_in_polygon(p, a)
    for s1 in _segments_of(a):
        for s2 in _segments_of(b):
            if segments_intersect(s1[0], s1[1], s2[0], s2[1]):
                return True
    if isinstance(a, Polygon):
        if point_in_polygon(next(b.coordinates()), a):
            return True
    if isinstance(b, Polygon):
        if point_in_polygon(next(a.coordinates()), b):
            return True
    return False


def _prim_distance(a, b):
    if _prim_intersects(a, b):
        return 0.0
    coords_a, coords_b = list(a.coordinates()), list(b.coordinates())
    segs_a, segs_b = _segments_of(a), _segments_of(b)
    best = math.inf
    for p in coords_a:
        for s, e in segs_b:
            best = min(best, point_segment_distance(p, s, e))
    for q in coords_b:
        for s, e in segs_a:
            best = min(best, point_segment_distance(q, s, e))
    if not segs_a and not segs_b:
        best = _norm(coords_a[0][0] - coords_b[0][0],
                     coords_a[0][1] - coords_b[0][1])
    return best


def ref_intersects(a, b):
    if _disjoint(a, b):
        return False
    return any(
        not _disjoint(pa, pb) and _prim_intersects(pa, pb)
        for pa in _prims(a) for pb in _prims(b)
    )


def ref_distance(a, b):
    if a.is_empty() or b.is_empty():
        raise GeometryError("distance to an empty geometry is undefined")
    return min(_prim_distance(pa, pb)
               for pa in _prims(a) for pb in _prims(b))


def ref_dwithin(a, b, dist):
    if _disjoint(a, b, pad=dist):
        return False
    return ref_distance(a, b) <= dist + EPSILON


# ---------------------------------------------------------------------------
# Strategies: a small grid, so collinear overlaps, shared endpoints and
# zero-length segments are common
# ---------------------------------------------------------------------------

coord = st.one_of(
    st.integers(-4, 8).map(float),
    st.floats(-4, 8, allow_nan=False, width=32),
)
xy = st.tuples(coord, coord)
srids = st.sampled_from([0, 0, 4326, 3857])


@st.composite
def polygons(draw, srid=0):
    x0, y0 = draw(xy)
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shell = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    holes = []
    if draw(st.booleans()):
        # sometimes inside the shell, sometimes sticking out of it
        hx, hy = draw(xy)
        holes.append([(hx, hy), (hx + 1, hy), (hx + 1, hy + 1)])
    if w > 2 and h > 2 and draw(st.booleans()):
        holes.append([(x0 + 1, y0 + 1), (x0 + w - 1, y0 + 1),
                      (x0 + w - 1, y0 + h - 1), (x0 + 1, y0 + h - 1)])
    return Polygon(shell, holes, srid)


def lines(srid=0):
    return st.lists(xy, min_size=0, max_size=5).map(
        lambda pts: LineString(pts, srid)
    )


def points(srid=0):
    return xy.map(lambda p: Point(p[0], p[1], srid))


@st.composite
def geometries(draw):
    srid = draw(srids)
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return draw(points(srid))
    if kind == 1:
        return draw(lines(srid))
    if kind == 2:
        return draw(polygons(srid))
    if kind == 3:
        return MultiPoint(draw(st.lists(points(srid), max_size=3)), srid)
    if kind == 4:
        return MultiLineString(draw(st.lists(lines(srid), max_size=3)), srid)
    if kind == 5:
        return MultiPolygon(
            draw(st.lists(polygons(srid), max_size=2)), srid
        )
    parts = draw(st.lists(
        st.one_of(points(srid), lines(srid), polygons(srid)), max_size=4
    ))
    return GeometryCollection(parts, srid)


rows = st.lists(
    st.tuples(st.one_of(st.none(), geometries()),
              st.one_of(st.none(), geometries()),
              st.sampled_from([0.0, 0.5, 1.0, 3.0, math.nan])),
    min_size=1, max_size=6,
)


def _bits(value):
    return struct.pack("<d", value)


def _reference_rows(fn, left, right, *extra):
    """``fn`` per row: a list of results and the first raising row."""
    out = []
    for i, (a, b) in enumerate(zip(left, right)):
        if a is None or b is None:
            out.append(None)
            continue
        try:
            out.append(fn(a, b, *(e[i] for e in extra)))
        except GeometryError as exc:
            return out, (i, str(exc))
    return out, None


@given(rows)
@settings(max_examples=300, deadline=None)
def test_kernels_equal_scalar_reference(batch):
    left = [r[0] for r in batch]
    right = [r[1] for r in batch]
    dist = [r[2] for r in batch]
    a, b = geometry_csr(left), geometry_csr(right)

    expected, _ = _reference_rows(ref_intersects, left, right)
    assert intersects_rows(a, b).tolist() == [bool(v) for v in expected]

    expected, _ = _reference_rows(ref_dwithin, left, right, dist)
    got = dwithin_rows(a, b, np.array(dist))
    assert got.tolist() == [bool(v) for v in expected]

    expected, error = _reference_rows(ref_distance, left, right)
    if error is not None:
        with pytest.raises(GeometryError) as raised:
            distance_rows(a, b)
        assert str(raised.value) == error[1]
        # the scalar entry point raises at that row, not before it
        i = error[0]
        for k in range(i):
            if left[k] is not None and right[k] is not None:
                geo.distance(left[k], right[k])
        with pytest.raises(GeometryError):
            geo.distance(left[i], right[i])
        return
    got = distance_rows(a, b)
    for value, want in zip(got.tolist(), expected):
        if want is None:
            assert math.isnan(value)
        else:
            assert _bits(value) == _bits(want)


@given(rows)
@settings(max_examples=200, deadline=None)
def test_batch_shape_invariance(batch):
    """N rows in one call == N calls of one row == the scalar entry
    points, compared on float bits."""
    batch = [r for r in batch if r[0] is not None and r[1] is not None]
    left = [r[0] for r in batch]
    right = [r[1] for r in batch]
    dist = np.array([r[2] for r in batch])
    a, b = geometry_csr(left), geometry_csr(right)
    hits = intersects_rows(a, b)
    near = dwithin_rows(a, b, dist)
    measurable = not any(g.is_empty() for g in left + right)
    gaps = distance_rows(a, b) if measurable else None
    for i, (ga, gb) in enumerate(zip(left, right)):
        one_a, one_b = geometry_csr([ga]), geometry_csr([gb])
        assert intersects_rows(one_a, one_b)[0] == hits[i]
        assert geo.intersects(ga, gb) == hits[i]
        assert dwithin_rows(one_a, one_b, dist[i:i + 1])[0] == near[i]
        assert geo.dwithin(ga, gb, float(dist[i])) == near[i]
        if gaps is not None:
            assert _bits(distance_rows(one_a, one_b)[0]) == _bits(gaps[i])
            assert _bits(geo.distance(ga, gb)) == _bits(gaps[i])
        # a row's answer does not depend on its position either
        taken_a, taken_b = a.take(np.array([i, i])), b.take(np.array([i, i]))
        assert intersects_rows(taken_a, taken_b).tolist() == [hits[i]] * 2


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_blocks_do_not_change_results(monkeypatch, chunk):
    """Cutting the pair axis into tiny blocks, and the rings into runs
    of any length (64: longer than every line), gives the same bits."""
    rng = np.random.default_rng(7)

    def walk(n):
        return LineString(np.cumsum(rng.normal(0, 3, (n, 2)), axis=0) + 20)

    left = [walk(40), MultiLineString([walk(25), walk(30)]),
            Polygon([(0, 0), (60, 0), (60, 60), (0, 60)],
                    [[(10, 10), (50, 10), (50, 50), (10, 50)]])]
    right = [walk(35), walk(50), MultiLineString([walk(20), walk(20)])]
    a, b = geometry_csr(left), geometry_csr(right)
    hits, gaps = intersects_rows(a, b), distance_rows(a, b)
    monkeypatch.setattr(kernels, "_BLOCK", 64)
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    # fresh stores: their run index is cut at the new length
    a, b = geometry_csr(left), geometry_csr(right)
    assert intersects_rows(a, b).tolist() == hits.tolist()
    assert [_bits(v) for v in distance_rows(a, b)] == [_bits(v) for v in gaps]
    _assert_dwithin_edges(left, right, gaps.tolist())
    for i, (ga, gb) in enumerate(zip(left, right)):
        assert hits[i] == ref_intersects(ga, gb)
        assert _bits(gaps[i]) == _bits(ref_distance(ga, gb))
        assert _bits(geo.distance(ga, gb)) == _bits(gaps[i])


# ---------------------------------------------------------------------------
# The bounded distance: rows spanning many runs
# ---------------------------------------------------------------------------

#: a walk's steps are short, so a long line's runs have tight boxes and
#: the bound prunes; whole steps keep grid overlaps common
step = st.one_of(
    st.integers(-1, 1).map(float),
    st.floats(-1.5, 1.5, allow_nan=False, width=32),
)


@st.composite
def walks(draw, srid=0):
    x, y = draw(xy)
    points = [(x, y)]
    for dx, dy in draw(st.lists(st.tuples(step, step), min_size=1,
                                max_size=39)):
        x, y = x + dx, y + dy
        points.append((x, y))
    return LineString(points, srid)


@st.composite
def long_geometries(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(walks())
    if kind == 1:
        return MultiLineString(draw(st.lists(walks(), min_size=1,
                                             max_size=3)))
    if kind == 2:
        return GeometryCollection(draw(st.lists(
            st.one_of(walks(), polygons(), points()), min_size=1,
            max_size=4,
        )))
    if kind == 3:
        return draw(polygons())
    return draw(points())


@given(st.lists(st.tuples(long_geometries(), long_geometries()),
                min_size=1, max_size=3),
       st.sampled_from([1, 2, 3, 8, 64]))
@settings(max_examples=100, deadline=None)
def test_bounded_distance_equals_reference(pairs, chunk):
    """Lines of up to 40 vertices and collections of them, beside
    polygons with holes and points: the batch kernel and the scalar
    entry point give the reference's float bits at every run length."""
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    with mock.patch.object(kernels, "_CHUNK", chunk):
        got = distance_rows(geometry_csr(left), geometry_csr(right))
        scalar = [geo.distance(a, b) for a, b in pairs]
        want = [ref_distance(a, b) for a, b in pairs]
        _assert_dwithin_edges(left, right, want)
    for value, one, expected in zip(got.tolist(), scalar, want):
        assert _bits(value) == _bits(expected)
        assert _bits(one) == _bits(expected)


def _assert_dwithin_edges(left, right, distances):
    """``dwithin_rows`` equals the reference at the distances where its
    answer turns (each row's distance less EPSILON, one ulp either
    side), where the search is cut at the cap."""
    a, b = geometry_csr(left), geometry_csr(right)
    for shift in (-math.inf, 0.0, math.inf):
        dist = [math.nextafter(d - EPSILON, shift) for d in distances]
        want = [ref_dwithin(x, y, z) for x, y, z in zip(left, right, dist)]
        assert dwithin_rows(a, b, np.array(dist)).tolist() == want


def test_near_ties_keep_their_bits():
    """Parallel lines closer than EPSILON (a hit) and just past it (a
    gap below SEGMENT_PAD), and a minimum that two run pairs attain."""
    base = [(float(i), 0.0) for i in range(30)]
    line = LineString(base)
    # y = 3 but for two vertices at y = 1, in runs 0 and 3 of 8 segments
    bumps = LineString([(float(i), 1.0 if i in (4, 25) else 3.0)
                        for i in range(30)])
    left = [line, line, line, LineString(base[::-1]),
            MultiLineString([LineString(base[:10]), LineString(base[20:])])]
    right = [LineString([(x, y + 4e-10) for x, y in base]),
             LineString([(x, y + 1.5e-9) for x, y in base]),
             bumps, bumps, bumps]
    want = [ref_distance(a, b) for a, b in zip(left, right)]
    assert want[0] == 0.0 and 0.0 < want[1] < 2 * EPSILON
    assert want[2:] == [1.0, 1.0, 1.0]
    for chunk in (1, 3, 8, 64):
        with mock.patch.object(kernels, "_CHUNK", chunk):
            got = distance_rows(geometry_csr(left), geometry_csr(right))
            scalar = [geo.distance(a, b) for a, b in zip(left, right)]
            _assert_dwithin_edges(left, right, want)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        assert [_bits(v) for v in scalar] == [_bits(v) for v in want]


def test_dwithin_turns_where_the_reference_does():
    """Coordinates so small that only SEGMENT_PAD in the slack keeps a
    run pair whose box gap is the distance itself (two points, a point
    square off a segment)."""
    left = [Point(0.0, 0.0), LineString([(0.0, 0.0), (0.001, 0.0)])]
    right = [Point(0.003, 0.004), Point(0.0005, 0.002)]
    _assert_dwithin_edges(
        left, right, [ref_distance(a, b) for a, b in zip(left, right)]
    )


# ---------------------------------------------------------------------------
# Regressions
# ---------------------------------------------------------------------------


class TestOneVertexLine:
    """Degenerate clipping leaves one-vertex lines: they are points to
    ``intersects`` as they always were to ``distance``."""

    DOT = LineString([(1, 1)])

    def test_line_line(self):
        diagonal = LineString([(0, 0), (2, 2)])
        assert geo.intersects(self.DOT, diagonal)
        assert geo.intersects(diagonal, self.DOT)
        assert geo.distance(self.DOT, diagonal) == 0.0
        assert geo.dwithin(self.DOT, diagonal, 0.0)
        assert not geo.intersects(self.DOT, LineString([(0, 1), (0.5, 1)]))

    def test_point_line(self):
        assert geo.intersects(Point(1, 1), self.DOT)
        assert geo.intersects(self.DOT, Point(1, 1))
        assert not geo.intersects(self.DOT, Point(1, 2))
        assert geo.intersects(self.DOT, LineString([(1, 1)]))

    def test_line_polygon(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        donut = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                        [[(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]])
        assert geo.intersects(self.DOT, square)
        assert geo.intersects(square, self.DOT)
        assert not geo.intersects(self.DOT, donut)
        assert geo.intersects(LineString([(1.5, 1)]), donut)


def test_one_degenerate_segment_rule():
    """A segment no longer than EPSILON is its start point, for the
    kernels as for ``point_segment_distance``."""
    stub = LineString([(0, 0), (5e-10, 0)])
    assert geo.distance(stub, Point(3, 4)) == 5.0
    assert geo.distance(Point(3, 4), stub) == 5.0
    near = Polygon([(3, 4), (3, 9), (8, 4)])
    assert _bits(geo.distance(stub, near)) == _bits(ref_distance(stub, near))


def test_is_empty_is_cheap_and_unchanged():
    assert LineString([]).is_empty() and not LineString([(0, 0)]).is_empty()
    assert Polygon([]).is_empty()
    assert not Polygon([(0, 0), (1, 0), (1, 1)]).is_empty()
    assert GeometryCollection([]).is_empty()
    assert MultiLineString([LineString([])]).is_empty()
    assert not GeometryCollection([LineString([]), Point(0, 0)]).is_empty()


# ---------------------------------------------------------------------------
# CSR layout
# ---------------------------------------------------------------------------


def test_csr_layout():
    donut = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                    [[(1, 1), (2, 1), (2, 2), (1, 2)]], srid=4326)
    batch = geometry_csr([
        GeometryCollection([Point(1, 2), LineString([(0, 0), (3, 0), (3, 3)])]),
        None,
        LineString([]),
        donut,
    ])
    store = batch.store
    assert batch.index.tolist() == [0, -1, 1, 2]
    assert store.geom_offsets.tolist() == [0, 2, 2, 3]
    assert store.kind.tolist() == [geo.kernels.POINT, geo.kernels.LINE,
                                   geo.kernels.POLYGON]
    assert store.prim_offsets.tolist() == [0, 1, 2, 4]
    assert store.ring_offsets.tolist() == [0, 1, 4, 9, 14]
    assert batch.empty().tolist() == [False, False, True, False]
    assert batch.srid().tolist() == [0, 0, 0, 4326]
    xmin, ymin, xmax, ymax = batch.bounds()
    assert (xmin[0], ymin[0], xmax[0], ymax[0]) == (0, 0, 3, 3)
    assert math.isnan(xmin[1]) and math.isnan(xmin[2])
    assert (xmin[3], ymin[3], xmax[3], ymax[3]) == donut.bounds()
    # 2 line segments, 4 shell edges, 4 hole edges; none across rings
    assert store.segments.prim_seg.tolist() == [0, 0, 2, 10]
    assert store.segments.ring.tolist() == [1, 1] + [2] * 4 + [3] * 4


def test_builder_drops_a_row_abandoned_midway():
    builder = geo.CSRBuilder()
    builder.add_geometry(Point(1, 1))
    builder.end_row()
    builder.add_polygon([[(0, 0), (1, 0), (1, 1), (0, 0)], [(5, 5)] * 4])
    builder.add_line([(9, 9), (8, 8)])
    builder.skip_row()
    builder.add_line([(2, 2), (3, 3)])
    builder.end_row()
    _same_csr(builder.finish(), geometry_csr(
        [Point(1, 1), None, LineString([(2, 2), (3, 3)])]))


# ---------------------------------------------------------------------------
# On vectors: CSR views of payload columns
# ---------------------------------------------------------------------------

SHAPES = [
    Point(1, 2, 4326),
    LineString([(0, 0), (3, 0), (3, 3)]),
    LineString([(7, 7)]),
    LineString([]),
    Polygon([(0, 0), (4, 0), (4, 4), (0, 4)], [[(1, 1), (2, 1), (2, 2)]]),
    GeometryCollection([Point(5, 5), LineString([(0, 1), (1, 0)])]),
    None,
]


def _same_csr(a, b):
    assert a.index.tolist() == b.index.tolist()
    for name in ("geom_offsets", "kind", "prim_offsets", "ring_offsets",
                 "x", "y", "srid"):
        assert getattr(a.store, name).tolist() == \
            getattr(b.store, name).tolist(), name


def test_geom_csr_reads_objects_wkb_and_wkt_alike():
    # repeat payload objects, as join chunks do: one store entry each
    shapes = SHAPES * 4
    geometry_type = core.connect().database.types.lookup("GEOMETRY")
    objects = geom_csr(Vector.from_values(geometry_type, shapes))
    assert len(objects.store.empty) == 6 and len(objects) == len(shapes)
    _same_csr(objects, geometry_csr(SHAPES).take(
        np.tile(np.arange(len(SHAPES)), 4)))
    plain = [g and g.with_srid(0) for g in SHAPES]
    wkb = geom_csr(Vector.from_values(
        BLOB, [g and geo.encode_wkb(g) for g in plain]))
    wkt = geom_csr(Vector.from_values(
        VARCHAR, [g and geo.format_wkt(g) for g in plain]))
    _same_csr(wkb, geometry_csr(plain))
    _same_csr(wkt, geometry_csr(plain))
    # an unreadable payload is a row the kernels skip, not an error here
    broken = geom_csr(Vector.from_values(VARCHAR, ["POINT(1 1)", "nonsense"]))
    assert broken.index.tolist() == [0, -1]
    # bounds come off the arrays; empty and NULL rows have no box
    boxes = geom_soa(Vector.from_values(geometry_type, SHAPES))
    assert boxes.ok.tolist() == [True, True, True, False, True, True, False]
    assert (boxes.xmin[4], boxes.ymax[4], boxes.srid[0]) == (0, 4, 4326)


TRIPS = [
    "Point(1 1)@2020-01-01",
    "{Point(1 1)@2020-01-01, Point(2 2)@2020-01-02, Point(1 1)@2020-01-03}",
    "[Point(0 0)@2020-01-01, Point(0 0)@2020-01-02, Point(3 4)@2020-01-03]",
    "[Point(5 5)@2020-01-01, Point(5 5)@2020-01-02]",
    "{[Point(0 0)@2020-01-01, Point(1 1)@2020-01-02],"
    " [Point(9 9)@2020-01-03], [Point(2 2)@2020-01-04, Point(2 3)@2020-01-05]}",
    "SRID=4326;[Point(0 0)@2020-01-01, Point(1 0)@2020-01-02]",
    "Interp=Step;[Point(0 0)@2020-01-01, Point(1 0)@2020-01-02]",
]


def test_tpoint_csr_is_the_trajectory():
    ltype = TEMPORAL_TYPES["tgeompoint"]
    trips = [meos.parse_temporal(text, meos.temporal_type("tgeompoint"))
             for text in TRIPS] + [None]
    got = tpoint_csr(Vector.from_values(ltype, trips))
    want = geometry_csr([t and meos.trajectory(t) for t in trips])
    _same_csr(got, want)
    # a temporal float has no trajectory: skipped, for the scalar path
    tfloat = meos.parse_temporal("1.5@2020-01-01", meos.temporal_type("tfloat"))
    assert tpoint_csr(Vector.from_values(ltype, [tfloat])).index.tolist() == [-1]


# ---------------------------------------------------------------------------
# Through SQL: quack (batch kernels) against pgsim (one pair per call)
# ---------------------------------------------------------------------------

KERNEL_QUERIES = {
    "st_distance": get_query(5).sql,
    "st_dwithin": """
        SELECT t.TripId, p.PointId FROM Trips t, Points p
        WHERE ST_DWithin(t.Traj, p.Geom, 25.0) ORDER BY t.TripId, p.PointId""",
    "st_distance_values": """
        SELECT t.TripId, r.RegionId, ST_Distance(t.Traj, r.Geom) AS d
        FROM Trips t, Regions1 r ORDER BY t.TripId, r.RegionId""",
    "st_intersects": """
        SELECT t.TripId, r.RegionId FROM Trips t, Regions r
        WHERE ST_Intersects(t.Traj, r.Geom) ORDER BY t.TripId, r.RegionId""",
    "st_intersects_lines": """
        SELECT a.TripId, b.TripId FROM Trips a, Trips b
        WHERE a.TripId < b.TripId AND a.VehicleId < 4
          AND ST_Intersects(a.Traj, b.Traj) ORDER BY a.TripId, b.TripId""",
    "eintersects": get_query(13).sql,
    "eintersects_points": get_query(15).sql,
    "q16": get_query(16).sql,
    "q17": get_query(17).sql,
    "q9_span_overlap": get_query(9).sql,
}


@pytest.fixture(scope="module")
def city():
    return generate(0.0002, 4711)


@pytest.fixture(scope="module")
def duck(city):
    return prepare_scenario("mobilityduck", city)


@pytest.fixture(scope="module")
def row_engine_rows(city):
    con = prepare_scenario("mobilitydb", city)
    return {name: con.execute(sql).fetchall()
            for name, sql in KERNEL_QUERIES.items()}


@pytest.mark.parametrize("name", sorted(KERNEL_QUERIES))
def test_engines_agree_row_for_row(duck, row_engine_rows, name):
    result = duck.execute(KERNEL_QUERIES[name])
    # repr compares the ST_Distance doubles digit for digit
    assert repr(result.fetchall()) == repr(row_engine_rows[name])
    assert result.stats().counters.get("quack.function_batch_ops", 0) > 0


@pytest.mark.parametrize("name", ["st_distance", "st_dwithin", "q16",
                                  "st_intersects", "q9_span_overlap"])
def test_engines_agree_under_verification(duck, row_engine_rows, name,
                                          verification):
    """The ``evaluate_batch`` cross-check re-runs every kernel chunk
    through the scalar row loop and demands equal vectors."""
    result = duck.execute(KERNEL_QUERIES[name])
    assert repr(result.fetchall()) == repr(row_engine_rows[name])
    assert result.stats().counters["verify.kernel_crosschecks"] > 0


def test_kernel_errors_are_the_row_loops(duck):
    """An empty geometry makes ST_Distance raise the scalar error; the
    rows before it do not matter to the message."""
    duck.execute("CREATE TABLE shapes(id INTEGER, g GEOMETRY)")
    table = duck.database.catalog.get_table("shapes")
    table.append_rows([(i, Point(i, i)) for i in range(20)]
                      + [(20, LineString([])), (21, None)])
    try:
        with pytest.raises(ExecutionError) as batch:
            duck.execute("SELECT ST_Distance(g, g) FROM shapes").fetchall()
        assert "ST_Distance: distance to an empty geometry" in str(batch.value)
        rows = duck.execute(
            "SELECT id, ST_DWithin(g, g, 1.0), ST_Intersects(g, g)"
            " FROM shapes ORDER BY id").fetchall()
        assert rows[:20] == [(i, True, True) for i in range(20)]
        assert rows[20:] == [(20, False, False), (21, None, None)]
    finally:
        duck.execute("DROP TABLE shapes")


def test_kernel_counters_in_explain_analyze(duck):
    report = duck.explain_analyze(KERNEL_QUERIES["q17"], format="json")
    counters = report["counters"]
    # every (trip, point) row enters the kernel; few survive its bounds
    # test to have their vertex x segment pairs expanded
    assert counters["geo.kernel_rows"] == 164 * 100
    assert 0 < counters["geo.kernel_pairs"] < 2 * counters["geo.kernel_rows"]
    text = duck.execute("EXPLAIN ANALYZE " + KERNEL_QUERIES["q17"]
                        ).fetchall()[0][0]
    assert f"geo.kernel_rows={164 * 100}" in text


def test_q5_measures_only_bounded_pairs(duck, row_engine_rows, unverified):
    """Q5's ST_Distance evaluates only the run pairs that can decide a
    row: at most half of the 334,718 element pairs that expanding every
    vertex x segment pair of every row took."""
    result = duck.execute(KERNEL_QUERIES["st_distance"])
    assert repr(result.fetchall()) == repr(row_engine_rows["st_distance"])
    assert 0 < result.stats().counters["geo.kernel_pairs"] <= 167_359


@pytest.mark.parametrize("variant", ["sql", "optimized_sql"])
def test_q5_variants_under_verification(duck, row_engine_rows, variant,
                                        verification):
    """Both Q5 spellings (WKB and ``*_gs``) cross-check the batch hook
    against the row loop and give the row engine's doubles."""
    result = duck.execute(getattr(get_query(5), variant))
    assert repr(result.fetchall()) == repr(row_engine_rows["st_distance"])
    assert result.stats().counters["verify.kernel_crosschecks"] > 0


def test_q16_exact_tests_once_per_distinct_pair(duck, monkeypatch):
    """``make_batch`` answers each distinct (trip slice, region) pair of
    a chunk once: Q16 repeats every pair per crossed-in licence."""
    calls = []
    kernel = geo.intersects_rows

    def spy(a, b):
        calls.append(list(zip(a.index.tolist(), b.index.tolist())))
        return kernel(a, b)

    monkeypatch.setattr(geo, "intersects_rows", spy)
    result = duck.execute(KERNEL_QUERIES["q16"])
    result.fetchall()
    counters = result.stats().counters
    assert calls and all(len(set(c)) == len(c) for c in calls)
    tested = sum(len(c) for c in calls)
    assert tested == counters["geo.kernel_rows"]
    assert tested == counters["quack.bbox_rows_scalar"]
    distinct_pairs = sum(
        duck.execute(f"""
            SELECT count(*) FROM (
              SELECT DISTINCT t.TripId, pr.PeriodId, r.RegionId
              FROM Trips t, {licences} l, Periods1 pr, Regions1 r
              WHERE t.VehicleId = l.VehicleId AND t.Trip && pr.Period
            ) AS pairs""").fetchall()[0][0]
        for licences in ("Licences1", "Licences2")
    )
    assert tested <= distinct_pairs
    assert counters["quack.distinct_rows_saved"] > 0


SPAN_TABLES = [
    "CREATE TABLE trips(id INTEGER, trip TGEOMPOINT)",
    "CREATE TABLE spans(id INTEGER, span TSTZSPAN)",
    # every (trip, span) pair four times: enough rows for the batch path
    "CREATE TABLE n(k INTEGER)",
    """INSERT INTO trips VALUES
        (1, '[Point(0 0)@2020-01-02, Point(1 1)@2020-01-04]'),
        (2, '[Point(0 0)@2020-01-02, Point(1 1)@2020-01-04)'),
        (3, 'Point(5 5)@2020-01-06'), (4, NULL)""",
    """INSERT INTO spans VALUES
        (1, '[2020-01-01, 2020-01-02]'), (2, '[2020-01-01, 2020-01-02)'),
        (3, '[2020-01-04, 2020-01-05]'), (4, '(2020-01-04, 2020-01-05]'),
        (5, '[2020-01-03, 2020-01-03]'), (6, '[2020-01-06, 2020-01-07]'),
        (7, '[2020-02-01, 2020-02-02]'), (8, NULL)""",
    "INSERT INTO n VALUES (1), (2), (3), (4)",
]


def test_span_overlap_kernel_matches_scalar_operator():
    duck, rows_engine = core.connect(), core.connect_baseline()
    for statement in SPAN_TABLES:
        duck.execute(statement)
        rows_engine.execute(statement)
    sql = ("SELECT t.id, s.id, t.trip && s.span, s.span && t.trip"
           " FROM trips t, spans s, n ORDER BY t.id, s.id, n.k")
    result = duck.execute(sql)
    rows = result.fetchall()
    assert rows == rows_engine.execute(sql).fetchall()
    counters = result.stats().counters
    assert counters["quack.function_batch_ops"] == 2
    # spans that touch at an end go to the scalar operator for their
    # inclusivity flags, once per distinct pair: 9 of them, both ways
    assert counters["quack.bbox_rows_scalar"] == 2 * 9
    overlap = {(t, s): (x, y) for t, s, x, y in rows}
    assert overlap[(1, 1)] == (True, True)      # ..02] meets [02..
    assert overlap[(1, 2)] == (False, False)    # ..02) misses it
    assert overlap[(2, 3)] == (False, False)    # ..04) misses [04..
    assert overlap[(1, 4)] == (False, False)    # ..04] misses (04..
    assert overlap[(1, 5)] == (True, True)
    assert overlap[(3, 6)] == (True, True)
    assert overlap[(3, 7)] == (False, False)
    assert overlap[(4, 1)] == (None, None) and overlap[(1, 8)] == (None, None)


# ---------------------------------------------------------------------------
# Conjunct order: a kernel must not jump the bbox test written before it
# ---------------------------------------------------------------------------

#: per query, the AND operands of every filter / join residual in plan
#: order (top down) under the cost-based plans: each `&&` is in the same
#: conjunction before the function it guards, or in a join below it
CONJUNCT_ORDER = {
    4: [["&&", "ST_Intersects"]],
    6: [["<", "&&", "eDwithin"], ["="], ["="]],
    7: [["&&", "ST_Intersects"], ["="], ["BoundSubqueryExpr"]],
    10: [["<>", "&&"], ["BoundIsNull"]],
    13: [["eIntersects"], ["&&"]],
    15: [["eIntersects"], ["&&"]],
    16: [["eIntersects", "eIntersects"], ["<>", "&&", "NOT eDwithin"],
         ["&&"]],
}
#: where the row engine's plan differs: its index join into Trips' GiST
#: index takes all of `t1`'s predicates in one residual
CONJUNCT_ORDER_INDEXED = {
    16: [["<>", "&&", "eIntersects", "NOT eDwithin"], ["eIntersects"],
         ["&&"]],
}


def _operands(expr):
    if isinstance(expr, bound.BoundConjunction) and expr.op == "AND":
        return [name for arg in expr.args for name in _operands(arg)]
    if isinstance(expr, bound.BoundNot):
        return ["NOT " + _operands(expr.child)[0]]
    return [getattr(expr, "name", "") or type(expr).__name__]


def _conjunctions(op, out):
    for attr in ("condition", "residual"):
        if getattr(op, attr, None) is not None:
            out.append(_operands(getattr(op, attr)))
    for child in op.children():
        _conjunctions(child, out)
    return out


@pytest.mark.parametrize("scenario", ["mobilityduck", "mobilitydb_idx"])
def test_conjunct_order_is_unchanged(city, scenario):
    con = prepare_scenario(scenario, city)
    orders = dict(CONJUNCT_ORDER)
    if scenario == "mobilitydb_idx":
        orders.update(CONJUNCT_ORDER_INDEXED)
    for number, expected in orders.items():
        plan = con._plan(parse_sql(get_query(number).sql)[0])
        assert _conjunctions(plan, []) == expected, f"Q{number}"
