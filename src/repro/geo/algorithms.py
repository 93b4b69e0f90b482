"""Computational-geometry predicates and measures.

All algorithms are exact-enough planar implementations with an epsilon
tolerance for boundary cases; they back the PostGIS-style functions
(``ST_Distance``, ``ST_Intersects``, ``ST_Contains``, …) and the MEOS
restriction operator ``atGeometry`` (segment-to-polygon clipping).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geometry import (
    Geometry,
    GeometryError,
    LineString,
    Point,
    Polygon,
    flatten,
)
from .kernels import (
    EPSILON,
    SEGMENT_PAD,
    distance_rows,
    geometry_csr,
)

Coord = tuple[float, float]

_FIRST, _SECOND = np.array([0]), np.array([1])


# ---------------------------------------------------------------------------
# Segment primitives
# ---------------------------------------------------------------------------


def point_segment_distance(p: Coord, a: Coord, b: Coord) -> float:
    """Distance from point ``p`` to segment ``ab``."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 <= EPSILON * EPSILON:
        return _norm(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = min(1.0, max(0.0, t))
    return _norm(px - (ax + t * dx), py - (ay + t * dy))


def _norm(ex: float, ey: float) -> float:
    # Spelled as the batch kernels spell it (kernels.py), not hypot:
    # scalar and array results agree on float bits.
    return math.sqrt(ex * ex + ey * ey)


def _orient(a: Coord, b: Coord, c: Coord) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: Coord, b: Coord, p: Coord) -> bool:
    return (
        min(a[0], b[0]) - EPSILON <= p[0] <= max(a[0], b[0]) + EPSILON
        and min(a[1], b[1]) - EPSILON <= p[1] <= max(a[1], b[1]) + EPSILON
    )


def segments_intersect(a: Coord, b: Coord, c: Coord, d: Coord) -> bool:
    """True if closed segments ``ab`` and ``cd`` share at least one point."""
    if (
        max(a[0], b[0]) + SEGMENT_PAD < min(c[0], d[0])
        or max(c[0], d[0]) + SEGMENT_PAD < min(a[0], b[0])
        or max(a[1], b[1]) + SEGMENT_PAD < min(c[1], d[1])
        or max(c[1], d[1]) + SEGMENT_PAD < min(a[1], b[1])
    ):
        return False
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if ((o1 > EPSILON and o2 < -EPSILON) or (o1 < -EPSILON and o2 > EPSILON)) and (
        (o3 > EPSILON and o4 < -EPSILON) or (o3 < -EPSILON and o4 > EPSILON)
    ):
        return True
    if abs(o1) <= EPSILON and _on_segment(a, b, c):
        return True
    if abs(o2) <= EPSILON and _on_segment(a, b, d):
        return True
    if abs(o3) <= EPSILON and _on_segment(c, d, a):
        return True
    if abs(o4) <= EPSILON and _on_segment(c, d, b):
        return True
    return False


def segment_intersection_params(
    a: Coord, b: Coord, c: Coord, d: Coord
) -> list[float]:
    """Parameters ``t`` in [0, 1] along ``ab`` where it crosses segment ``cd``.

    Collinear overlaps contribute the parameter range endpoints of the
    overlapping portion.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    dx_, dy_ = d
    r = (bx - ax, by - ay)
    s = (dx_ - cx, dy_ - cy)
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (cx - ax, cy - ay)
    if abs(denom) > EPSILON:
        t = (qp[0] * s[1] - qp[1] * s[0]) / denom
        u = (qp[0] * r[1] - qp[1] * r[0]) / denom
        if -EPSILON <= t <= 1 + EPSILON and -EPSILON <= u <= 1 + EPSILON:
            return [min(1.0, max(0.0, t))]
        return []
    # Parallel: check collinearity.
    if abs(qp[0] * r[1] - qp[1] * r[0]) > EPSILON:
        return []
    r_len2 = r[0] * r[0] + r[1] * r[1]
    if r_len2 <= EPSILON * EPSILON:
        return []
    t0 = (qp[0] * r[0] + qp[1] * r[1]) / r_len2
    t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / r_len2
    lo, hi = min(t0, t1), max(t0, t1)
    lo = max(0.0, lo)
    hi = min(1.0, hi)
    if lo > hi:
        return []
    return [lo, hi]


# ---------------------------------------------------------------------------
# Point-in-polygon (even-odd rule, boundary counts as inside)
# ---------------------------------------------------------------------------


def point_in_ring(p: Coord, ring: Sequence[Coord]) -> bool:
    px, py = p
    inside = False
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        if point_segment_distance(p, (x0, y0), (x1, y1)) <= EPSILON:
            return True  # on the boundary
        if (y0 > py) != (y1 > py):
            x_cross = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            if px < x_cross:
                inside = not inside
    return inside


def point_in_polygon(p: Coord, polygon: Polygon) -> bool:
    if not point_in_ring(p, polygon.shell):
        return False
    for hole in polygon.holes:
        # Points strictly inside a hole are outside; hole boundary is inside.
        on_boundary = any(
            point_segment_distance(p, a, b) <= EPSILON
            for a, b in zip(hole, hole[1:])
        )
        if not on_boundary and point_in_ring(p, hole):
            return False
    return True


# ---------------------------------------------------------------------------
# Public geometry predicates / measures
# ---------------------------------------------------------------------------


def _bounds_disjoint(a: Geometry, b: Geometry, pad: float = 0.0) -> bool:
    if a.is_empty() or b.is_empty():
        return True
    ax0, ay0, ax1, ay1 = a.bounds()
    bx0, by0, bx1, by1 = b.bounds()
    return (
        ax1 + pad < bx0
        or bx1 + pad < ax0
        or ay1 + pad < by0
        or by1 + pad < ay0
    )


def _primitives(geom: Geometry) -> list[Geometry]:
    """The non-empty primitives of ``geom``; a one-vertex line (what
    degenerate clipping leaves) is the point it collapsed to."""
    return [
        Point(*g.points[0], g.srid)
        if isinstance(g, LineString) and len(g.points) == 1 else g
        for g in flatten(geom) if not g.is_empty()
    ]


def _segments_of(geom: Geometry):
    if isinstance(geom, LineString):
        yield from geom.segments()
    elif isinstance(geom, Polygon):
        for ring in geom.rings():
            yield from zip(ring, ring[1:])


def _point_gap(point: Point, other: Geometry) -> float:
    """Distance from a point to a primitive; 0.0 where they meet (within
    EPSILON of a point or a line, inside a polygon or on its rings)."""
    p = (point.x, point.y)
    if isinstance(other, Polygon):
        if point_in_polygon(p, other):
            return 0.0
        return min(
            point_segment_distance(p, s, e) for s, e in _segments_of(other)
        )
    if isinstance(other, Point):
        gap = _norm(point.x - other.x, point.y - other.y)
    else:
        gap = min(
            point_segment_distance(p, s, e) for s, e in other.segments()
        )
    return 0.0 if gap <= EPSILON else gap


def _primitive_intersects(a: Geometry, b: Geometry) -> bool:
    if isinstance(b, Point):
        a, b = b, a
    if isinstance(a, Point):
        if isinstance(b, Polygon):
            return point_in_polygon((a.x, a.y), b)
        return _point_gap(a, b) == 0.0
    # line/line, line/polygon, polygon/polygon
    for s1 in _segments_of(a):
        for s2 in _segments_of(b):
            if segments_intersect(s1[0], s1[1], s2[0], s2[1]):
                return True
    # Containment without boundary crossing.
    if isinstance(a, Polygon) and point_in_polygon(next(b.coordinates()), a):
        return True
    if isinstance(b, Polygon) and point_in_polygon(next(a.coordinates()), b):
        return True
    return False


# The row engine asks about one pair of objects per call.  ``intersects``
# stops at the first hit and rejects most segment pairs on four
# comparisons, so it walks the objects here; ``distance`` between two
# geometries with segments is the batch kernel on a batch of one, whose
# run boxes skip the segments that cannot decide it.  Both spell each
# formula as kernels.py does: the engines agree on float bits.


def intersects(a: Geometry, b: Geometry) -> bool:
    """PostGIS-style ``ST_Intersects``."""
    if _bounds_disjoint(a, b):
        return False
    for pa in _primitives(a):
        for pb in _primitives(b):
            if _bounds_disjoint(pa, pb):
                continue
            if _primitive_intersects(pa, pb):
                return True
    return False


def distance(a: Geometry, b: Geometry) -> float:
    """PostGIS-style ``ST_Distance`` (planar minimum distance)."""
    if a.is_empty() or b.is_empty():
        raise GeometryError("distance to an empty geometry is undefined")
    points, others = _primitives(a), _primitives(b)
    if not all(isinstance(g, Point) for g in points):
        if not all(isinstance(g, Point) for g in others):
            # One store for both: its segment and run indexes are built
            # once.
            both = geometry_csr((a, b))
            return float(distance_rows(both.take(_FIRST),
                                       both.take(_SECOND))[0])
        points, others = others, points
    return min(_point_gap(p, g) for p in points for g in others)


def dwithin(a: Geometry, b: Geometry, dist: float) -> bool:
    """True if the geometries come within ``dist`` of each other."""
    if _bounds_disjoint(a, b, pad=dist):
        return False
    return distance(a, b) <= dist + EPSILON


def contains(container: Geometry, item: Geometry) -> bool:
    """Simplified ``ST_Contains``: every vertex of ``item`` lies inside
    ``container`` (boundary included) and the geometries intersect."""
    if container.is_empty() or item.is_empty():
        return False
    polys = [g for g in flatten(container) if isinstance(g, Polygon)]
    if not polys:
        return False
    for coord in item.coordinates():
        if not any(point_in_polygon(coord, poly) for poly in polys):
            return False
    return True


def length(geom: Geometry) -> float:
    """Total length of all linear components."""
    total = 0.0
    for g in flatten(geom):
        if isinstance(g, LineString):
            total += g.length()
    return total


def convex_hull(geom: Geometry) -> Geometry:
    """Convex hull via Andrew's monotone chain.

    Returns a Polygon for 3+ non-collinear points, a LineString for
    collinear inputs, or the Point itself."""
    points = sorted(set(geom.coordinates()))
    if not points:
        raise GeometryError("convex hull of empty geometry")
    if len(points) == 1:
        return Point(points[0][0], points[0][1], geom.srid)

    def half(iterable):
        chain: list[Coord] = []
        for p in iterable:
            while len(chain) >= 2 and _orient(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(points)
    upper = half(reversed(points))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return LineString([points[0], points[-1]], geom.srid)
    return Polygon(hull, srid=geom.srid)


def centroid(geom: Geometry) -> Point:
    """Centroid of the highest-dimension components (simplified)."""
    polys = [g for g in flatten(geom) if isinstance(g, Polygon)]
    if polys:
        wx = wy = wsum = 0.0
        for poly in polys:
            c = poly.centroid()
            w = poly.area() or 1.0
            wx += c.x * w
            wy += c.y * w
            wsum += w
        return Point(wx / wsum, wy / wsum, geom.srid)
    coords = list(geom.coordinates())
    if not coords:
        raise GeometryError("centroid of empty geometry")
    return Point(
        sum(c[0] for c in coords) / len(coords),
        sum(c[1] for c in coords) / len(coords),
        geom.srid,
    )


# ---------------------------------------------------------------------------
# Segment-polygon clipping (for MEOS atGeometry)
# ---------------------------------------------------------------------------


def clip_segment_to_polygon(
    a: Coord, b: Coord, polygon: Polygon
) -> list[tuple[float, float]]:
    """Parameter intervals of segment ``ab`` that lie inside ``polygon``.

    Returns a sorted list of ``(t0, t1)`` with ``0 <= t0 <= t1 <= 1``;
    degenerate touch points appear as zero-width intervals.
    """
    cuts = {0.0, 1.0}
    for ring in polygon.rings():
        for c, d in zip(ring, ring[1:]):
            for t in segment_intersection_params(a, b, c, d):
                cuts.add(min(1.0, max(0.0, t)))
    params = sorted(cuts)
    intervals: list[tuple[float, float]] = []
    for t0, t1 in zip(params, params[1:]):
        tm = (t0 + t1) / 2.0
        mid = (a[0] + tm * (b[0] - a[0]), a[1] + tm * (b[1] - a[1]))
        if point_in_polygon(mid, polygon):
            if intervals and abs(intervals[-1][1] - t0) <= EPSILON:
                intervals[-1] = (intervals[-1][0], t1)
            else:
                intervals.append((t0, t1))
    if not intervals:
        # The segment may only touch the polygon at isolated points.
        touches = [
            t
            for t in params
            if point_in_polygon(
                (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])), polygon
            )
        ]
        intervals = [(t, t) for t in touches]
    return intervals


def clip_segment_to_geometry(
    a: Coord, b: Coord, geom: Geometry
) -> list[tuple[float, float]]:
    """Union of clip intervals against every polygon in ``geom``; for point
    geometries, zero-width intervals where the segment passes through."""
    intervals: list[tuple[float, float]] = []
    for g in flatten(geom):
        if isinstance(g, Polygon):
            intervals.extend(clip_segment_to_polygon(a, b, g))
        elif isinstance(g, Point):
            t = _project_param(a, b, (g.x, g.y))
            if t is not None:
                intervals.append((t, t))
    intervals.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + EPSILON:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _project_param(a: Coord, b: Coord, p: Coord) -> float | None:
    """Parameter of ``p`` along segment ``ab`` if ``p`` lies on it."""
    if point_segment_distance(p, a, b) > EPSILON:
        return None
    dx, dy = b[0] - a[0], b[1] - a[1]
    len2 = dx * dx + dy * dy
    if len2 <= EPSILON * EPSILON:
        return 0.0
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / len2
    return min(1.0, max(0.0, t))


__all__ = [
    "EPSILON",
    "centroid",
    "clip_segment_to_geometry",
    "clip_segment_to_polygon",
    "contains",
    "distance",
    "dwithin",
    "intersects",
    "length",
    "point_in_polygon",
    "point_in_ring",
    "point_segment_distance",
    "segment_intersection_params",
    "segments_intersect",
]
