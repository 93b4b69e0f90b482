"""Geometry model: a small, self-contained GEOS/PostGIS substitute.

The classes here implement the subset of the Simple Feature Access model
(OGC 06-103r4) that the MEOS temporal algebra and the BerlinMOD benchmark
queries exercise: points, linestrings, polygons, their multi-variants, and
heterogeneous collections.  Geometries are immutable value objects; all
mutating operations return new geometries.

Coordinates are 2D (x, y).  Every geometry carries an SRID (0 = unknown);
operations that combine two geometries require their SRIDs to match.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence


class GeometryError(ValueError):
    """Raised for malformed geometries or incompatible operands."""


def _require_same_srid(a: "Geometry", b: "Geometry") -> None:
    if a.srid != b.srid and a.srid != 0 and b.srid != 0:
        raise GeometryError(
            f"operation on mixed SRIDs: {a.srid} vs {b.srid}"
        )


class Geometry:
    """Abstract base for all geometry types."""

    __slots__ = ("srid", "_bounds")

    #: Simple-feature type name, e.g. ``"Point"``; set by subclasses.
    geom_type: str = "Geometry"

    def __init__(self, srid: int = 0):
        self.srid = int(srid)
        self._bounds: tuple[float, float, float, float] | None = None

    # -- structural protocol ------------------------------------------------

    def coordinates(self) -> Iterator[tuple[float, float]]:
        """Yield every vertex of the geometry."""
        raise NotImplementedError

    def is_empty(self) -> bool:
        return next(self.coordinates(), None) is None

    def bounds(self) -> tuple[float, float, float, float]:
        """Return (xmin, ymin, xmax, ymax); raises on empty geometries.

        The result is cached — geometries are immutable value objects."""
        if self._bounds is not None:
            return self._bounds
        xmin = ymin = math.inf
        xmax = ymax = -math.inf
        for x, y in self.coordinates():
            xmin = min(xmin, x)
            ymin = min(ymin, y)
            xmax = max(xmax, x)
            ymax = max(ymax, y)
        if xmin is math.inf:
            raise GeometryError("empty geometry has no bounds")
        self._bounds = (xmin, ymin, xmax, ymax)
        return self._bounds

    def with_srid(self, srid: int) -> "Geometry":
        """Return a copy of this geometry tagged with ``srid``."""
        clone = self._clone()
        clone.srid = int(srid)
        return clone

    def _clone(self) -> "Geometry":
        raise NotImplementedError

    # -- equality / hashing --------------------------------------------------

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return (
            self.geom_type == other.geom_type
            and self.srid == other.srid
            and self._key() == other._key()
        )

    def __hash__(self) -> int:
        return hash((self.geom_type, self.srid, self._key()))

    def __repr__(self) -> str:
        from .wkt import format_wkt

        wkt = format_wkt(self, precision=6)
        prefix = f"SRID={self.srid};" if self.srid else ""
        return f"<{type(self).__name__} {prefix}{wkt}>"


class Point(Geometry):
    """A single 2D position."""

    __slots__ = ("x", "y")
    geom_type = "Point"

    def __init__(self, x: float, y: float, srid: int = 0):
        super().__init__(srid)
        self.x = float(x)
        self.y = float(y)

    def coordinates(self) -> Iterator[tuple[float, float]]:
        yield (self.x, self.y)

    def is_empty(self) -> bool:
        return False

    def _clone(self) -> "Point":
        return Point(self.x, self.y, self.srid)

    def _key(self):
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class LineString(Geometry):
    """A polyline of two or more vertices (one vertex is allowed when it
    results from degenerate clipping; zero vertices means empty)."""

    __slots__ = ("points",)
    geom_type = "LineString"

    def __init__(
        self, points: Sequence[tuple[float, float]], srid: int = 0
    ):
        super().__init__(srid)
        self.points: tuple[tuple[float, float], ...] = tuple(
            (float(x), float(y)) for x, y in points
        )

    def coordinates(self) -> Iterator[tuple[float, float]]:
        yield from self.points

    def is_empty(self) -> bool:
        return not self.points

    def _clone(self) -> "LineString":
        return LineString(self.points, self.srid)

    def _key(self):
        return self.points

    def length(self) -> float:
        total = 0.0
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            total += math.hypot(x1 - x0, y1 - y0)
        return total

    def segments(self) -> Iterator[tuple[tuple[float, float], tuple[float, float]]]:
        yield from zip(self.points, self.points[1:])


class Polygon(Geometry):
    """A polygon with an exterior shell and optional interior holes.

    Rings are stored closed (first vertex == last vertex); the constructor
    closes open rings.  Ring orientation is not normalized — point-in-polygon
    uses the even-odd rule, which is orientation independent.
    """

    __slots__ = ("shell", "holes")
    geom_type = "Polygon"

    def __init__(
        self,
        shell: Sequence[tuple[float, float]],
        holes: Iterable[Sequence[tuple[float, float]]] = (),
        srid: int = 0,
    ):
        super().__init__(srid)
        self.shell = self._close_ring(shell)
        self.holes = tuple(self._close_ring(h) for h in holes)

    @staticmethod
    def _close_ring(
        ring: Sequence[tuple[float, float]],
    ) -> tuple[tuple[float, float], ...]:
        pts = [(float(x), float(y)) for x, y in ring]
        if not pts:
            return ()
        if len(pts) < 3:
            raise GeometryError("polygon ring needs at least 3 vertices")
        if pts[0] != pts[-1]:
            pts.append(pts[0])
        return tuple(pts)

    def coordinates(self) -> Iterator[tuple[float, float]]:
        yield from self.shell
        for hole in self.holes:
            yield from hole

    def is_empty(self) -> bool:
        return not self.shell and not any(self.holes)

    def rings(self) -> Iterator[tuple[tuple[float, float], ...]]:
        yield self.shell
        yield from self.holes

    def _clone(self) -> "Polygon":
        return Polygon(self.shell, self.holes, self.srid)

    def _key(self):
        return (self.shell, self.holes)

    def area(self) -> float:
        """Unsigned area (shell area minus hole areas)."""
        total = abs(_ring_area(self.shell))
        for hole in self.holes:
            total -= abs(_ring_area(hole))
        return total

    def centroid(self) -> Point:
        cx, cy, area = _ring_centroid(self.shell)
        if area == 0.0:
            xs = [p[0] for p in self.shell]
            ys = [p[1] for p in self.shell]
            return Point(sum(xs) / len(xs), sum(ys) / len(ys), self.srid)
        return Point(cx, cy, self.srid)


def _ring_area(ring: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        total += x0 * y1 - x1 * y0
    return total / 2.0


def _ring_centroid(
    ring: Sequence[tuple[float, float]],
) -> tuple[float, float, float]:
    cx = cy = area = 0.0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        cross = x0 * y1 - x1 * y0
        area += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    area /= 2.0
    if area == 0.0:
        return (0.0, 0.0, 0.0)
    return (cx / (6.0 * area), cy / (6.0 * area), area)


class _MultiGeometry(Geometry):
    """Shared behaviour of homogeneous and heterogeneous collections."""

    __slots__ = ("geoms",)
    element_type: type[Geometry] | None = None

    def __init__(self, geoms: Iterable[Geometry], srid: int = 0):
        super().__init__(srid)
        items = tuple(geoms)
        if self.element_type is not None:
            for g in items:
                if not isinstance(g, self.element_type):
                    raise GeometryError(
                        f"{type(self).__name__} may only contain "
                        f"{self.element_type.__name__}, got {type(g).__name__}"
                    )
        self.geoms = items
        if srid == 0 and items:
            self.srid = items[0].srid

    def coordinates(self) -> Iterator[tuple[float, float]]:
        for g in self.geoms:
            yield from g.coordinates()

    def is_empty(self) -> bool:
        return all(g.is_empty() for g in self.geoms)

    def _clone(self):
        return type(self)(tuple(g._clone() for g in self.geoms), self.srid)

    def _key(self):
        return tuple((g.geom_type, g._key()) for g in self.geoms)

    def __len__(self) -> int:
        return len(self.geoms)

    def __iter__(self) -> Iterator[Geometry]:
        return iter(self.geoms)


class MultiPoint(_MultiGeometry):
    __slots__ = ()
    geom_type = "MultiPoint"
    element_type = Point


class MultiLineString(_MultiGeometry):
    __slots__ = ()
    geom_type = "MultiLineString"
    element_type = LineString


class MultiPolygon(_MultiGeometry):
    __slots__ = ()
    geom_type = "MultiPolygon"
    element_type = Polygon


class GeometryCollection(_MultiGeometry):
    __slots__ = ()
    geom_type = "GeometryCollection"
    element_type = None


def collect(geoms: Sequence[Geometry]) -> Geometry:
    """Aggregate geometries into the tightest collection type, like
    PostGIS ``ST_Collect``.

    A single geometry is returned unchanged; homogeneous inputs produce the
    corresponding Multi* type; mixed inputs produce a GeometryCollection.
    """
    items = [g for g in geoms if g is not None]
    if not items:
        return GeometryCollection(())
    if len(items) == 1:
        return items[0]
    srid = items[0].srid
    for g in items[1:]:
        _require_same_srid(items[0], g)
    kinds = {g.geom_type for g in items}
    if kinds == {"Point"}:
        return MultiPoint(items, srid)
    if kinds == {"LineString"}:
        return MultiLineString(items, srid)
    if kinds == {"Polygon"}:
        return MultiPolygon(items, srid)
    return GeometryCollection(items, srid)


def flatten(geom: Geometry) -> Iterator[Geometry]:
    """Yield the primitive (non-collection) geometries inside ``geom``."""
    if isinstance(geom, _MultiGeometry):
        for g in geom.geoms:
            yield from flatten(g)
    else:
        yield geom
