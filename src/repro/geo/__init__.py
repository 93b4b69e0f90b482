"""repro.geo — a self-contained planar geometry kernel.

Stands in for GEOS/PostGIS: geometry value types, WKT/EWKT/WKB
serialization, spatial predicates and measures, and SRID reprojection.
"""

from .algorithms import (
    centroid,
    convex_hull,
    clip_segment_to_geometry,
    clip_segment_to_polygon,
    contains,
    distance,
    dwithin,
    intersects,
    length,
    point_in_polygon,
)
from .crs import known_srids, register_projection, transform, transform_coord
from .kernels import (
    CSRBuilder,
    GeomCSR,
    distance_rows,
    dwithin_rows,
    geometry_csr,
    intersects_rows,
    lines_csr,
)
from .geometry import (
    Geometry,
    GeometryCollection,
    GeometryError,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    collect,
    flatten,
)
from .wkb import decode_wkb, encode_wkb
from .wkt import format_ewkt, format_wkt, parse_wkt

__all__ = [
    "CSRBuilder",
    "GeomCSR",
    "Geometry",
    "GeometryCollection",
    "GeometryError",
    "LineString",
    "MultiLineString",
    "MultiPoint",
    "MultiPolygon",
    "Point",
    "Polygon",
    "centroid",
    "clip_segment_to_geometry",
    "clip_segment_to_polygon",
    "collect",
    "contains",
    "convex_hull",
    "decode_wkb",
    "distance",
    "distance_rows",
    "dwithin",
    "dwithin_rows",
    "encode_wkb",
    "flatten",
    "format_ewkt",
    "format_wkt",
    "geometry_csr",
    "intersects",
    "intersects_rows",
    "lines_csr",
    "known_srids",
    "length",
    "parse_wkt",
    "point_in_polygon",
    "register_projection",
    "transform",
    "transform_coord",
]
