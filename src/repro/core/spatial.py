"""A miniature DuckDB-Spatial extension stand-in.

Registers the ``GEOMETRY`` and ``BOX_2D`` types and the ``ST_*`` functions
the paper's queries call, and defines the native ``RTREE`` index type on
GEOMETRY columns that Figure 2 compares MobilityDuck's ``TRTREE`` against.

Cost model fidelity: GEOMETRY values are geometry objects, ``WKB_BLOB``
values are raw bytes.  Casting between them performs real WKB
encoding/decoding — reproducing the interop overhead the paper discusses
in §6.3/§7 (and that its ``*_gs`` functions avoid).
"""

from __future__ import annotations

from typing import Any


from .. import geo
from ..index import BoxIndexType
from ..quack.boxes import Box, bounding_box
from ..quack.extension import ExtensionUtil, make_user_type
from ..quack.functions import AggregateFunction, ScalarFunction
from ..quack.types import (
    BIGINT as BIGINT_,
    BLOB,
    BOOLEAN,
    DOUBLE,
    LIST,
    VARCHAR,
    LogicalType,
)
from .boxkernels import as_geometry as _as_geometry, geometry_batch
from .codecs import WKB_CODEC

EXTENSION_NAME = "spatial"

GEOMETRY_TYPE = make_user_type("GEOMETRY", geo.Geometry, codec=WKB_CODEC)


class Box2D:
    """Value of the DuckDB ``BOX_2D`` type."""

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float):
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.max_x = float(max_x)
        self.max_y = float(max_y)

    @classmethod
    def from_struct(cls, fields: dict) -> "Box2D":
        try:
            return cls(fields["min_x"], fields["min_y"], fields["max_x"],
                       fields["max_y"])
        except KeyError as exc:
            raise ValueError(f"BOX_2D struct missing field {exc}") from None

    def to_polygon(self) -> geo.Geometry:
        return geo.Polygon(
            [
                (self.min_x, self.min_y),
                (self.max_x, self.min_y),
                (self.max_x, self.max_y),
                (self.min_x, self.max_y),
            ]
        )

    def __repr__(self) -> str:
        return (
            f"BOX_2D({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"
        )


BOX2D_TYPE = make_user_type("BOX_2D", Box2D)


def _geometry_box(value: Any) -> Box | None:
    """The box of a geometry, or of a value that stands for one; None
    for an empty geometry or any other value."""
    try:
        return bounding_box(_as_geometry(value))
    except ValueError:
        return None


#: DuckDB-Spatial's native RTREE over GEOMETRY bounding boxes: 2-D,
#: registered on the columnar engine only (MobilityDB/PostGIS index
#: geometry through GiST).
RTREE = BoxIndexType("RTREE", ("&&", "st_intersects"), _geometry_box,
                     axes="xy")


def load(database) -> None:
    """Register the spatial types and functions."""
    ExtensionUtil.register_type(database, "GEOMETRY", GEOMETRY_TYPE)
    ExtensionUtil.register_type(database, "BOX_2D", BOX2D_TYPE)

    # Casts: WKT text and WKB bytes to/from GEOMETRY; struct to BOX_2D.
    ExtensionUtil.register_cast_function(
        database, VARCHAR, GEOMETRY_TYPE, geo.parse_wkt
    )
    ExtensionUtil.register_cast_function(
        database, GEOMETRY_TYPE, VARCHAR,
        lambda g: geo.format_ewkt(g)
    )
    ExtensionUtil.register_cast_function(
        database, BLOB, GEOMETRY_TYPE, geo.decode_wkb
    )
    ExtensionUtil.register_cast_function(
        database, GEOMETRY_TYPE, BLOB, geo.encode_wkb
    )
    ExtensionUtil.register_cast_function(
        database, LogicalType("STRUCT", "object"), BOX2D_TYPE,
        Box2D.from_struct,
    )

    def register(name, arg_types, return_type, fn, batch=None):
        ExtensionUtil.register_function(
            database, ScalarFunction(name, arg_types, return_type,
                                     fn_scalar=fn, evaluate_batch=batch)
        )

    register("ST_GeomFromText", (VARCHAR,), GEOMETRY_TYPE, geo.parse_wkt)
    register("ST_AsText", (GEOMETRY_TYPE,), VARCHAR,
             lambda g: geo.format_wkt(_as_geometry(g)))
    register("ST_AsText", (BLOB,), VARCHAR,
             lambda b: geo.format_wkt(geo.decode_wkb(b)))
    register("ST_AsEWKT", (GEOMETRY_TYPE,), VARCHAR,
             lambda g: geo.format_ewkt(_as_geometry(g)))
    register("ST_AsWKB", (GEOMETRY_TYPE,), BLOB,
             lambda g: geo.encode_wkb(_as_geometry(g)))
    register("ST_GeomFromWKB", (BLOB,), GEOMETRY_TYPE, geo.decode_wkb)

    for left in (GEOMETRY_TYPE, BOX2D_TYPE):
        for right in (GEOMETRY_TYPE, BOX2D_TYPE):
            register(
                "ST_Intersects", (left, right), BOOLEAN,
                lambda a, b: geo.intersects(_as_geometry(a),
                                            _as_geometry(b)),
                batch=geometry_batch(geo.intersects_rows, BOOLEAN),
            )
    register("ST_Distance", (GEOMETRY_TYPE, GEOMETRY_TYPE), DOUBLE,
             lambda a, b: geo.distance(_as_geometry(a), _as_geometry(b)),
             batch=geometry_batch(geo.distance_rows, DOUBLE))
    register("ST_DWithin", (GEOMETRY_TYPE, GEOMETRY_TYPE, DOUBLE), BOOLEAN,
             lambda a, b, d: geo.dwithin(_as_geometry(a), _as_geometry(b), d),
             batch=geometry_batch(geo.dwithin_rows, BOOLEAN))
    register("ST_Contains", (GEOMETRY_TYPE, GEOMETRY_TYPE), BOOLEAN,
             lambda a, b: geo.contains(_as_geometry(a), _as_geometry(b)))
    register("ST_Length", (GEOMETRY_TYPE,), DOUBLE,
             lambda g: geo.length(_as_geometry(g)))
    register("ST_Area", (GEOMETRY_TYPE,), DOUBLE,
             lambda g: sum(
                 p.area() for p in geo.flatten(_as_geometry(g))
                 if isinstance(p, geo.Polygon)
             ))
    register("ST_Centroid", (GEOMETRY_TYPE,), GEOMETRY_TYPE,
             lambda g: geo.centroid(_as_geometry(g)))
    register("ST_ConvexHull", (GEOMETRY_TYPE,), GEOMETRY_TYPE,
             lambda g: geo.convex_hull(_as_geometry(g)))
    register("ST_X", (GEOMETRY_TYPE,), DOUBLE, lambda g: g.x)
    register("ST_Y", (GEOMETRY_TYPE,), DOUBLE, lambda g: g.y)
    register("ST_Point", (DOUBLE, DOUBLE), GEOMETRY_TYPE,
             lambda x, y: geo.Point(x, y))
    register("ST_Transform", (GEOMETRY_TYPE, VARCHAR, VARCHAR), GEOMETRY_TYPE,
             lambda g, src, dst: geo.transform(
                 _as_geometry(g).with_srid(int(src.split(":")[-1])),
                 int(dst.split(":")[-1]),
             ))
    register("ST_SetSRID", (GEOMETRY_TYPE, BIGINT_), GEOMETRY_TYPE,
             lambda g, srid: _as_geometry(g).with_srid(int(srid)))

    # ST_Collect over a LIST (DuckDB's signature used in paper Query 5).
    register(
        "ST_Collect", (LIST,), GEOMETRY_TYPE,
        lambda items: geo.collect(
            [_as_geometry(v) for v in items if v is not None]
        ),
    )
    # Aggregate form for convenience (PostGIS-style usage).
    ExtensionUtil.register_aggregate_function(
        database,
        AggregateFunction(
            "ST_Collect_Agg", (GEOMETRY_TYPE,), GEOMETRY_TYPE,
            init=lambda: [],
            step=lambda state, value: state + [value],
            final=lambda state: geo.collect(state) if state else None,
        ),
    )
    ExtensionUtil.register_aggregate_function(
        database,
        AggregateFunction(
            "ST_Extent", (GEOMETRY_TYPE,), BOX2D_TYPE,
            init=lambda: None,
            step=lambda state, value: _extend_box(state, value),
            final=lambda state: state,
        ),
    )


def _extend_box(state: Box2D | None, value: geo.Geometry) -> Box2D:
    xmin, ymin, xmax, ymax = _as_geometry(value).bounds()
    if state is None:
        return Box2D(xmin, ymin, xmax, ymax)
    return Box2D(
        min(state.min_x, xmin),
        min(state.min_y, ymin),
        max(state.max_x, xmax),
        max(state.max_y, ymax),
    )
