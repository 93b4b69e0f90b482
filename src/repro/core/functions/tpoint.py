"""Registration of temporal-point spatial functions and geometry interop.

This module carries the paper's headline query functionality:

* trajectory accessors — ``trajectory`` (WKB out, §6.2) and the optimized
  ``trajectory_gs`` / ``collect_gs`` / ``distance_gs`` GSERIALIZED path
  that §6.3 introduces to avoid WKB round-trips in Query 5;
* spatiotemporal relationships — ``eIntersects``, ``tDwithin``,
  ``eDwithin``, ``aDwithin`` (use case 6, Queries 6/10);
* restriction — ``atGeometry`` / ``atStbox`` (use case 4, Query 13);
* the ``&&`` operators between temporal points and stboxes that drive the
  TRTREE index scan injection (§4.3);
* aggregates — ``extent`` and the instant-to-sequence assembly used in the
  §6.2 demonstration.
"""

from __future__ import annotations

from ... import geo, meos
from ...meos import Temporal, kernels
from ...meos.temporal import merge_all, sequence_from_instants, tcount
from ...meos.temporal.base import TInstant
from ...quack.extension import ExtensionUtil
from ...quack.functions import AggregateFunction, ScalarFunction
from ...quack.types import (
    BIGINT,
    BLOB,
    BOOLEAN,
    DOUBLE,
    INTERVAL,
    LIST,
    TIMESTAMP,
    VARCHAR,
)
from ..boxkernels import (
    as_geometry,
    contains_decide,
    eintersects_decide,
    geom_csr,
    geometry_batch,
    geom_soa,
    intersects_exact,
    make_batch,
    overlaps_decide,
    stbox_soa,
    temporal_batch,
    tpoint_csr,
    tpoint_soa,
)
from ..types import (
    GSERIALIZED_TYPE,
    SPAN_TYPES,
    STBOX_TYPE,
    TEMPORAL_TYPES,
)

_TGEOMPOINT = TEMPORAL_TYPES["tgeompoint"]
_TGEOMETRY = TEMPORAL_TYPES["tgeometry"]
_TBOOL = TEMPORAL_TYPES["tbool"]
_TFLOAT = TEMPORAL_TYPES["tfloat"]
_TSTZSPAN = SPAN_TYPES["tstzspan"]


def register(database) -> None:
    def scalar(name, arg_types, return_type, fn, batch=None, kernel=None):
        """``batch`` prefilters on bounds; ``kernel`` does the function's
        whole work on a chunk (``ScalarFunction.batch_prefilters``)."""
        ExtensionUtil.register_function(
            database,
            ScalarFunction(name, tuple(arg_types), return_type, fn_scalar=fn,
                           evaluate_batch=batch or kernel,
                           batch_prefilters=kernel is None),
        )

    geometry_type = (
        database.types.lookup("GEOMETRY")
        if database.types.known("GEOMETRY") else None
    )
    geom_ins: list = [BLOB]
    if geometry_type is not None:
        geom_ins.append(geometry_type)

    ExtensionUtil.register_type(database, "GSERIALIZED", GSERIALIZED_TYPE)
    ExtensionUtil.register_cast_function(
        database, GSERIALIZED_TYPE, BLOB, geo.encode_wkb
    )
    ExtensionUtil.register_cast_function(
        database, BLOB, GSERIALIZED_TYPE, geo.decode_wkb
    )
    if geometry_type is not None:
        # GSERIALIZED <-> GEOMETRY both hold geometry payloads: free casts.
        ExtensionUtil.register_cast_function(
            database, GSERIALIZED_TYPE, geometry_type, lambda g: g
        )
        ExtensionUtil.register_cast_function(
            database, geometry_type, GSERIALIZED_TYPE, lambda g: g
        )

    for tname in ("tgeompoint", "tgeometry"):
        ltype = TEMPORAL_TYPES[tname]

        # -- instant constructors (value, timestamp) -------------------------------
        def make_instant(value, ts, _t=tname):
            value = as_geometry(value)
            return TInstant(meos.temporal_type(_t), value, int(ts))

        scalar(tname, (VARCHAR, TIMESTAMP), ltype, make_instant)
        for geom_in in geom_ins:
            scalar(tname, (geom_in, TIMESTAMP), ltype, make_instant)

        # -- trajectory & measures ---------------------------------------------------
        def trajectory_wkb(t):
            return geo.encode_wkb(meos.trajectory(t))

        scalar("trajectory", (ltype,), BLOB, trajectory_wkb,
               kernel=temporal_batch(kernels.trajectory_rows, 1, BLOB))
        scalar("trajectory_gs", (ltype,), GSERIALIZED_TYPE, meos.trajectory)
        scalar("length", (ltype,), DOUBLE, meos.length,
               kernel=temporal_batch(kernels.length_rows, 1, DOUBLE))
        scalar("cumulativeLength", (ltype,), _TFLOAT, meos.cumulative_length)
        scalar("speed", (ltype,), _TFLOAT, meos.speed)
        scalar("twcentroid", (ltype,), BLOB,
               lambda t: geo.encode_wkb(meos.twcentroid(t)))
        scalar("azimuth", (ltype,), _TFLOAT, meos.azimuth)
        scalar("direction", (ltype,), DOUBLE, meos.direction)
        scalar("convexHull", (ltype,), BLOB,
               lambda t: geo.encode_wkb(meos.convex_hull(t)))
        scalar("SRID", (ltype,), BIGINT, Temporal.srid)
        scalar("transform", (ltype, BIGINT), ltype,
               lambda t, srid: meos.transform(t, int(srid)))
        scalar("setSRID", (ltype, BIGINT), ltype,
               lambda t, srid: meos.set_srid(t, int(srid)))
        scalar("asEWKT", (ltype,), VARCHAR, Temporal.as_ewkt)

        # -- stbox ---------------------------------------------------------------------
        scalar("stbox", (ltype,), STBOX_TYPE, Temporal.stbox)
        ExtensionUtil.register_cast_function(
            database, ltype, STBOX_TYPE, Temporal.stbox
        )
        scalar("expandSpace", (ltype, DOUBLE), STBOX_TYPE,
               lambda t, d: t.stbox().expand_space(d))

        # -- restriction to geometries / boxes -------------------------------------------
        for geom_in in geom_ins:
            scalar("atGeometry", (ltype, geom_in), ltype,
                   lambda t, g: meos.at_geometry(t, as_geometry(g)))
            scalar("minusGeometry", (ltype, geom_in), ltype,
                   lambda t, g: meos.minus_geometry(t, as_geometry(g)))
        scalar("atStbox", (ltype, STBOX_TYPE), ltype, meos.at_stbox)
        scalar("stops", (ltype, DOUBLE, INTERVAL), ltype,
               lambda t, d, dur: meos.stops(t, float(d), dur))
        scalar("numStops", (ltype, DOUBLE, INTERVAL), BIGINT,
               lambda t, d, dur: meos.num_stops(t, float(d), dur))
        scalar("minDistSimplify", (ltype, DOUBLE), ltype,
               lambda t, d: meos.min_dist_simplify(t, float(d)))
        scalar("douglasPeuckerSimplify", (ltype, DOUBLE), ltype,
               lambda t, d: meos.douglas_peucker_simplify(t, float(d)))

        # -- relationships ------------------------------------------------------------------
        def _eintersects_tg(t, g):
            return meos.e_intersects(t, as_geometry(g))

        def _eintersects_gt(g, t):
            return meos.e_intersects(t, as_geometry(g))

        for geom_in in geom_ins:
            scalar("eIntersects", (ltype, geom_in), BOOLEAN,
                   _eintersects_tg,
                   batch=make_batch(
                       tpoint_soa, geom_soa, eintersects_decide,
                       intersects_exact(tpoint_csr, geom_csr)))
            scalar("eIntersects", (geom_in, ltype), BOOLEAN,
                   _eintersects_gt,
                   batch=make_batch(
                       geom_soa, tpoint_soa, eintersects_decide,
                       intersects_exact(geom_csr, tpoint_csr)))
            scalar("aIntersects", (ltype, geom_in), BOOLEAN,
                   lambda t, g: meos.a_intersects(t, as_geometry(g)))
            scalar("tIntersects", (ltype, geom_in), _TBOOL,
                   lambda t, g: meos.t_intersects(t, as_geometry(g)))

        # -- bounding-box operators (drive TRTREE scan injection, §4.3) ---------------------
        def _tp_overlaps_box(t, box):
            return t.stbox().overlaps(box)

        def _box_overlaps_tp(box, t):
            return t.stbox().overlaps(box)

        def _box_contains_tp(box, t):
            return box.contains(t.stbox())

        def _tp_in_box(t, box):
            return box.contains(t.stbox())

        scalar("&&", (ltype, STBOX_TYPE), BOOLEAN, _tp_overlaps_box,
               batch=make_batch(tpoint_soa, stbox_soa, overlaps_decide))
        scalar("&&", (STBOX_TYPE, ltype), BOOLEAN, _box_overlaps_tp,
               batch=make_batch(stbox_soa, tpoint_soa, overlaps_decide))
        scalar("@>", (STBOX_TYPE, ltype), BOOLEAN, _box_contains_tp,
               batch=make_batch(stbox_soa, tpoint_soa, contains_decide))
        scalar("<@", (ltype, STBOX_TYPE), BOOLEAN, _tp_in_box,
               batch=make_batch(tpoint_soa, stbox_soa,
                                lambda a, b: contains_decide(b, a)))

    # Temporal point vs temporal point.
    def _tp_overlaps_tp(x, y):
        return x.stbox().overlaps(y.stbox())

    for a in (_TGEOMPOINT, _TGEOMETRY):
        for b in (_TGEOMPOINT, _TGEOMETRY):
            scalar("&&", (a, b), BOOLEAN, _tp_overlaps_tp,
                   batch=make_batch(tpoint_soa, tpoint_soa,
                                    overlaps_decide))
            scalar("tDwithin", (a, b, DOUBLE), _TBOOL, meos.t_dwithin,
                   kernel=temporal_batch(kernels.tdwithin_rows, 2, _TBOOL))
            scalar("eDwithin", (a, b, DOUBLE), BOOLEAN, meos.e_dwithin,
                   kernel=temporal_batch(kernels.edwithin_rows, 2, BOOLEAN))
            scalar("aDwithin", (a, b, DOUBLE), BOOLEAN, meos.a_dwithin)
            scalar("distance", (a, b), _TFLOAT, meos.temporal_distance)
            scalar("nearestApproachDistance", (a, b), DOUBLE,
                   meos.nearest_approach_distance)

    # -- sequence assembly (§6.2: instants -> tgeompointSeq) ---------------------------
    def tgeompoint_seq(instants, interp=None):
        items = [i for i in instants if i is not None]
        flat: list[TInstant] = []
        for item in items:
            if isinstance(item, TInstant):
                flat.append(item)
            else:
                flat.extend(item.instants())
        return sequence_from_instants(flat, interp=interp)

    scalar("tgeompointSeq", (LIST,), _TGEOMPOINT, tgeompoint_seq)
    scalar("tgeompointSeq", (LIST, VARCHAR), _TGEOMPOINT, tgeompoint_seq)
    scalar("merge", (LIST,), _TGEOMPOINT,
           lambda items: merge_all([i for i in items if i is not None]))

    # -- GSERIALIZED fast path (§6.3 optimized Query 5) ----------------------------------
    scalar("collect_gs", (LIST,), GSERIALIZED_TYPE,
           lambda items: geo.collect(
               [as_geometry(v) for v in items if v is not None]
           ))
    scalar("distance_gs", (GSERIALIZED_TYPE, GSERIALIZED_TYPE), DOUBLE,
           lambda a, b: geo.distance(as_geometry(a), as_geometry(b)),
           batch=geometry_batch(geo.distance_rows, DOUBLE))
    scalar("asText_gs", (GSERIALIZED_TYPE,), VARCHAR,
           lambda g: geo.format_wkt(as_geometry(g)))
    scalar("length_gs", (GSERIALIZED_TYPE,), DOUBLE,
           lambda g: geo.length(as_geometry(g)))

    # -- aggregates -----------------------------------------------------------------------
    for tname in ("tgeompoint", "tgeometry"):
        ltype = TEMPORAL_TYPES[tname]
        ExtensionUtil.register_aggregate_function(
            database,
            AggregateFunction(
                "extent", (ltype,), STBOX_TYPE,
                init=lambda: None,
                step=lambda state, value: (
                    value.stbox() if state is None
                    else state.union(value.stbox())
                ),
                final=lambda state: state,
            ),
        )
    ExtensionUtil.register_aggregate_function(
        database,
        AggregateFunction(
            "tcount", (TEMPORAL_TYPES["tgeompoint"],),
            TEMPORAL_TYPES["tint"],
            init=lambda: [],
            step=lambda state, value: state + [value],
            final=lambda state: tcount(state) if state else None,
        ),
    )
