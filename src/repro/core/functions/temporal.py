"""Registration of generic temporal-type functions (paper §3.4, §3.5).

Covers the accessors and restriction operators shared by all temporal
types: ``duration``, ``startTimestamp`` / ``endTimestamp``,
``valueAtTimestamp``, ``atTime`` / ``minusTime``, ``atValues``,
``whenTrue``, ``shiftTime`` / ``scaleTime``, interpolation changes, and
the bounding-box operators with spans.
"""

from __future__ import annotations

from typing import Any

from ... import geo, meos
from ...meos import Interp, Temporal
from ...meos.temporal import (
    from_base_tstzspan,
    parse_temporal,
    temporal_compare,
    temporal_type,
    when_true,
)
from ...quack.extension import ExtensionUtil
from ...quack.functions import ScalarFunction
from ...quack.types import (
    BIGINT,
    BLOB,
    BOOLEAN,
    DOUBLE,
    INTERVAL,
    TIMESTAMP,
    VARCHAR,
)
from ..boxkernels import (
    at_period_batch,
    contains_instant_batch,
    make_batch,
    overlaps_decide,
    span_soa,
    tpoint_soa,
)
from ..types import (
    BASE_VALUE_TYPES,
    SET_TYPES,
    SPAN_TYPES,
    SPANSET_TYPES,
    TBOX_TYPE,
    TEMPORAL_BASE,
    TEMPORAL_TYPES,
)

_TSTZSPAN = SPAN_TYPES["tstzspan"]
_TSTZSPANSET = SPANSET_TYPES["tstzspanset"]
_TSTZSET = SET_TYPES["tstzset"]


def _value_out(ttype_name: str) -> Any:
    """Engine type of a temporal type's base values.

    Spatial values travel as WKB bytes (the paper's proxy layer, §7)."""
    base = TEMPORAL_BASE[ttype_name]
    if base == "geometry":
        return BLOB
    return BASE_VALUE_TYPES[base]


def _wrap_value_out(ttype_name: str, value: Any) -> Any:
    if value is None:
        return None
    if TEMPORAL_BASE[ttype_name] == "geometry":
        return geo.encode_wkb(value)
    return value


def _from_mfjson_checked(text, expected_name):
    value = meos.from_mfjson(text)
    if value.ttype.name != expected_name:
        raise meos.MeosTypeError(
            f"MF-JSON document is a {value.ttype.name}, "
            f"not a {expected_name}"
        )
    return value


def _at_time(value, when):
    return value.at_time(when)


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

    for name, ltype in TEMPORAL_TYPES.items():
        ttype = temporal_type(name)
        value_out = _value_out(name)

        ExtensionUtil.register_type(database, name, ltype)
        ExtensionUtil.register_cast_function(
            database, VARCHAR, ltype,
            lambda text, _t=ttype: parse_temporal(text, _t),
        )
        ExtensionUtil.register_cast_function(database, ltype, VARCHAR, str)
        scalar(name, (VARCHAR,), ltype,
               lambda text, _t=ttype: parse_temporal(text, _t))

        # Constructor from a base value and a time span (§3.5 tgeometry
        # example); the value may arrive as text or WKB bytes.
        def make_from_span(value, span, interp=None, _t=ttype):
            if isinstance(value, (bytes, bytearray)):
                value = geo.decode_wkb(value)
            return from_base_tstzspan(_t, value, span, interp)

        scalar(name, (VARCHAR, _TSTZSPAN), ltype, make_from_span)
        scalar(name, (VARCHAR, _TSTZSPAN, VARCHAR), ltype, make_from_span)
        if TEMPORAL_BASE[name] == "geometry":
            scalar(name, (BLOB, _TSTZSPAN, VARCHAR), ltype, make_from_span)
            scalar(name, (BLOB, _TSTZSPAN), ltype, make_from_span)

        # -- accessors ----------------------------------------------------------
        scalar("duration", (ltype,), INTERVAL,
               lambda t: t.duration(False))
        scalar("duration", (ltype, BOOLEAN), INTERVAL,
               lambda t, bs: t.duration(bool(bs)))
        scalar("startTimestamp", (ltype,), TIMESTAMP,
               Temporal.start_timestamp)
        scalar("endTimestamp", (ltype,), TIMESTAMP, Temporal.end_timestamp)
        scalar("numInstants", (ltype,), BIGINT, Temporal.num_instants)
        scalar("startValue", (ltype,), value_out,
               lambda t, _n=name: _wrap_value_out(_n, t.start_value()))
        scalar("endValue", (ltype,), value_out,
               lambda t, _n=name: _wrap_value_out(_n, t.end_value()))
        scalar("valueAtTimestamp", (ltype, TIMESTAMP), value_out,
               lambda t, ts, _n=name: _wrap_value_out(
                   _n, t.value_at_timestamp(int(ts))))
        scalar("getTime", (ltype,), _TSTZSPANSET, lambda t: t.time())
        scalar("timeSpan", (ltype,), _TSTZSPAN, lambda t: t.tstzspan())
        scalar("interp", (ltype,), VARCHAR, lambda t: t.interp.value)
        scalar("asText", (ltype,), VARCHAR, Temporal.as_text)
        scalar("asMFJSON", (ltype,), VARCHAR,
               lambda t: meos.as_mfjson(t))
        scalar("asMFJSON", (ltype, BOOLEAN), VARCHAR,
               lambda t, bbox: meos.as_mfjson(t, bool(bbox)))
        scalar(f"{name}FromMFJSON", (VARCHAR,), ltype,
               lambda text, _n=name: _from_mfjson_checked(text, _n))
        if TEMPORAL_BASE[name] in ("integer", "float"):
            scalar("minValue", (ltype,), value_out, Temporal.min_value)
            scalar("maxValue", (ltype,), value_out, Temporal.max_value)
            scalar("atMin", (ltype,), ltype, lambda t: t.at_min())
            scalar("atMax", (ltype,), ltype, lambda t: t.at_max())

        # -- subtype / structure accessors -------------------------------------
        scalar("tempSubtype", (ltype,), VARCHAR, lambda t: t.subtype)
        scalar("instantN", (ltype, BIGINT), ltype,
               lambda t, n: t.instant_n(int(n)))
        scalar("startInstant", (ltype,), ltype,
               lambda t: t.instants()[0])
        scalar("endInstant", (ltype,), ltype,
               lambda t: t.instants()[-1])
        scalar("numSequences", (ltype,), BIGINT,
               lambda t: len(t.sequences()))
        scalar("startSequence", (ltype,), ltype,
               lambda t: t.sequences()[0])
        scalar("endSequence", (ltype,), ltype,
               lambda t: t.sequences()[-1])
        scalar("sequenceN", (ltype, BIGINT), ltype,
               lambda t, n: t.sequences()[int(n) - 1])
        scalar("timestampN", (ltype, BIGINT), TIMESTAMP,
               lambda t, n: t.instant_n(int(n)).t)

        # -- casts to time frames (paper Query 3: Trip::tstzspan) -----------------
        ExtensionUtil.register_cast_function(
            database, ltype, _TSTZSPAN, lambda t: t.tstzspan()
        )
        ExtensionUtil.register_cast_function(
            database, ltype, _TSTZSPANSET, lambda t: t.time()
        )

        # -- restriction ----------------------------------------------------------
        # Temporal points carry their instants in the CSR view the
        # kernels read; other types stay row-wise.
        spatial = TEMPORAL_BASE[name] == "geometry"
        scalar("atTime", (ltype, _TSTZSPAN), ltype, _at_time,
               kernel=at_period_batch(ltype) if spatial else None)
        scalar("atTime", (ltype, _TSTZSPANSET), ltype, _at_time)
        scalar("atTime", (ltype, _TSTZSET), ltype, _at_time)
        scalar("atTime", (ltype, TIMESTAMP), ltype,
               lambda t, ts: t.at_time(int(ts)))
        scalar("minusTime", (ltype, _TSTZSPAN), ltype, Temporal.minus_time)
        scalar("minusTime", (ltype, _TSTZSPANSET), ltype,
               Temporal.minus_time)

        base = TEMPORAL_BASE[name]
        if base == "geometry":
            def at_values_geom(t, value):
                if isinstance(value, (bytes, bytearray)):
                    value = geo.decode_wkb(value)
                if isinstance(value, geo.Point):
                    return t.at_value(value)
                return meos.at_geometry(t, value)

            scalar("atValues", (ltype, BLOB), ltype, at_values_geom)
            geometry_type = (
                database.types.lookup("GEOMETRY")
                if database.types.known("GEOMETRY") else None
            )
            if geometry_type is not None:
                scalar("atValues", (ltype, geometry_type), ltype,
                       at_values_geom)
        else:
            value_in = BASE_VALUE_TYPES[base]
            scalar("atValues", (ltype, value_in), ltype,
                   lambda t, v: t.at_value(v))
            set_name = {
                "bool": None, "integer": "intset", "float": "floatset",
                "text": "textset",
            }.get(base)
            if set_name:
                scalar("atValues", (ltype, SET_TYPES[set_name]), ltype,
                       lambda t, s: t.at_values(s))
            scalar("minusValues", (ltype, value_in), ltype,
                   lambda t, v: t.minus_value(v))

        # -- ever/always equality ---------------------------------------------------
        if base != "geometry":
            value_in = BASE_VALUE_TYPES[base]
            scalar("ever_eq", (ltype, value_in), BOOLEAN, Temporal.ever_eq)
            scalar("always_eq", (ltype, value_in), BOOLEAN,
                   Temporal.always_eq)

        # -- transformations -----------------------------------------------------------
        scalar("timeSplit", (ltype, INTERVAL), database.types.lookup("LIST"),
               lambda t, width: [frag for _, frag in
                                 meos.time_split(t, width)])
        scalar("shiftTime", (ltype, INTERVAL), ltype, Temporal.shift_time)
        scalar("scaleTime", (ltype, INTERVAL), ltype, Temporal.scale_time)
        scalar("shiftScaleTime", (ltype, INTERVAL, INTERVAL), ltype,
               Temporal.shift_scale_time)
        scalar("setInterp", (ltype, VARCHAR), ltype,
               lambda t, i: t.set_interp(Interp.parse(i))
               if hasattr(t, "set_interp") else t)

        # -- bounding-box operators with time frames --------------------------------------
        def _overlaps_span(t, s):
            return t.tstzspan().overlaps(s)

        def _span_overlaps(s, t):
            return t.tstzspan().overlaps(s)

        scalar("&&", (ltype, _TSTZSPAN), BOOLEAN, _overlaps_span,
               batch=make_batch(tpoint_soa, span_soa, overlaps_decide)
               if spatial else None)
        scalar("&&", (_TSTZSPAN, ltype), BOOLEAN, _span_overlaps,
               batch=make_batch(span_soa, tpoint_soa, overlaps_decide)
               if spatial else None)
        scalar("&&", (ltype, _TSTZSPANSET), BOOLEAN,
               lambda t, ss: ss.overlaps(t.time()))
        scalar("&&", (_TSTZSPANSET, ltype), BOOLEAN,
               lambda ss, t: ss.overlaps(t.time()))
        def _contains_instant(t, ts):
            return t.tstzspan().contains_value(int(ts))

        scalar("@>", (ltype, TIMESTAMP), BOOLEAN, _contains_instant,
               batch=contains_instant_batch(tpoint_soa)
               if spatial else None)

    # -- numeric temporal extras -----------------------------------------------------
    tint = TEMPORAL_TYPES["tint"]
    tfloat = TEMPORAL_TYPES["tfloat"]
    tbool = TEMPORAL_TYPES["tbool"]

    from ...meos.temporal.ttypes import TFLOAT as _TFLOAT, TINT as _TINT

    ExtensionUtil.register_cast_function(
        database, tint, tfloat,
        lambda t: t.map_values(float, _TFLOAT),
    )
    ExtensionUtil.register_cast_function(
        database, tfloat, tint,
        lambda t: t.map_values(lambda v: int(round(v)), _TINT),
    )
    scalar("tbox", (tint,), TBOX_TYPE, lambda t: t.bbox())
    scalar("tbox", (tfloat,), TBOX_TYPE, lambda t: t.bbox())
    ExtensionUtil.register_cast_function(
        database, tint, TBOX_TYPE, lambda t: t.bbox()
    )
    ExtensionUtil.register_cast_function(
        database, tfloat, TBOX_TYPE, lambda t: t.bbox()
    )

    # whenTrue over temporal booleans (paper Query 10).
    scalar("whenTrue", (tbool,), _TSTZSPANSET, when_true)
    scalar("whenFalse", (tbool,), _TSTZSPANSET,
           lambda t: when_true(temporal_not(t)))

    # Lifted boolean algebra on tbool (MobilityDB & | ~).
    from ...meos.temporal import temporal_and, temporal_not, temporal_or

    scalar("tand", (tbool, tbool), tbool, temporal_and)
    scalar("tor", (tbool, tbool), tbool, temporal_or)
    scalar("tnot", (tbool,), tbool, temporal_not)

    # Lifted arithmetic on temporal numbers (MEOS tnumber ops).
    import operator as _op

    from ...meos.temporal import (
        arith_const,
        arith_temporal,
        integral,
        tnumber_abs,
        tnumber_round,
        tw_avg,
    )

    for tnum in (tint, tfloat):
        for symbol, fn in (("+", _op.add), ("-", _op.sub),
                           ("*", _op.mul), ("/", _op.truediv)):
            scalar(symbol, (tnum, DOUBLE), tfloat if symbol == "/" else tnum,
                   lambda t, c, _f=fn: arith_const(t, c, _f))
            scalar(symbol, (DOUBLE, tnum), tfloat if symbol == "/" else tnum,
                   lambda c, t, _f=fn: arith_const(t, c, _f, reverse=True))
            scalar(symbol, (tnum, tnum), tfloat,
                   lambda a, b, _f=fn: arith_temporal(a, b, _f))
        scalar("abs", (tnum,), tnum, tnumber_abs)
        scalar("round", (tnum, BIGINT), tnum,
               lambda t, n: tnumber_round(t, int(n)))
        scalar("integral", (tnum,), DOUBLE, integral)
        scalar("twAvg", (tnum,), DOUBLE, tw_avg)
    scalar("+", (tint, tfloat), tfloat,
           lambda a, b: arith_temporal(a, b, _op.add))
    scalar("+", (tfloat, tint), tfloat,
           lambda a, b: arith_temporal(a, b, _op.add))

    # Lifted comparisons for temporal numbers (tfloat #< 5 style, exposed
    # with MobilityDB's function names).
    import operator

    for fn_name, op in (
        ("temporal_teq", operator.eq),
        ("temporal_tlt", operator.lt),
        ("temporal_tle", operator.le),
        ("temporal_tgt", operator.gt),
        ("temporal_tge", operator.ge),
    ):
        scalar(fn_name, (tint, BIGINT), tbool,
               lambda t, v, _op=op: temporal_compare(t, int(v), _op))
        scalar(fn_name, (tfloat, DOUBLE), tbool,
               lambda t, v, _op=op: temporal_compare(t, float(v), _op))
