"""Registration of ``span`` and ``spanset`` template-type functions."""

from __future__ import annotations

from ... import meos
from ...meos.span import Span
from ...meos.spanset import SpanSet
from ...quack.extension import ExtensionUtil
from ...quack.functions import ScalarFunction
from ...quack.types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTERVAL,
    TIMESTAMP,
    VARCHAR,
)
from ..boxkernels import contains_instant_batch, span_soa
from ..types import (
    BASE_VALUE_TYPES,
    SPAN_BASE,
    SPAN_TYPES,
    SPANSET_BASE,
    SPANSET_TYPES,
)

#: span type -> matching spanset type
_SPAN_TO_SPANSET = {
    "intspan": "intspanset",
    "bigintspan": "bigintspanset",
    "floatspan": "floatspanset",
    "datespan": "datespanset",
    "tstzspan": "tstzspanset",
}


def register(database) -> None:
    def scalar(name, arg_types, return_type, fn, batch=None):
        ExtensionUtil.register_function(
            database,
            ScalarFunction(name, tuple(arg_types), return_type, fn_scalar=fn,
                           evaluate_batch=batch),
        )

    for name, ltype in SPAN_TYPES.items():
        base_name = SPAN_BASE[name]
        value_type = BASE_VALUE_TYPES[base_name]
        ExtensionUtil.register_type(database, name, ltype)
        ExtensionUtil.register_cast_function(
            database, VARCHAR, ltype,
            lambda text, _n=name: meos.parse_span(text, _n),
        )
        ExtensionUtil.register_cast_function(database, ltype, VARCHAR, str)
        scalar(name, (VARCHAR,), ltype,
               lambda text, _n=name: meos.parse_span(text, _n))

        # Accessors.
        scalar("lower", (ltype,), value_type, lambda s: s.lower)
        scalar("upper", (ltype,), value_type, lambda s: s.upper)
        scalar("lowerInc", (ltype,), BOOLEAN, lambda s: s.lower_inc)
        scalar("upperInc", (ltype,), BOOLEAN, lambda s: s.upper_inc)
        scalar("asText", (ltype,), VARCHAR, str)
        if name == "tstzspan":
            scalar("duration", (ltype,), INTERVAL, Span.duration)
        else:
            width_type = DOUBLE if base_name == "float" else BIGINT
            scalar("width", (ltype,), width_type, Span.width)

        # Span-vs-span operators.
        for op, method in (
            ("&&", Span.overlaps),
            ("@>", Span.contains_span),
            ("<@", lambda a, b: b.contains_span(a)),
            ("<<", Span.is_left),
            (">>", Span.is_right),
            ("-|-", Span.is_adjacent),
        ):
            scalar(op, (ltype, ltype), BOOLEAN, method)
        # Span-vs-value.
        scalar("@>", (ltype, value_type), BOOLEAN, Span.contains_value,
               batch=contains_instant_batch(span_soa)
               if name == "tstzspan" else None)
        scalar("<@", (value_type, ltype), BOOLEAN,
               lambda v, s: s.contains_value(v))

        scalar("span_union", (ltype, ltype), ltype, Span.union)
        scalar("span_intersection", (ltype, ltype), ltype, Span.intersection)

        # MobilityDB arithmetic-style set operators: + union, * intersection,
        # - difference.  Union/difference of spans yield spansets.
        spanset_type = SPANSET_TYPES[_SPAN_TO_SPANSET[name]]
        scalar("+", (ltype, ltype), spanset_type,
               lambda a, b: SpanSet.from_spans([a, b]))
        scalar("*", (ltype, ltype), ltype, Span.intersection)
        scalar("-", (ltype, ltype), spanset_type,
               lambda a, b: SpanSet.from_spans(a.minus(b))
               if a.minus(b) else None)

        # shiftScale / expand.
        if name == "tstzspan":
            scalar("shiftScale", (ltype, INTERVAL, INTERVAL), ltype,
                   lambda s, sh, w: s.shift_scale(
                       sh.total_usecs(), w.total_usecs()))
            scalar("shift", (ltype, INTERVAL), ltype,
                   lambda s, sh: s.shift_scale(shift=sh.total_usecs()))
            scalar("expand", (ltype, INTERVAL), ltype,
                   lambda s, iv: s.expand(iv.total_usecs()))
        elif base_name == "float":
            scalar("shiftScale", (ltype, DOUBLE, DOUBLE), ltype,
                   lambda s, sh, w: s.shift_scale(sh, w))
            scalar("expand", (ltype, DOUBLE), ltype, Span.expand)
        else:
            scalar("shiftScale", (ltype, BIGINT, BIGINT), ltype,
                   lambda s, sh, w: s.shift_scale(int(sh), int(w)))
            scalar("expand", (ltype, BIGINT), ltype,
                   lambda s, a: s.expand(int(a)))

    for name, ltype in SPANSET_TYPES.items():
        base_name = SPANSET_BASE[name]
        value_type = BASE_VALUE_TYPES[base_name]
        span_name = [k for k, v in _SPAN_TO_SPANSET.items() if v == name][0]
        span_type = SPAN_TYPES[span_name]
        ExtensionUtil.register_type(database, name, ltype)
        ExtensionUtil.register_cast_function(
            database, VARCHAR, ltype,
            lambda text, _n=name: meos.parse_spanset(text, _n),
        )
        ExtensionUtil.register_cast_function(database, ltype, VARCHAR, str)
        scalar(name, (VARCHAR,), ltype,
               lambda text, _n=name: meos.parse_spanset(text, _n))

        scalar("numSpans", (ltype,), BIGINT, SpanSet.num_spans)
        scalar("startSpan", (ltype,), span_type, SpanSet.start_span)
        scalar("endSpan", (ltype,), span_type, SpanSet.end_span)
        scalar("span", (ltype,), span_type, SpanSet.to_span)
        scalar("asText", (ltype,), VARCHAR, str)
        ExtensionUtil.register_cast_function(
            database, ltype, span_type, SpanSet.to_span
        )
        if name == "tstzspanset":
            scalar("duration", (ltype,), INTERVAL,
                   lambda ss: ss.duration(False))
            scalar("duration", (ltype, BOOLEAN), INTERVAL,
                   lambda ss, bs: ss.duration(bool(bs)))
            scalar("startTimestamp", (ltype,), TIMESTAMP,
                   lambda ss: ss.spans[0].lower)
            scalar("endTimestamp", (ltype,), TIMESTAMP,
                   lambda ss: ss.spans[-1].upper)

        # Operators.
        for op, method in (
            ("&&", SpanSet.overlaps),
            ("@>", SpanSet.contains_spanset),
            ("<@", lambda a, b: b.contains_spanset(a)),
        ):
            scalar(op, (ltype, ltype), BOOLEAN, method)
        scalar("&&", (ltype, span_type), BOOLEAN, SpanSet.overlaps_span)
        scalar("&&", (span_type, ltype), BOOLEAN,
               lambda s, ss: ss.overlaps_span(s))
        scalar("@>", (ltype, span_type), BOOLEAN, SpanSet.contains_span)
        scalar("@>", (ltype, value_type), BOOLEAN, SpanSet.contains_value)
        scalar("<@", (value_type, ltype), BOOLEAN,
               lambda v, ss: ss.contains_value(v))

        scalar("spanset_union", (ltype, ltype), ltype, SpanSet.union)
        scalar("spanset_intersection", (ltype, ltype), ltype,
               SpanSet.intersection)
        scalar("spanset_minus", (ltype, ltype), ltype, SpanSet.minus)
        scalar("+", (ltype, ltype), ltype, SpanSet.union)
        scalar("*", (ltype, ltype), ltype, SpanSet.intersection)
        scalar("-", (ltype, ltype), ltype, SpanSet.minus)
