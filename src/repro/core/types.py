"""MobilityDuck user-defined types (paper §3.3, Table 1).

Every MEOS type is registered in the engine as a BLOB-backed user type
under its MobilityDB alias.  The ``TYPE_COVERAGE`` table mirrors the
paper's Table 1: types marked ``"duck"`` are registered by MobilityDuck
(green cells), ``"mobilitydb"`` exist upstream only (white), and ``None``
is not applicable (gray).
"""

from __future__ import annotations

from typing import Any, Callable

from .. import meos
from ..meos.setcls import Set
from ..meos.span import Span
from ..meos.spanset import SpanSet
from ..quack.extension import make_user_type
from ..quack.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    TIMESTAMP,
    VARCHAR,
    LogicalType,
)
from .codecs import SPAN_CODEC, TCSR_CODEC

# -- set / span / spanset types ------------------------------------------------

SET_TYPES: dict[str, LogicalType] = {
    name: make_user_type(name, Set)
    for name in (
        "intset", "bigintset", "floatset", "textset", "dateset",
        "tstzset", "geomset",
    )
}
#: The types whose payloads persist as their arrays (``core.codecs``).
_CODECS = {"tstzspan": SPAN_CODEC, "tgeompoint": TCSR_CODEC,
           "tgeometry": TCSR_CODEC}

SPAN_TYPES: dict[str, LogicalType] = {
    name: make_user_type(name, Span, _CODECS.get(name))
    for name in ("intspan", "bigintspan", "floatspan", "datespan", "tstzspan")
}
SPANSET_TYPES: dict[str, LogicalType] = {
    name: make_user_type(name, SpanSet)
    for name in (
        "intspanset", "bigintspanset", "floatspanset", "datespanset",
        "tstzspanset",
    )
}

# -- temporal types --------------------------------------------------------------

TEMPORAL_TYPES: dict[str, LogicalType] = {
    name: make_user_type(name, meos.Temporal, _CODECS.get(name))
    for name in ("tbool", "tint", "tfloat", "ttext", "tgeompoint",
                 "tgeometry")
}

# -- box types ---------------------------------------------------------------------

TBOX_TYPE = make_user_type("TBOX", meos.TBox)
STBOX_TYPE = make_user_type("STBOX", meos.STBox)

#: GSERIALIZED: MEOS' native geometry payload carried through the engine as
#: a BLOB without WKB round-trips (paper §6.3, the ``*_gs`` optimization).
GSERIALIZED_TYPE = make_user_type("GSERIALIZED", object)

ALL_TYPES: dict[str, LogicalType] = {
    **SET_TYPES,
    **SPAN_TYPES,
    **SPANSET_TYPES,
    **TEMPORAL_TYPES,
    "tbox": TBOX_TYPE,
    "stbox": STBOX_TYPE,
    "gserialized": GSERIALIZED_TYPE,
}

#: Paper Table 1 coverage matrix: base type -> template -> status.
TYPE_COVERAGE: dict[str, dict[str, str | None]] = {
    "bool": {"set": None, "span": None, "spanset": None, "temporal": "duck"},
    "text": {"set": "duck", "span": None, "spanset": None,
             "temporal": "duck"},
    "integer": {"set": "duck", "span": "duck", "spanset": "duck",
                "temporal": "duck"},
    "bigint": {"set": "duck", "span": "duck", "spanset": "duck",
               "temporal": None},
    "float": {"set": "duck", "span": "duck", "spanset": "duck",
              "temporal": "duck"},
    "date": {"set": "duck", "span": "duck", "spanset": "duck",
             "temporal": None},
    "timestamptz": {"set": "duck", "span": "duck", "spanset": "duck",
                    "temporal": None},
    "geometry": {"set": "duck", "span": None, "spanset": None,
                 "temporal": "duck"},
    "geography": {"set": "mobilitydb", "span": None, "spanset": None,
                  "temporal": "mobilitydb"},
    "pose": {"set": "mobilitydb", "span": None, "spanset": None,
             "temporal": "mobilitydb"},
    "npoint": {"set": "mobilitydb", "span": None, "spanset": None,
               "temporal": "mobilitydb"},
    "cbuffer": {"set": "mobilitydb", "span": None, "spanset": None,
                "temporal": "mobilitydb"},
}

# -- parse/format dispatch ------------------------------------------------------------

PARSERS: dict[str, Callable[[str], Any]] = {
    **{name: (lambda text, _n=name: meos.parse_set(text, _n))
       for name in SET_TYPES},
    **{name: (lambda text, _n=name: meos.parse_span(text, _n))
       for name in SPAN_TYPES},
    **{name: (lambda text, _n=name: meos.parse_spanset(text, _n))
       for name in SPANSET_TYPES},
    **{name: (lambda text, _n=name: meos.parse_temporal(
        text, meos.temporal_type(_n)))
       for name in TEMPORAL_TYPES},
    "tbox": meos.TBox.parse,
    "stbox": meos.STBox.parse,
}

#: Engine-level type of each base type's values (for accessor signatures).
BASE_VALUE_TYPES: dict[str, LogicalType] = {
    "bool": BOOLEAN,
    "integer": BIGINT,
    "bigint": BIGINT,
    "float": DOUBLE,
    "text": VARCHAR,
    "date": DATE,
    "timestamptz": TIMESTAMP,
}

SET_BASE: dict[str, str] = {
    "intset": "integer",
    "bigintset": "bigint",
    "floatset": "float",
    "textset": "text",
    "dateset": "date",
    "tstzset": "timestamptz",
    "geomset": "geometry",
}
SPAN_BASE: dict[str, str] = {
    "intspan": "integer",
    "bigintspan": "bigint",
    "floatspan": "float",
    "datespan": "date",
    "tstzspan": "timestamptz",
}
SPANSET_BASE: dict[str, str] = {
    "intspanset": "integer",
    "bigintspanset": "bigint",
    "floatspanset": "float",
    "datespanset": "date",
    "tstzspanset": "timestamptz",
}
TEMPORAL_BASE: dict[str, str] = {
    "tbool": "bool",
    "tint": "integer",
    "tfloat": "float",
    "ttext": "text",
    "tgeompoint": "geometry",
    "tgeometry": "geometry",
}
