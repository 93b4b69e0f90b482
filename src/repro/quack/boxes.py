"""One bounding box per value (paper §3.4, §4), read by every box reader.

:func:`bounding_box` decides a value's box: a temporal point, a geometry
and an STBox give their spatial box, plus time where the value has it;
any other temporal value, a tstzspan and a tstzspanset their time span;
a TBox its value span on ``x``, plus its time.  It is duck-typed, so the
engine imports no payload type (lint ANL004).  :class:`BoxSoA` holds a
column's boxes as arrays; :func:`column_boxes` takes them off the type
codec's arrays where it has them and maps :func:`bounding_box` over the
rows otherwise.  The zone maps reduce them, ANALYZE histograms them, the
box kernels compare them, and both engines' box indexes read the rule.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: The axes of a box, in rectangle order.
AXES = ("x", "y", "t")

#: A value's box: its per-axis ``(lo, hi)`` intervals (absent axes left
#: out) and its SRID (0: none).
Box = tuple[dict[str, tuple[float, float]], int]


def bounding_box(value: Any) -> Box | None:
    """The box of ``value``; None for NULL and any value without one."""
    if value is None:
        return None
    if hasattr(value, "has_x") and hasattr(value, "has_t"):
        box = value  # an STBox or a TBox
    elif (ttype := getattr(value, "ttype", None)) is not None:
        if not ttype.name.startswith("tgeo"):
            return _time_box(value.tstzspan())
        box = value.stbox()
    elif getattr(getattr(value, "basetype", None), "name",
                 None) == "timestamptz":
        if hasattr(value, "lower_inc"):
            return _time_box(value)
        return _time_box(value.to_span()) if hasattr(value, "spans") \
            else None
    elif callable(getattr(value, "bounds", None)) and \
            callable(getattr(value, "is_empty", None)):
        if value.is_empty():
            return None
        xmin, ymin, xmax, ymax = value.bounds()
        return ({"x": (float(xmin), float(xmax)),
                 "y": (float(ymin), float(ymax))}, value.srid or 0)
    else:
        return None
    axes: dict[str, tuple[float, float]] = {}
    if getattr(box, "xmin", None) is not None:
        axes["x"] = (float(box.xmin), float(box.xmax))
        axes["y"] = (float(box.ymin), float(box.ymax))
    elif getattr(box, "vspan", None) is not None:
        axes["x"] = (float(box.vspan.lower), float(box.vspan.upper))
    if box.tspan is not None:
        axes["t"] = (float(box.tspan.lower), float(box.tspan.upper))
    return (axes, getattr(box, "srid", 0)) if axes else None


def _time_box(span: Any) -> Box:
    return {"t": (float(span.lower), float(span.upper))}, 0


class BoxSoA:
    """A column's boxes as struct-of-arrays.

    ``ok[i]`` is True when row ``i`` has a box; per-axis bounds are
    float64, NaN where the row's box lacks the axis; ``has_x``/``has_t``
    are the kernels' masks of rows with a spatial or a time extent.
    """

    __slots__ = ("ok", "has_x", "has_t", "xmin", "ymin", "xmax", "ymax",
                 "tmin", "tmax", "srid")

    def __init__(self, count: int):
        self.ok = np.zeros(count, dtype=np.bool_)
        self.has_x = np.zeros(count, dtype=np.bool_)
        self.has_t = np.zeros(count, dtype=np.bool_)
        for name in self.__slots__[3:9]:
            setattr(self, name, np.full(count, np.nan))
        self.srid = np.zeros(count, dtype=np.int64)

    @classmethod
    def of_values(cls, values: list) -> "BoxSoA":
        """:func:`bounding_box` of every value."""
        soa = cls(len(values))
        for i, value in enumerate(values):
            box = bounding_box(value)
            if box is None:
                continue
            axes, soa.srid[i] = box
            soa.ok[i] = True
            soa.has_x[i], soa.has_t[i] = "x" in axes, "t" in axes
            for axis, (lo, hi) in axes.items():
                getattr(soa, axis + "min")[i] = lo
                getattr(soa, axis + "max")[i] = hi
        return soa

    def bounds(self, axis: str) -> tuple[np.ndarray, np.ndarray]:
        return getattr(self, axis + "min"), getattr(self, axis + "max")

    def take(self, rows: np.ndarray) -> "BoxSoA":
        """The boxes of ``rows`` (a gather on every array)."""
        out = BoxSoA.__new__(BoxSoA)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[rows])
        return out


def column_boxes(vector: Any) -> BoxSoA:
    """The boxes of a vector's rows: its type codec's arrays
    (``codec.boxes``) when they hold a box for every valid row, else
    :func:`bounding_box` row by row."""
    codec = vector.ltype.codec
    boxes = codec.boxes(vector) if codec is not None else None
    if boxes is None or not boxes.ok[vector.validity].all():
        boxes = BoxSoA.of_values(vector.to_list())
    return boxes
