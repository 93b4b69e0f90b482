"""Columnar stbox predicate kernels (struct-of-arrays bounding boxes).

The paper's §3.4 argument is that spatiotemporal predicates should run
inside the vectorized executor rather than once per row.  This module
supplies the columnar half of that claim for the box operators: a
per-chunk struct-of-arrays view of the bounding boxes in an object
vector (:class:`BoxSoA`, extracted once and cached on the
:class:`~repro.quack.vector.Vector`), and ``evaluate_batch`` kernels for
``&&`` / ``@>`` / ``<@`` between stboxes, temporal points and stboxes,
and the bbox prefilter of ``eIntersects``.

The kernels are *sound prefilters*, not replacements: a NumPy comparison
pass splits each chunk into rows whose outcome is decided by bounding
boxes alone (strict separation, strict containment) and rows that need
the exact scalar operator (time-span boundaries whose inclusivity flags
matter, SRID mismatches and dimensionality errors that must surface as
exceptions, payloads that are not boxes at all).  Only the undecided
rows run the per-row path.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .. import geo
from ..meos import STBox
from ..meos.temporal.base import Temporal
from ..observability import count as _count
from ..quack.kernels import distinct_rows
from ..quack.types import BOOLEAN
from ..quack.vector import Vector


class BoxSoA:
    """Struct-of-arrays bounding boxes for one object vector.

    ``ok[i]`` is True when row ``i`` held a value with a usable bounding
    box; spatial/time bounds are float64 (NaN when the dimension is
    absent, with ``has_x``/``has_t`` as the authoritative masks).
    """

    __slots__ = ("ok", "has_x", "has_t", "xmin", "ymin", "xmax", "ymax",
                 "tmin", "tmax", "srid")

    def __init__(self, count: int):
        self.ok = np.zeros(count, dtype=np.bool_)
        self.has_x = np.zeros(count, dtype=np.bool_)
        self.has_t = np.zeros(count, dtype=np.bool_)
        self.xmin = np.full(count, np.nan)
        self.ymin = np.full(count, np.nan)
        self.xmax = np.full(count, np.nan)
        self.ymax = np.full(count, np.nan)
        self.tmin = np.full(count, np.nan)
        self.tmax = np.full(count, np.nan)
        self.srid = np.zeros(count, dtype=np.int64)

    def fill(self, i: int, box: STBox) -> None:
        self.ok[i] = True
        if box.has_x:
            self.has_x[i] = True
            self.xmin[i] = box.xmin
            self.ymin[i] = box.ymin
            self.xmax[i] = box.xmax
            self.ymax[i] = box.ymax
        if box.has_t:
            self.has_t[i] = True
            self.tmin[i] = float(box.tspan.lower)
            self.tmax[i] = float(box.tspan.upper)
        self.srid[i] = box.srid

    def take(self, rows: np.ndarray) -> "BoxSoA":
        """The boxes of ``rows`` (a gather on every array)."""
        out = BoxSoA.__new__(BoxSoA)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[rows])
        return out


def _extract(vector: Vector, to_box: Callable[[Any], STBox | None]) -> BoxSoA:
    # Join chunks and constant vectors repeat payload objects: convert
    # each distinct one once and gather the bounds.
    distinct = distinct_rows([vector], len(vector))
    if distinct is None:
        return _fill_rows(vector, to_box)
    first, inverse = distinct
    _count("quack.distinct_rows_saved", len(vector) - len(first))
    return _fill_rows(vector.slice(first), to_box).take(inverse)


def _fill_rows(vector: Vector,
               to_box: Callable[[Any], STBox | None]) -> BoxSoA:
    soa = BoxSoA(len(vector))
    data = vector.data
    for i in np.nonzero(vector.validity)[0]:
        try:
            box = to_box(data[i])
        except Exception:
            box = None
        if box is not None:
            soa.fill(i, box)
    return soa


def _stbox_of(value: Any) -> STBox | None:
    return value if isinstance(value, STBox) else None


def _tpoint_box_of(value: Any) -> STBox | None:
    return value.stbox() if isinstance(value, Temporal) else None


def _geom_box_of(value: Any) -> STBox | None:
    if isinstance(value, geo.Geometry):
        geom = value
    elif isinstance(value, (bytes, bytearray)):
        geom = geo.decode_wkb(value)
    elif isinstance(value, str):
        geom = geo.parse_wkt(value)
    else:
        return None
    return STBox.from_geometry(geom)


def stbox_soa(vector: Vector) -> BoxSoA | None:
    if vector.ltype.physical != "object":
        return None
    return vector.cached_aux(
        ("box_soa", "stbox"), lambda v: _extract(v, _stbox_of)
    )


def tpoint_soa(vector: Vector) -> BoxSoA | None:
    if vector.ltype.physical != "object":
        return None
    return vector.cached_aux(
        ("box_soa", "tpoint"), lambda v: _extract(v, _tpoint_box_of)
    )


def geom_soa(vector: Vector) -> BoxSoA | None:
    if vector.ltype.physical != "object":
        return None
    return vector.cached_aux(
        ("box_soa", "geom"), lambda v: _extract(v, _geom_box_of)
    )


# ---------------------------------------------------------------------------
# Decision kernels: (definitely false, definitely true) row masks
# ---------------------------------------------------------------------------


def _pair_masks(a: BoxSoA, b: BoxSoA):
    ok = a.ok & b.ok
    # Rows where the scalar operator would raise (SRID mismatch, no
    # shared dimension) are never "decided" here so the error surfaces.
    srid_ok = (a.srid == 0) | (b.srid == 0) | (a.srid == b.srid)
    shared_x = a.has_x & b.has_x
    shared_t = a.has_t & b.has_t
    eligible = ok & srid_ok & (shared_x | shared_t)
    return eligible, shared_x, shared_t


def overlaps_decide(a: BoxSoA, b: BoxSoA):
    eligible, shared_x, shared_t = _pair_masks(a, b)
    # Spatial bounds are closed intervals: the array comparisons decide
    # every shared-x row exactly.  Time spans carry inclusivity flags, so
    # only strictly-separated (false) and interior-overlapping (true)
    # rows are decidable; boundary-touching spans go to the scalar path.
    sep_x = (
        (a.xmax < b.xmin) | (b.xmax < a.xmin)
        | (a.ymax < b.ymin) | (b.ymax < a.ymin)
    )
    ov_x = (
        (a.xmax >= b.xmin) & (b.xmax >= a.xmin)
        & (a.ymax >= b.ymin) & (b.ymax >= a.ymin)
    )
    sep_t = (a.tmax < b.tmin) | (b.tmax < a.tmin)
    interior_t = (a.tmin < b.tmax) & (b.tmin < a.tmax)
    def_false = eligible & ((shared_x & sep_x) | (shared_t & sep_t))
    def_true = (
        eligible
        & (~shared_x | ov_x)
        & (~shared_t | interior_t)
    )
    return def_false, def_true


def contains_decide(a: BoxSoA, b: BoxSoA):
    """Decide ``a @> b`` where possible."""
    eligible, shared_x, shared_t = _pair_masks(a, b)
    in_x = (
        (a.xmin <= b.xmin) & (a.xmax >= b.xmax)
        & (a.ymin <= b.ymin) & (a.ymax >= b.ymax)
    )
    out_t = (a.tmin > b.tmin) | (a.tmax < b.tmax)
    interior_t = (a.tmin < b.tmin) & (b.tmax < a.tmax)
    def_false = eligible & ((shared_x & ~in_x) | (shared_t & out_t))
    def_true = (
        eligible
        & (~shared_x | in_x)
        & (~shared_t | interior_t)
    )
    return def_false, def_true


def eintersects_decide(a: BoxSoA, b: BoxSoA):
    """Bbox prefilter for eIntersects: strict spatial separation is a
    definite no; everything else needs the exact geometry test."""
    ok = a.ok & b.ok
    srid_ok = (a.srid == 0) | (b.srid == 0) | (a.srid == b.srid)
    sep_x = (
        (a.xmax < b.xmin) | (b.xmax < a.xmin)
        | (a.ymax < b.ymin) | (b.ymax < a.ymin)
    )
    def_false = ok & srid_ok & a.has_x & b.has_x & sep_x
    return def_false, np.zeros(len(def_false), dtype=np.bool_)


# ---------------------------------------------------------------------------
# evaluate_batch factory
# ---------------------------------------------------------------------------


def make_batch(
    extract_a: Callable[[Vector], BoxSoA | None],
    extract_b: Callable[[Vector], BoxSoA | None],
    decide: Callable[[BoxSoA, BoxSoA], tuple[np.ndarray, np.ndarray]],
    scalar_fn: Callable[[Any, Any], Any],
):
    """Build an ``evaluate_batch`` hook for a binary box predicate.

    The decided rows are answered from the SoA comparison masks; the
    remaining valid rows run ``scalar_fn`` row-wise (exact geometry,
    inclusivity flags, and error raising all live there).
    """

    def batch(args: list[Vector], count: int) -> Vector | None:
        va, vb = args[0], args[1]
        a = extract_a(va)
        b = extract_b(vb)
        if a is None or b is None:
            return None
        validity = va.validity & vb.validity
        def_false, def_true = decide(a, b)
        decided = (def_false | def_true) & validity
        data = np.zeros(count, dtype=np.bool_)
        data[def_true & validity] = True
        rest = validity & ~decided
        n_rest = int(rest.sum())
        _count("quack.bbox_rows_decided", int(decided.sum()))
        if n_rest:
            _count("quack.bbox_rows_scalar", n_rest)
            a_data = va.data
            b_data = vb.data
            for i in np.nonzero(rest)[0]:
                result = scalar_fn(a_data[i], b_data[i])
                if result is None:
                    validity[i] = False
                else:
                    data[i] = bool(result)
        return Vector(BOOLEAN, data, validity)

    return batch


# Premade kernels for the stbox/stbox operators registered in
# functions/boxes.py.
STBOX_OVERLAPS_BATCH = make_batch(
    stbox_soa, stbox_soa, overlaps_decide, STBox.overlaps
)
STBOX_CONTAINS_BATCH = make_batch(
    stbox_soa, stbox_soa, contains_decide, STBox.contains
)
STBOX_CONTAINED_BATCH = make_batch(
    stbox_soa, stbox_soa, lambda a, b: contains_decide(b, a),
    lambda a, b: b.contains(a),
)
