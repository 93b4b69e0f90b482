"""Columnar views of object vectors and the predicate kernels on them.

The paper's §3.4 argument is that spatiotemporal predicates should run
inside the vectorized executor rather than once per row.  This module
supplies the columnar half of that claim: per-chunk views of the
payloads in an object vector, extracted once per distinct payload and
cached on the :class:`~repro.quack.vector.Vector` — the bounding boxes
as struct-of-arrays (:class:`BoxSoA`) and the coordinates in CSR layout
(:class:`~repro.geo.GeomCSR`, for geometries and for the trajectories of
temporal points) — and ``evaluate_batch`` kernels for ``&&`` / ``@>`` /
``<@`` between stboxes, temporal points, time spans and stboxes, and
for ``eIntersects``.

The box comparisons are *sound prefilters*, not replacements: a NumPy
pass splits each chunk into rows whose outcome is decided by bounding
boxes alone (strict separation, strict containment) and rows that need
an exact answer (time-span boundaries whose inclusivity flags matter,
SRID mismatches and dimensionality errors that must surface as
exceptions, geometry that has to be looked at).  Only the undecided
rows go on, once per distinct argument pair, to the exact batch kernel
where the predicate has one and to the scalar operator otherwise.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .. import geo
from ..meos import Interp, Span, STBox
from ..meos.temporal.base import Temporal, TInstant
from ..meos.temporal.ttypes import SPATIAL_TYPES
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


def _extract(vector: Vector, build: Callable[[Vector], Any]) -> Any:
    """``build`` a row-aligned view (anything with ``take``) of the
    vector.  Join chunks and constant vectors repeat payload objects:
    each distinct one is converted once and the rows gathered."""
    distinct = distinct_rows([vector], len(vector))
    if distinct is None:
        return build(vector)
    first, inverse = distinct
    _count("quack.distinct_rows_saved", len(vector) - len(first))
    return build(vector.slice(first)).take(inverse)


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


def _span_box_of(value: Any) -> STBox | None:
    if isinstance(value, Span) and value.basetype.name == "timestamptz":
        return STBox(tspan=value)
    return None


def _box_view(key: str, to_box: Callable[[Any], STBox | None]):
    def view(vector: Vector) -> BoxSoA | None:
        if vector.ltype.physical != "object":
            return None
        return vector.cached_aux(
            ("box_soa", key),
            lambda v: _extract(v, lambda rows: _fill_rows(rows, to_box)),
        )

    return view


stbox_soa = _box_view("stbox", _stbox_of)
tpoint_soa = _box_view("tpoint", _tpoint_box_of)
span_soa = _box_view("span", _span_box_of)


def geom_soa(vector: Vector) -> BoxSoA | None:
    """The bounds of a geometry vector, read off its CSR arrays."""
    csr = geom_csr(vector)
    if csr is None:
        return None
    return vector.cached_aux(("box_soa", "geom"), lambda v: _csr_boxes(csr))


def _csr_boxes(csr: geo.GeomCSR) -> BoxSoA:
    soa = BoxSoA(len(csr))
    soa.ok = soa.has_x = csr.usable() & ~csr.empty()
    soa.xmin, soa.ymin, soa.xmax, soa.ymax = csr.bounds()
    soa.srid = csr.srid()
    return soa


# ---------------------------------------------------------------------------
# CSR coordinate views
# ---------------------------------------------------------------------------


def as_geometry(value: Any) -> geo.Geometry:
    """The geometry a payload stands for: itself, WKB bytes, WKT text,
    or a box with a ``to_polygon``."""
    if isinstance(value, geo.Geometry):
        return value
    if isinstance(value, (bytes, bytearray)):
        return geo.decode_wkb(value)
    if isinstance(value, str):
        return geo.parse_wkt(value)
    if hasattr(value, "to_polygon"):
        return value.to_polygon()
    raise ValueError(f"cannot interpret {type(value).__name__} as geometry")


def _add_geometry(builder: geo.CSRBuilder, value: Any) -> int:
    geom = as_geometry(value)
    builder.add_geometry(geom)
    return geom.srid


def _add_trajectory(builder: geo.CSRBuilder, value: Any) -> int:
    """``meos.trajectory(value)`` written straight into the builder:
    the distinct points of a discrete sequence, else one line per
    sequence without consecutive duplicates."""
    if not isinstance(value, Temporal) or value.ttype not in SPATIAL_TYPES:
        raise ValueError("not a temporal point")
    if isinstance(value, TInstant):
        builder.add_geometry(value.value)
        return value.value.srid
    if value.interp is Interp.DISCRETE:
        parts = [[xy] for xy in dict.fromkeys(
            (inst.value.x, inst.value.y) for inst in value.instants()
        )]
    else:
        parts = []
        for seq in value.sequences():
            coords = [(inst.value.x, inst.value.y) for inst in seq.instants()]
            parts.append([
                xy for k, xy in enumerate(coords)
                if k == 0 or xy != coords[k - 1]
            ])
    for coords in parts:
        builder.add_line(coords)
    return value.srid()


def _csr_view(key: str, add: Callable[[geo.CSRBuilder, Any], int]):
    def build(rows: Vector) -> geo.GeomCSR:
        builder = geo.CSRBuilder()
        for valid, value in zip(rows.validity.tolist(), rows.data.tolist()):
            if valid:
                try:
                    builder.end_row(add(builder, value))
                    continue
                except Exception:
                    pass  # unreadable: a row for the scalar path
            builder.skip_row()
        return builder.finish()

    def view(vector: Vector) -> geo.GeomCSR | None:
        if vector.ltype.physical != "object":
            return None
        return vector.cached_aux(("csr", key), lambda v: _extract(v, build))

    return view


#: CSR coordinates of a vector of geometries (objects, WKB, WKT, boxes);
#: rows the kernels cannot read carry index -1.
geom_csr = _csr_view("geom", _add_geometry)
#: CSR coordinates of the trajectories of a vector of temporal points.
tpoint_csr = _csr_view("tpoint", _add_trajectory)


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


def _scalar_rows(scalar_fn: Callable[[Any, Any], Any]):
    """The exact answer one row at a time: ``scalar_fn`` on payloads."""

    def exact(va: Vector, vb: Vector, rows: np.ndarray):
        a_data, b_data = va.data, vb.data
        data = np.zeros(len(rows), dtype=np.bool_)
        valid = np.ones(len(rows), dtype=np.bool_)
        for k, i in enumerate(rows.tolist()):
            result = scalar_fn(a_data[i], b_data[i])
            if result is None:
                valid[k] = False
            else:
                data[k] = bool(result)
        return data, valid

    return exact


def intersects_exact(
    csr_a: Callable[[Vector], geo.GeomCSR | None],
    csr_b: Callable[[Vector], geo.GeomCSR | None],
    scalar_fn: Callable[[Any, Any], Any],
):
    """The exact half of ``eIntersects``: ``geo.intersects_rows`` on the
    CSR views of the undecided rows.  A row whose payload has no CSR
    form goes to ``scalar_fn``, which raises what the kernel cannot."""
    fallback = _scalar_rows(scalar_fn)

    def exact(va: Vector, vb: Vector, rows: np.ndarray):
        a, b = csr_a(va), csr_b(vb)
        if a is None or b is None:
            return fallback(va, vb, rows)
        a, b = a.take(rows), b.take(rows)
        data = geo.intersects_rows(a, b)
        valid = np.ones(len(rows), dtype=np.bool_)
        unread = np.flatnonzero(~(a.usable() & b.usable()))
        if len(unread):
            data[unread], valid[unread] = fallback(va, vb, rows[unread])
        return data, valid

    return exact


def make_batch(
    extract_a: Callable[[Vector], BoxSoA | None],
    extract_b: Callable[[Vector], BoxSoA | None],
    decide: Callable[[BoxSoA, BoxSoA], tuple[np.ndarray, np.ndarray]],
    scalar_fn: Callable[[Any, Any], Any],
    exact: Callable[[Vector, Vector, np.ndarray], tuple] | None = None,
):
    """Build an ``evaluate_batch`` hook for a binary box predicate.

    The decided rows are answered from the SoA comparison masks; the
    remaining valid rows get the exact answer (geometry, inclusivity
    flags, and error raising all live there) once per distinct argument
    pair: from ``exact(va, vb, rows) -> (data, valid)`` when given, else
    from ``scalar_fn`` row by row.
    """
    if exact is None:
        exact = _scalar_rows(scalar_fn)

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
        rest = np.flatnonzero(validity & ~decided)
        _count("quack.bbox_rows_decided", int(decided.sum()))
        if len(rest):
            # Join chunks repeat argument pairs: answer each once.
            distinct = distinct_rows([va.slice(rest), vb.slice(rest)],
                                     len(rest))
            if distinct is None:
                rows, inverse = rest, slice(None)
            else:
                rows, inverse = rest[distinct[0]], distinct[1]
                _count("quack.distinct_rows_saved", len(rest) - len(rows))
            _count("quack.bbox_rows_scalar", len(rows))
            values, valid = exact(va, vb, rows)
            data[rest] = values[inverse]
            validity[rest] = valid[inverse]
        return Vector(BOOLEAN, data, validity)

    return batch


def geometry_batch(kernel: Callable[..., np.ndarray], return_type):
    """Build an ``evaluate_batch`` hook for a function of two geometries
    (and trailing native arguments) out of a ``geo`` row kernel."""

    def batch(args: list[Vector], count: int) -> Vector | None:
        a, b = geom_csr(args[0]), geom_csr(args[1])
        if a is None or b is None:
            return None
        validity = np.logical_and.reduce([v.validity for v in args])
        if (validity & ~(a.usable() & b.usable())).any():
            # A payload without a CSR form: the row loop raises on it,
            # at its row.
            return None
        rows = np.flatnonzero(validity)
        values = kernel(a.take(rows), b.take(rows),
                        *(v.data[rows] for v in args[2:]))
        data = np.zeros(count, dtype=values.dtype)
        data[rows] = values
        return Vector(return_type, data, validity)

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
