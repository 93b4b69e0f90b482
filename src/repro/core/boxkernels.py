"""Columnar views of object vectors and the predicate kernels on them.

The paper's §3.4 argument is that spatiotemporal predicates should run
inside the vectorized executor rather than once per row.  This module
supplies the columnar half of that claim: views of the payloads in an
object vector, extracted once per distinct payload and cached on the
:class:`~repro.quack.vector.Vector` that owns them (a gather of a
stored column asks the column) — the bounding boxes as
struct-of-arrays (:class:`~repro.quack.boxes.BoxSoA`), the coordinates
of geometries in CSR layout (:class:`~repro.geo.GeomCSR`), the instants
of temporal points in CSR layout (:class:`~repro.meos.kernels.TempCSR`,
from which their boxes and trajectories derive as arrays) and time
spans as bound arrays — and ``evaluate_batch`` kernels for ``&&`` /
``@>`` / ``<@`` between stboxes, temporal points, time spans and stboxes, for
``eIntersects``, and for ``atTime`` / ``length`` / ``eDwithin`` /
``tDwithin``.

The box comparisons are *sound prefilters*, not replacements: a NumPy
pass splits each chunk into rows whose outcome is decided by bounding
boxes alone (strict separation, strict containment) and rows that need
an exact answer (time-span boundaries whose inclusivity flags matter,
SRID mismatches and dimensionality errors that must surface as
exceptions, geometry that has to be looked at).  Only the undecided
rows go on, once per distinct argument pair, to the exact batch kernel
where the predicate has one and to the function's row loop otherwise.

No kernel holds a scalar function: ``ScalarFunction.evaluate`` calls a
hook as ``evaluate_batch(args, count, row_loop)``, and the rows a kernel
does not answer run through ``row_loop``, the function's own row path
(:func:`repro.quack.functions.row_loop`), so they see the values, and
raise the errors, that the plain row loop and the row engine do.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .. import geo
from ..meos import kernels as temporal
from ..observability import count as _count
from ..quack.boxes import BoxSoA
from ..quack.kernels import per_distinct
from ..quack.types import BOOLEAN, LogicalType
from ..quack.vector import Vector, ViewVector


def _object_view(key: tuple[str, ...], build: Callable[[Vector], Any]):
    """A view of object vectors, built once per distinct payload and
    cached under ``key``; other vectors have none.  Each build counts
    as ``quack.view_builds.<key>``."""
    name = ".".join(key)

    def extract(vector: Vector) -> Any:
        _count(f"quack.view_builds.{name}")
        # Join chunks and constant vectors repeat payload objects: each
        # distinct one is converted once and the rows gathered.
        return per_distinct(lambda rows, _: build(rows[0]), [vector],
                            len(vector))

    def view(vector: Vector) -> Any:
        if vector.ltype.physical != "object":
            return None
        return vector.cached_aux(key, extract)

    return view


stbox_soa = _object_view(("box_soa", "stbox"),
                         lambda rows: BoxSoA.of_values(rows.to_list()))

_SPAN = ("span",)
#: ``tstzspan`` bounds of a vector as arrays.
span_cols = _object_view(
    _SPAN, lambda rows: temporal.span_arrays(rows.to_list())
)

_TEMP_CSR = ("tcsr",)
#: CSR instants of a vector of temporal points
#: (:func:`repro.meos.kernels.temporal_csr`).
temp_csr = _object_view(
    _TEMP_CSR, lambda rows: temporal.temporal_csr(rows.to_list())
)


def _derived_view(key: tuple[str, ...], base: Callable[[Vector], Any],
                  derive: Callable[[Any], Any]):
    """A view that is an array derivation of another view, counted like
    one."""
    name = ".".join(key)

    def build(vector: Vector) -> Any:
        _count(f"quack.view_builds.{name}")
        return derive(base(vector))

    def view(vector: Vector) -> Any:
        if base(vector) is None:
            return None
        return vector.cached_aux(key, build)

    return view


def _temp_boxes(csr: temporal.TempCSR) -> BoxSoA:
    soa = BoxSoA(len(csr))
    soa.ok = soa.has_x = soa.has_t = csr.readable()
    (soa.xmin, soa.ymin, soa.xmax, soa.ymax,
     soa.tmin, soa.tmax) = csr.bounds()
    soa.srid = csr.srid()
    return soa


def _span_boxes(spans: temporal.SpanArrays) -> BoxSoA:
    soa = BoxSoA(len(spans))
    soa.ok = soa.has_t = spans.ok
    soa.tmin = np.where(spans.ok, spans.lower, np.nan)
    soa.tmax = np.where(spans.ok, spans.upper, np.nan)
    return soa


#: The boxes of temporal points and of time spans, off their arrays.
tpoint_soa = _derived_view(("box_soa", "tpoint"), temp_csr, _temp_boxes)
span_soa = _derived_view(("box_soa", "span"), span_cols, _span_boxes)


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


def _geometry_rows(rows: Vector) -> geo.GeomCSR:
    builder = geo.CSRBuilder()
    for value in rows.to_list():
        if value is not None:
            try:
                geom = as_geometry(value)
                builder.add_geometry(geom)
                builder.end_row(geom.srid)
                continue
            except Exception:
                pass  # unreadable: a row for the scalar path
        builder.skip_row()
    return builder.finish()


def _csr_boxes(csr: geo.GeomCSR) -> BoxSoA:
    soa = BoxSoA(len(csr))
    soa.ok = soa.has_x = csr.usable() & ~csr.empty()
    soa.xmin, soa.ymin, soa.xmax, soa.ymax = csr.bounds()
    soa.srid = csr.srid()
    return soa


#: CSR coordinates of a vector of geometries (objects, WKB, WKT, boxes);
#: rows the kernels cannot read carry index -1.
geom_csr = _object_view(("csr", "geom"), _geometry_rows)
#: CSR coordinates of the trajectories of a vector of temporal points.
tpoint_csr = _derived_view(("csr", "tpoint"), temp_csr,
                           temporal.TempCSR.trajectories)
#: The bounds of a geometry vector, read off its CSR arrays.
geom_soa = _derived_view(("box_soa", "geom"), geom_csr, _csr_boxes)


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


#: A function's row path, ``row_loop(args, count) -> Vector``.
RowLoop = Callable[[list[Vector], int], Vector]


def _decline(row_loop: RowLoop, args: list[Vector], rows: np.ndarray,
             values: np.ndarray, validity: np.ndarray) -> None:
    """``row_loop`` on ``rows``, the rows a kernel does not answer,
    written into ``values`` / ``validity``: it raises what the kernel
    cannot, at its row."""
    if len(rows):
        answer = row_loop([a.slice(rows) for a in args], len(rows))
        values[rows] = answer.data
        validity[rows] = answer.validity


def intersects_exact(
    csr_a: Callable[[Vector], geo.GeomCSR | None],
    csr_b: Callable[[Vector], geo.GeomCSR | None],
):
    """The exact half of ``eIntersects``: ``geo.intersects_rows`` on the
    CSR views of the undecided rows.  A row whose payload has no CSR
    form is declined to the row loop, which raises what the kernel
    cannot."""

    def exact(va: Vector, vb: Vector, row_loop: RowLoop) -> Vector:
        a, b = csr_a(va), csr_b(vb)
        if a is None or b is None:
            return row_loop([va, vb], len(va))
        data = geo.intersects_rows(a, b)
        valid = np.ones(len(data), dtype=np.bool_)
        _decline(row_loop, [va, vb],
                 np.flatnonzero(~(a.usable() & b.usable())), data, valid)
        return Vector(BOOLEAN, data, valid)

    return exact


def make_batch(
    extract_a: Callable[[Vector], BoxSoA | None],
    extract_b: Callable[[Vector], BoxSoA | None],
    decide: Callable[[BoxSoA, BoxSoA], tuple[np.ndarray, np.ndarray]],
    exact: Callable[[Vector, Vector, RowLoop], Vector] | None = None,
):
    """Build an ``evaluate_batch`` hook for a binary box predicate.

    The decided rows are answered from the SoA comparison masks; the
    remaining valid rows get the exact answer (geometry, inclusivity
    flags, and error raising all live there) once per distinct argument
    pair: from ``exact(va, vb, row_loop) -> BOOLEAN vector`` on those
    rows when given, else from the function's row loop.
    """

    def batch(args: list[Vector], count: int,
              row_loop: RowLoop) -> Vector | None:
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
            def answer(pair: list[Vector], n: int) -> Vector:
                _count("quack.bbox_rows_scalar", n)
                if exact is None:
                    return row_loop(pair, n)
                return exact(*pair, row_loop)

            undecided = per_distinct(
                answer, [va.slice(rest), vb.slice(rest)], len(rest)
            )
            data[rest] = undecided.data
            validity[rest] = undecided.validity
        return Vector(BOOLEAN, data, validity)

    return batch


def geometry_batch(kernel: Callable[..., np.ndarray], return_type):
    """Build an ``evaluate_batch`` hook for a function of two geometries
    (and trailing native arguments) out of a ``geo`` row kernel."""

    def batch(args: list[Vector], count: int,
              row_loop: RowLoop) -> Vector | None:
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


def temporal_batch(kernel: Callable[..., tuple[np.ndarray, np.ndarray]],
                   operands: int, return_type: LogicalType):
    """Build an ``evaluate_batch`` hook for a function of ``operands``
    temporal points (and trailing native arguments) out of a
    :mod:`repro.meos.kernels` row kernel, run once per distinct
    argument tuple.  ``kernel(*views, *arrays) -> (values, declined)``:
    a declined row goes to the function's row loop; a ``None`` among
    object values is a NULL."""

    def run(args: list[Vector], count: int,
            row_loop: RowLoop) -> Vector | None:
        views = [temp_csr(a) for a in args[:operands]]
        if any(view is None for view in views):
            return None
        validity = np.logical_and.reduce([a.validity for a in args])
        values, declined = kernel(
            *views, *(a.data for a in args[operands:])
        )
        _decline(row_loop, args, np.flatnonzero(declined & validity),
                 values, validity)
        if values.dtype == object:
            validity &= np.array([v is not None for v in values.tolist()],
                                 dtype=np.bool_)
        return Vector(return_type, values, validity)

    def batch(args: list[Vector], count: int,
              row_loop: RowLoop) -> Vector | None:
        return per_distinct(lambda rows, n: run(rows, n, row_loop),
                            args, count)

    return batch


def at_period_batch(ltype: LogicalType):
    """``evaluate_batch`` for ``atTime(temporal point, tstzspan)``: the
    result vector's payload is the kernel's :class:`TempCSR`, so the
    next kernel reads arrays and objects exist only if something reads
    ``data``.  A chunk with a declined row hands back objects."""

    def run(args: list[Vector], count: int,
            row_loop: RowLoop) -> Vector | None:
        csr, spans = temp_csr(args[0]), span_cols(args[1])
        if csr is None or spans is None:
            return None
        result, declined = temporal.at_period_rows(csr, spans)
        declined = np.flatnonzero(
            declined & args[0].validity & args[1].validity
        )
        if not len(declined):
            return ViewVector(ltype, _TEMP_CSR, result, result.readable())
        values = result.objects()
        _decline(row_loop, args, declined, values,
                 np.ones(len(values), dtype=np.bool_))
        return Vector.from_values(ltype, values.tolist())

    def batch(args: list[Vector], count: int,
              row_loop: RowLoop) -> Vector | None:
        return per_distinct(lambda rows, n: run(rows, n, row_loop),
                            args, count)

    return batch


def contains_instant_batch(extract: Callable[[Vector], BoxSoA | None]):
    """``evaluate_batch`` for ``@>(time extent, timestamptz)``: strictly
    inside the bounds is true, outside false, on a bound the function's
    row loop reads the inclusivity flag."""

    def batch(args: list[Vector], count: int,
              row_loop: RowLoop) -> Vector | None:
        box = extract(args[0])
        if box is None:
            return None
        validity = args[0].validity & args[1].validity
        when = args[1].data
        # float64 holds a timestamp below 2**53 µs exactly, and rounds
        # a bound beyond to the far side of it.
        sure = validity & box.ok & box.has_t & (np.abs(when) < 2.0 ** 53)
        inside = sure & (box.tmin < when) & (when < box.tmax)
        outside = sure & ((when < box.tmin) | (when > box.tmax))
        _count("quack.bbox_rows_decided", int((inside | outside).sum()))
        rest = np.flatnonzero(validity & ~inside & ~outside)
        _count("quack.bbox_rows_scalar", len(rest))
        _decline(row_loop, args, rest, inside, validity)
        return Vector(BOOLEAN, inside, validity)

    return batch


# Premade kernels for the stbox/stbox operators registered in
# functions/boxes.py.
STBOX_OVERLAPS_BATCH = make_batch(stbox_soa, stbox_soa, overlaps_decide)
STBOX_CONTAINS_BATCH = make_batch(stbox_soa, stbox_soa, contains_decide)
STBOX_CONTAINED_BATCH = make_batch(stbox_soa, stbox_soa,
                                   lambda a, b: contains_decide(b, a))
