"""Batch geometry kernels over a CSR coordinate layout.

A :class:`GeomCSR` holds a batch of geometries as flat arrays::

    index          row -> geometry (-1: the row has no usable geometry)
    geom_offsets   geometry -> primitives   (points, lines, polygons)
    prim_offsets   primitive -> rings       (a point or line is one ring)
    ring_offsets   ring -> vertices         (flat float64 ``x`` / ``y``)

plus primitive kind codes and per-geometry bounds, SRID and emptiness.
``intersects_rows`` / ``dwithin_rows`` answer the predicate for every
row of two row-aligned batches: a bounds prefilter on the arrays, then
``intersects_rows`` expands every undecided row's segment x segment,
vertex x segment and probe x ring-edge pairs with offset arithmetic,
evaluates them elementwise and reduces them per row.  ``distance_rows``
and ``dwithin_rows`` bound that work instead: each ring is cut into runs
of ``_CHUNK`` segments with a box (:class:`_Chunks`); only run pairs
whose boxes come within SEGMENT_PAD can share a point, and a row that
shares none is measured on the run pairs, and the vertices, no farther
from the other run's box than its bound: ``dwithin``'s distance, or
the distance its nearest pair gives (:func:`_bound_rows`).  The pair
axis is cut into blocks of ``_BLOCK`` pairs, so scratch stays small
however many rows or vertices a call carries.

Every pair is evaluated by the formulas of :mod:`.algorithms`' segment
primitives, in the same operation order, and reduced with exact
``min``/``any``; a pair skipped by a box can only hold terms larger
than one that is kept, so the minimum is the same float.  A row's
result does not depend on which other rows share its call, so one call
over N rows equals N calls over one row on float bits, and equals the
per-object scalar functions of :mod:`.algorithms` (which the row
engine calls one pair at a time).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..observability import count as _count
from .geometry import (
    Geometry,
    GeometryError,
    LineString,
    Point,
    Polygon,
    flatten,
)

EPSILON = 1e-9

#: Segment boxes further apart than this share no point under the
#: EPSILON-tolerant on-segment tests (twice the tolerance, so the
#: rejection never disagrees with them by a rounding).
SEGMENT_PAD = 2.0 * EPSILON

POINT, LINE, POLYGON = 0, 1, 2

#: Expanded pairs evaluated at once (about twenty live float64 arrays
#: of this length, under 2 MiB of scratch).  One array must stay below
#: glibc's 128 KiB mmap threshold: larger temporaries are fresh mappings
#: whose pages fault in on every block, unless an earlier large free
#: happened to raise the threshold, so a statement's time would depend
#: on which statements ran before it.
_BLOCK = 1 << 13

#: Consecutive segments of a ring per run of the distance index
#: (:class:`_Chunks`); 8 measured best of 4, 6, 8, 12 and 16 on Q5's
#: distances at three scale factors.
_CHUNK = 8

_INT = np.int64


def offsets(lengths) -> np.ndarray:
    """The CSR offsets of consecutive groups of these lengths."""
    out = np.zeros(len(lengths) + 1, dtype=_INT)
    np.cumsum(lengths, out=out[1:])
    return out


class CSRBuilder:
    """Accumulates geometries row by row into a :class:`GeomCSR`."""

    def __init__(self) -> None:
        self._coords: list[tuple[float, float]] = []
        self._ring_lens: list[int] = []
        self._prim_rings: list[int] = []
        self._prim_kinds: list[int] = []
        self._geom_prims: list[int] = []
        self._srids: list[int] = []
        self._index: list[int] = []
        #: (coordinates, rings, primitives) held when the open row began
        self._row_start = (0, 0, 0)

    def add_line(self, coords: Sequence[tuple[float, float]]) -> None:
        """A polyline; one vertex is a point, none adds nothing."""
        n = len(coords)
        if n == 0:
            return
        self._coords.extend(coords)
        self._ring_lens.append(n)
        self._prim_rings.append(1)
        self._prim_kinds.append(POINT if n == 1 else LINE)

    def add_polygon(
        self, rings: Iterable[Sequence[tuple[float, float]]]
    ) -> None:
        """Shell first, then holes; a polygon without a vertex adds
        nothing."""
        rings = list(rings)
        if not any(rings):
            return
        for ring in rings:
            self._coords.extend(ring)
            self._ring_lens.append(len(ring))
        self._prim_rings.append(len(rings))
        self._prim_kinds.append(POLYGON)

    def add_geometry(self, geom: Geometry) -> None:
        for prim in flatten(geom):
            if isinstance(prim, Point):
                self.add_line(((prim.x, prim.y),))
            elif isinstance(prim, LineString):
                self.add_line(prim.points)
            elif isinstance(prim, Polygon):
                self.add_polygon(prim.rings())
            else:
                raise GeometryError(
                    f"unsupported geometry {prim.geom_type}"
                )

    def _close_row(self) -> None:
        self._row_start = (len(self._coords), len(self._ring_lens),
                           len(self._prim_kinds))

    def end_row(self, srid: int = 0) -> None:
        """Close a row: what was added since the last one is its
        geometry (nothing added: an empty geometry)."""
        self._index.append(len(self._geom_prims))
        self._geom_prims.append(len(self._prim_kinds) - self._row_start[2])
        self._srids.append(srid)
        self._close_row()

    def skip_row(self) -> None:
        """A row without a usable geometry (NULL, unreadable payload);
        drops whatever was added since the last row."""
        coords, rings, prims = self._row_start
        del self._coords[coords:]
        del self._ring_lens[rings:]
        del self._prim_rings[prims:]
        del self._prim_kinds[prims:]
        self._index.append(-1)

    def finish(self) -> "GeomCSR":
        xy = np.array(self._coords, dtype=np.float64).reshape(-1, 2)
        store = _Store(
            offsets(self._geom_prims),
            np.array(self._prim_kinds, dtype=np.int8),
            offsets(self._prim_rings),
            offsets(self._ring_lens),
            np.ascontiguousarray(xy[:, 0]),
            np.ascontiguousarray(xy[:, 1]),
            np.array(self._srids, dtype=_INT),
        )
        return GeomCSR(np.array(self._index, dtype=_INT), store)


def geometry_csr(geoms: Iterable[Geometry | None]) -> "GeomCSR":
    """The CSR batch of ``geoms`` (a ``None`` row holds no geometry)."""
    builder = CSRBuilder()
    for geom in geoms:
        if geom is None:
            builder.skip_row()
        else:
            builder.add_geometry(geom)
            builder.end_row(geom.srid)
    return builder.finish()


def lines_csr(index: np.ndarray, geom_offsets: np.ndarray,
              line_offsets: np.ndarray, x: np.ndarray, y: np.ndarray,
              srid: np.ndarray) -> "GeomCSR":
    """A batch of polyline collections straight from arrays: geometry
    ``g`` is the lines ``geom_offsets[g]:geom_offsets[g + 1]``, line
    ``l`` the vertices ``line_offsets[l]:line_offsets[l + 1]`` (at least
    one; exactly one is a point)."""
    kind = np.where(np.diff(line_offsets) == 1, POINT, LINE).astype(np.int8)
    store = _Store(geom_offsets, kind,
                   np.arange(len(kind) + 1, dtype=_INT), line_offsets,
                   x, y, srid)
    return GeomCSR(index, store)


class GeomCSR:
    """Row-aligned batch of geometries in CSR layout (module docstring).

    Rows index into a shared store of geometries, so :meth:`take`
    gathers rows without touching a coordinate."""

    __slots__ = ("index", "store")

    def __init__(self, index: np.ndarray, store: "_Store"):
        self.index = index
        self.store = store

    def __len__(self) -> int:
        return len(self.index)

    def take(self, rows: np.ndarray) -> "GeomCSR":
        return GeomCSR(self.index[rows], self.store)

    def _row_values(self, values: np.ndarray, missing) -> np.ndarray:
        has = self.index >= 0
        out = np.full(len(self.index), missing, dtype=values.dtype)
        out[has] = values[self.index[has]]
        return out

    def usable(self) -> np.ndarray:
        """Rows holding a geometry."""
        return self.index >= 0

    def empty(self) -> np.ndarray:
        """Rows whose geometry has no vertex."""
        return self._row_values(self.store.empty, False)

    def srid(self) -> np.ndarray:
        return self._row_values(self.store.srid, 0)

    def bounds(self) -> tuple[np.ndarray, ...]:
        """Per row ``(xmin, ymin, xmax, ymax)``; NaN where the row has
        no geometry or an empty one."""
        return tuple(
            self._row_values(v, np.nan) for v in self.store.geom_bounds
        )


class _Store:
    """The geometries behind one or more :class:`GeomCSR` batches.

    Bounds, the per-segment arrays and the run index derive from the
    coordinates on first use (a batch of points never needs segments)."""

    __slots__ = (
        "geom_offsets", "kind", "prim_offsets", "ring_offsets", "x", "y",
        "srid", "empty", "prim_vert", "_bounds", "_segments", "_chunks",
    )

    def __init__(self, geom_offsets, kind, prim_offsets, ring_offsets,
                 x, y, srid):
        self.geom_offsets = geom_offsets
        self.kind = kind
        self.prim_offsets = prim_offsets
        self.ring_offsets = ring_offsets
        self.x = x
        self.y = y
        self.srid = srid
        self.empty = geom_offsets[1:] == geom_offsets[:-1]
        #: primitive -> vertices (every primitive has at least one)
        self.prim_vert = ring_offsets[prim_offsets]
        self._bounds = None
        self._segments = None
        self._chunks = None

    # -- bounds ---------------------------------------------------------------

    def _all_bounds(self):
        if self._bounds is None:
            starts = self.prim_vert[:-1]
            reducers = (np.minimum, np.minimum, np.maximum, np.maximum)
            axes = (self.x, self.y, self.x, self.y)
            if len(starts):
                prim = tuple(
                    r.reduceat(v, starts) for r, v in zip(reducers, axes)
                )
            else:
                prim = tuple(np.empty(0) for _ in axes)
            full = np.flatnonzero(~self.empty)
            geom = []
            for values, reducer in zip(prim, reducers):
                out = np.full(len(self.empty), np.nan)
                if len(full):
                    out[full] = reducer.reduceat(
                        values, self.geom_offsets[:-1][full]
                    )
                geom.append(out)
            self._bounds = (prim, tuple(geom))
        return self._bounds

    @property
    def prim_bounds(self):
        """Per primitive ``(xmin, ymin, xmax, ymax)``."""
        return self._all_bounds()[0]

    @property
    def geom_bounds(self):
        """Per geometry ``(xmin, ymin, xmax, ymax)``; NaN when empty."""
        return self._all_bounds()[1]

    @property
    def segments(self) -> "_Segments":
        if self._segments is None:
            self._segments = _Segments(self)
        return self._segments

    @property
    def chunks(self) -> "_Chunks":
        if self._chunks is None:
            self._chunks = _Chunks(self, self.segments)
        return self._chunks


class _Segments:
    """Per-segment arrays of a store, and each ring's and primitive's
    range in them."""

    __slots__ = (
        "ring_seg", "prim_seg", "ring", "x0", "y0", "x1", "y1", "dx", "dy",
        "proj_dx", "proj_dy", "proj_len2", "cross_dy",
        "xlo", "xhi", "ylo", "yhi",
    )

    def __init__(self, store: _Store):
        x, y = store.x, store.y
        ring_offsets = store.ring_offsets
        # A ring of n vertices has n - 1 segments: every vertex but a
        # ring's last starts one.
        ring_lens = np.diff(ring_offsets)
        starts_segment = np.ones(len(x), dtype=np.bool_)
        starts_segment[ring_offsets[1:][ring_lens > 0] - 1] = False
        first = np.flatnonzero(starts_segment)
        ring_seg = self.ring_seg = offsets(np.maximum(ring_lens - 1, 0))
        self.prim_seg = ring_seg[store.prim_offsets]
        self.ring = np.repeat(
            np.arange(len(ring_lens), dtype=_INT), np.diff(ring_seg)
        )
        self.x0, self.y0 = x[first], y[first]
        self.x1, self.y1 = x[first + 1], y[first + 1]
        self.dx = self.x1 - self.x0
        self.dy = self.y1 - self.y0
        # point_segment_distance's rule: a segment no longer than
        # EPSILON is its start point.  Zeroed deltas over a unit length
        # give projection parameter 0 there with no per-pair branch.
        len2 = self.dx * self.dx + self.dy * self.dy
        degenerate = len2 <= EPSILON * EPSILON
        self.proj_dx = np.where(degenerate, 0.0, self.dx)
        self.proj_dy = np.where(degenerate, 0.0, self.dy)
        self.proj_len2 = np.where(degenerate, 1.0, len2)
        # A horizontal edge never straddles a probe's y; a unit divisor
        # keeps the crossing formula finite there.
        self.cross_dy = np.where(self.dy == 0.0, 1.0, self.dy)
        self.xlo = np.minimum(self.x0, self.x1)
        self.xhi = np.maximum(self.x0, self.x1)
        self.ylo = np.minimum(self.y0, self.y1)
        self.yhi = np.maximum(self.y0, self.y1)


class _Chunks:
    """Every ring cut into runs of at most ``_CHUNK`` consecutive
    segments (a one-vertex ring is one run without a segment), and the
    box of each run's vertices.  Run ``c`` is the vertices
    ``vert[c]:vert[c] + nvert[c]`` and the segments between them,
    ``seg[c]:seg[c] + nvert[c] - 1``; a geometry's runs are
    ``geom_chunk[g]:geom_chunk[g + 1]``.  ``scale`` is the largest
    coordinate magnitude, which bounds the rounding of a distance."""

    __slots__ = ("geom_chunk", "vert", "nvert", "seg", "kind",
                 "xlo", "ylo", "xhi", "yhi", "scale")

    def __init__(self, store: _Store, segments: _Segments):
        ring_offsets = store.ring_offsets
        ring_lens = np.diff(ring_offsets)
        # ceil((ring_lens - 1) / _CHUNK) runs, one for a lone vertex
        per_ring = np.maximum((ring_lens + _CHUNK - 2) // _CHUNK,
                              ring_lens > 0)
        ring_chunk = offsets(per_ring)
        self.geom_chunk = ring_chunk[store.prim_offsets[store.geom_offsets]]
        ring = np.repeat(np.arange(len(per_ring), dtype=_INT), per_ring)
        step = np.arange(len(ring), dtype=_INT) - ring_chunk[ring]
        self.vert = ring_offsets[ring] + _CHUNK * step
        self.nvert = np.minimum(_CHUNK + 1, ring_offsets[1:][ring] - self.vert)
        self.seg = segments.ring_seg[ring] + _CHUNK * step
        prim_kind = np.repeat(store.kind, np.diff(store.prim_offsets))
        self.kind = prim_kind[ring]
        # A run's vertices up to the next run's first, plus its last one
        # (the next run starts on it when the ring goes on).
        last = self.vert + self.nvert - 1
        if len(ring):
            boxes = [r(r.reduceat(v, self.vert), v[last]) for r, v in (
                (np.minimum, store.x), (np.minimum, store.y),
                (np.maximum, store.x), (np.maximum, store.y))]
        else:
            boxes = [np.empty(0)] * 4
        self.xlo, self.ylo, self.xhi, self.yhi = boxes
        self.scale = max(float(np.abs(v).max(initial=0.0)) for v in boxes)


# ---------------------------------------------------------------------------
# Pair expansion and grouped reduction
# ---------------------------------------------------------------------------


def ranges(start: np.ndarray, length: np.ndarray):
    """The concatenation of ``arange(start[k], start[k] + length[k])``
    and, per element, its ``k``."""
    group = np.repeat(np.arange(len(length), dtype=_INT), length)
    before = np.cumsum(length) - length
    index = np.arange(len(group), dtype=_INT) - np.repeat(
        before - start, length
    )
    return index, group


def _cuts(length: np.ndarray) -> Iterator[tuple[int, int]]:
    """Cut the groups into consecutive runs ``[lo, hi)`` of about
    ``_BLOCK`` elements in all (a group is never split)."""
    ends = np.cumsum(length)
    n = len(length)
    if n and ends[-1] <= _BLOCK:
        # One block, no search: the row engine's one-row distance calls
        # cut about six times each (3-5 % of a call on Q5's pairs).
        yield 0, n
        return
    lo = done = 0
    while lo < n:
        hi = int(np.searchsorted(ends, done + _BLOCK, side="right"))
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        done = int(ends[hi - 1])
        lo = hi


def _range_blocks(
    start: np.ndarray, length: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``ranges(start, length)`` in blocks of about ``_BLOCK``
    elements: yields ``(index, group)``.  Groups stay in order and
    whole, so one group's elements are one run of one block."""
    for lo, hi in _cuts(length):
        index, group = ranges(start[lo:hi], length[lo:hi])
        if len(index):
            yield index, group + lo


def _group_min(values: np.ndarray, group: np.ndarray,
               out: np.ndarray) -> None:
    """``out[g] = min(out[g], values of g)``, ``group`` being sorted
    into runs: one ``reduceat`` over the run starts."""
    if len(values):
        starts = np.concatenate(
            ([0], np.flatnonzero(group[1:] != group[:-1]) + 1)
        )
        np.minimum.at(
            out, group[starts], np.minimum.reduceat(values, starts)
        )


# ---------------------------------------------------------------------------
# Elementwise primitives: the formulas of algorithms.py, on arrays
# ---------------------------------------------------------------------------


def _point_segment_dist2(px, py, seg: _Segments, j) -> np.ndarray:
    """Squared ``point_segment_distance`` to segments ``j``."""
    ax, ay = seg.x0[j], seg.y0[j]
    dx, dy = seg.proj_dx[j], seg.proj_dy[j]
    t = ((px - ax) * dx + (py - ay) * dy) / seg.proj_len2[j]
    t = np.minimum(1.0, np.maximum(0.0, t))
    ex = px - (ax + t * dx)
    ey = py - (ay + t * dy)
    return ex * ex + ey * ey


def _boxes_apart(a: _Segments, i, b: _Segments, j) -> np.ndarray:
    pad = SEGMENT_PAD
    return (
        (a.xhi[i] + pad < b.xlo[j]) | (b.xhi[j] + pad < a.xlo[i])
        | (a.yhi[i] + pad < b.ylo[j]) | (b.yhi[j] + pad < a.ylo[i])
    )


def _segments_intersect(a: _Segments, i, b: _Segments, j) -> np.ndarray:
    """``segments_intersect`` of segments ``i`` of ``a`` and ``j`` of
    ``b`` whose boxes are not apart."""
    ax, ay, bx, by = a.x0[i], a.y0[i], a.x1[i], a.y1[i]
    cx, cy, dx, dy = b.x0[j], b.y0[j], b.x1[j], b.y1[j]
    abx, aby = a.dx[i], a.dy[i]
    cdx, cdy = b.dx[j], b.dy[j]
    o1 = abx * (cy - ay) - aby * (cx - ax)
    o2 = abx * (dy - ay) - aby * (dx - ax)
    o3 = cdx * (ay - cy) - cdy * (ax - cx)
    o4 = cdx * (by - cy) - cdy * (bx - cx)
    eps = EPSILON
    hit = (
        ((o1 > eps) & (o2 < -eps)) | ((o1 < -eps) & (o2 > eps))
    ) & (
        ((o3 > eps) & (o4 < -eps)) | ((o3 < -eps) & (o4 > eps))
    )

    def within(box: _Segments, k, px, py):
        return (
            (box.xlo[k] - eps <= px) & (px <= box.xhi[k] + eps)
            & (box.ylo[k] - eps <= py) & (py <= box.yhi[k] + eps)
        )

    hit |= (np.abs(o1) <= eps) & within(a, i, cx, cy)
    hit |= (np.abs(o2) <= eps) & within(a, i, dx, dy)
    hit |= (np.abs(o3) <= eps) & within(b, j, ax, ay)
    hit |= (np.abs(o4) <= eps) & within(b, j, bx, by)
    return hit


# ---------------------------------------------------------------------------
# Per-primitive-pair kernels
# ---------------------------------------------------------------------------


def _segments_cross(sa: _Segments, first_a, count_a, sb: _Segments,
                    first_b, count_b, box_b) -> np.ndarray:
    """Per pair ``k``: does one of the segments ``first_a[k]`` onward
    (``count_a[k]`` of them) of ``sa`` meet one of ``sb``'s?  ``box_b``
    is ``(xmin, ymin, xmax, ymax)`` per pair, a box holding its ``sb``
    segments."""
    out = np.zeros(len(first_a), dtype=np.bool_)
    pad = SEGMENT_PAD
    for i, pair in _range_blocks(first_a, count_a):
        # A segment clear of the other side's box is clear of every
        # segment inside it.
        bx0, by0, bx1, by1 = (v[pair] for v in box_b)
        near = ~(
            (sa.xhi[i] + pad < bx0) | (bx1 + pad < sa.xlo[i])
            | (sa.yhi[i] + pad < by0) | (by1 + pad < sa.ylo[i])
        )
        i, pair = i[near], pair[near]
        for j, entry in _range_blocks(first_b[pair], count_b[pair]):
            _count("geo.kernel_pairs", len(j))
            near = np.flatnonzero(~_boxes_apart(sa, i[entry], sb, j))
            entry, j = entry[near], j[near]
            met = _segments_intersect(sa, i[entry], sb, j)
            out[pair[entry[met]]] = True
    return out


def _vertex_segment_min2(a: _Store, first_v, count_v, sb: _Segments,
                         first_s, count_s, box=None, limit2=None
                         ) -> np.ndarray:
    """Per pair ``k``: least squared distance from the vertices
    ``first_v[k]`` onward (``count_v[k]`` of them) of ``a`` to the
    segments ``first_s[k]`` onward (``count_s[k]``) of ``sb``; inf
    without a segment.  With ``box`` (per pair, holding its segments)
    and ``limit2``, a vertex whose squared distance to the box exceeds
    ``limit2[k]`` is skipped: the pair's terms from it are larger."""
    out = np.full(len(first_v), np.inf)
    count_v = np.where(count_s > 0, count_v, 0)
    for vertex, pair in _range_blocks(first_v, count_v):
        px, py = a.x[vertex], a.y[vertex]
        if box is not None:
            x0, y0, x1, y1 = (v[pair] for v in box)
            ex = np.maximum(np.maximum(x0 - px, px - x1), 0.0)
            ey = np.maximum(np.maximum(y0 - py, py - y1), 0.0)
            near = np.flatnonzero(~(ex * ex + ey * ey > limit2[pair]))
            px, py, pair = px[near], py[near], pair[near]
        for j, entry in _range_blocks(first_s[pair], count_s[pair]):
            _count("geo.kernel_pairs", len(j))
            _group_min(
                _point_segment_dist2(px[entry], py[entry], sb, j),
                pair[entry], out,
            )
    return out


def _prim_vertex_segment_min2(a: _Store, pa, b: _Store, pb) -> np.ndarray:
    """Per primitive pair: least squared distance from a vertex of
    ``pa`` to a segment of ``pb`` (inf when ``pb`` has no segment)."""
    sb = b.segments
    first_s = sb.prim_seg[pb]
    return _vertex_segment_min2(
        a, a.prim_vert[pa], a.prim_vert[pa + 1] - a.prim_vert[pa],
        sb, first_s, sb.prim_seg[pb + 1] - first_s,
    )


def _prims_cross(a: _Store, pa, b: _Store, pb) -> np.ndarray:
    """Per primitive pair: does a segment of ``pa`` meet one of ``pb``?"""
    sa, sb = a.segments, b.segments
    first_a, first_b = sa.prim_seg[pa], sb.prim_seg[pb]
    return _segments_cross(
        sa, first_a, sa.prim_seg[pa + 1] - first_a,
        sb, first_b, sb.prim_seg[pb + 1] - first_b,
        tuple(v[pb] for v in b.prim_bounds),
    )


def _probes_inside(px, py, b: _Store, pb) -> np.ndarray:
    """``point_in_polygon`` of probe ``k`` in polygon ``pb[k]``: inside
    the shell or on it, and not strictly inside a hole."""
    sb = b.segments
    ring0 = b.prim_offsets[pb]
    rings = b.prim_offsets[pb + 1] - ring0
    slot0 = np.cumsum(rings) - rings
    n_slots = int(rings.sum())
    crossings = np.zeros(n_slots, dtype=_INT)
    near2 = np.full(n_slots, np.inf)
    first = sb.prim_seg[pb]
    for j, entry in _range_blocks(first, sb.prim_seg[pb + 1] - first):
        _count("geo.kernel_pairs", len(j))
        qx, qy = px[entry], py[entry]
        slot = slot0[entry] + (sb.ring[j] - ring0[entry])
        _group_min(_point_segment_dist2(qx, qy, sb, j), slot, near2)
        y0 = sb.y0[j]
        toggles = ((y0 > qy) != (sb.y1[j] > qy)) & (
            qx < sb.x0[j] + (qy - y0) * sb.dx[j] / sb.cross_dy[j]
        )
        crossings += np.bincount(slot[toggles], minlength=n_slots)
    on_ring = np.sqrt(near2) <= EPSILON
    odd = (crossings & 1).astype(np.bool_)
    inside = on_ring[slot0] | odd[slot0]
    in_hole = odd & ~on_ring
    in_hole[slot0] = False
    owner = np.repeat(np.arange(len(pb), dtype=_INT), rings)
    inside[owner[in_hole]] = False
    return inside


# ---------------------------------------------------------------------------
# Row evaluation
# ---------------------------------------------------------------------------


def _prim_pairs(a: _Store, ga, b: _Store, gb):
    """Every primitive pair of the rows pairing geometry ``ga[r]`` of
    ``a`` with ``gb[r]`` of ``b``, in blocks: yields ``(pa, pb, row)``."""
    first_a = a.geom_offsets[ga]
    first_b = b.geom_offsets[gb]
    count_b = b.geom_offsets[gb + 1] - first_b
    for pa, row in _range_blocks(first_a, a.geom_offsets[ga + 1] - first_a):
        for pb, entry in _range_blocks(first_b[row], count_b[row]):
            yield pa[entry], pb, row[entry]


def _evaluate(a: _Store, ga, b: _Store, gb) -> np.ndarray:
    """For rows pairing geometry ``ga[r]`` of ``a`` with ``gb[r]`` of
    ``b``: do they share a point?  Primitive pairs with disjoint bounds
    are skipped, as ``intersects`` skips them."""
    hit = np.zeros(len(ga), dtype=np.bool_)
    for pa, pb, row in _prim_pairs(a, ga, b, gb):
        ax0, ay0, ax1, ay1 = (v[pa] for v in a.prim_bounds)
        bx0, by0, bx1, by1 = (v[pb] for v in b.prim_bounds)
        near = ~((ax1 < bx0) | (bx1 < ax0) | (ay1 < by0) | (by1 < ay0))
        _evaluate_prims(a, pa[near], b, pb[near], row[near], hit)
    return hit


def _evaluate_prims(a: _Store, pa, b: _Store, pb, row, hit) -> None:
    hit[row[_probes_hit(a, pa, b, pb) | _probes_hit(b, pb, a, pa)]] = True

    def select(mask):
        return np.flatnonzero(mask & ~hit[row])

    # Point against point, and point against the segments of a line:
    # they meet within EPSILON.
    ka, kb = a.kind[pa], b.kind[pb]
    s = select((ka == POINT) & (kb == POINT))
    if len(s):
        va, vb = a.prim_vert[pa[s]], b.prim_vert[pb[s]]
        ex = a.x[va] - b.x[vb]
        ey = a.y[va] - b.y[vb]
        _close(ex * ex + ey * ey, row[s], hit)
    s = select((ka == POINT) & (kb == LINE))
    if len(s):
        _close(_prim_vertex_segment_min2(a, pa[s], b, pb[s]), row[s], hit)
    s = select((kb == POINT) & (ka == LINE))
    if len(s):
        _close(_prim_vertex_segment_min2(b, pb[s], a, pa[s]), row[s], hit)

    s = select((ka != POINT) & (kb != POINT))
    if len(s):
        hit[row[s[_prims_cross(a, pa[s], b, pb[s])]]] = True


def _close(dist2, row, hit) -> None:
    """A point pair closer than EPSILON is a hit."""
    hit[row[np.sqrt(dist2) <= EPSILON]] = True


def _probes_hit(a: _Store, pa, b: _Store, pb) -> np.ndarray:
    """Per primitive pair: ``pb`` is a polygon holding the first vertex
    of ``pa`` (a point in a polygon, or a line or polygon inside one
    without a boundary crossing).  A probe outside the polygon's box
    (padded by SEGMENT_PAD) is never inside it, nor on its rings."""
    out = np.zeros(len(pa), dtype=np.bool_)
    s = np.flatnonzero(b.kind[pb] == POLYGON)
    vertex = a.prim_vert[pa[s]]
    px, py = a.x[vertex], a.y[vertex]
    x0, y0, x1, y1 = (v[pb[s]] for v in b.prim_bounds)
    pad = SEGMENT_PAD
    near = np.flatnonzero(
        (x0 - pad <= px) & (px <= x1 + pad)
        & (y0 - pad <= py) & (py <= y1 + pad)
    )
    if len(near):
        s = s[near]
        out[s] = _probes_inside(px[near], py[near], b, pb[s])
    return out


# ---------------------------------------------------------------------------
# Public row kernels
# ---------------------------------------------------------------------------


def _paired(a: GeomCSR, b: GeomCSR):
    """The rows where both batches hold a geometry, and their stored
    geometries."""
    rows = np.flatnonzero((a.index >= 0) & (b.index >= 0))
    _count("geo.kernel_rows", len(rows))
    return rows, a.index[rows], b.index[rows]


def _apart(a: _Store, ga, b: _Store, gb, pad=0.0) -> np.ndarray:
    """``_bounds_disjoint``: a geometry is empty, or the bounds are
    more than ``pad`` apart."""
    ax0, ay0, ax1, ay1 = (v[ga] for v in a.geom_bounds)
    bx0, by0, bx1, by1 = (v[gb] for v in b.geom_bounds)
    return (
        a.empty[ga] | b.empty[gb]
        | (ax1 + pad < bx0) | (bx1 + pad < ax0)
        | (ay1 + pad < by0) | (by1 + pad < ay0)
    )


def intersects_rows(a: GeomCSR, b: GeomCSR) -> np.ndarray:
    """``intersects`` of every row; False where a row lacks a
    geometry."""
    out = np.zeros(len(a), dtype=np.bool_)
    rows, ga, gb = _paired(a, b)
    near = np.flatnonzero(~_apart(a.store, ga, b.store, gb))
    if len(near):
        out[rows[near]] = _evaluate(a.store, ga[near], b.store, gb[near])
    return out


def _contained(a: _Store, ga, b: _Store, gb) -> np.ndarray:
    """Per row: a primitive of one side has its first vertex in a
    polygon of the other (containment without a boundary crossing)."""
    hit = np.zeros(len(ga), dtype=np.bool_)
    if (a.kind == POLYGON).any() or (b.kind == POLYGON).any():
        for pa, pb, row in _prim_pairs(a, ga, b, gb):
            inside = _probes_hit(a, pa, b, pb) | _probes_hit(b, pb, a, pa)
            hit[row[inside]] = True
    return hit


def _chunks_cross(a: _Store, i, b: _Store, j) -> np.ndarray:
    """Per run pair: does a segment of run ``i`` of ``a`` meet one of
    run ``j`` of ``b``?"""
    ca, cb = a.chunks, b.chunks
    return _segments_cross(
        a.segments, ca.seg[i], ca.nvert[i] - 1,
        b.segments, cb.seg[j], cb.nvert[j] - 1,
        (cb.xlo[j], cb.ylo[j], cb.xhi[j], cb.yhi[j]),
    )


def _chunks_min2(a: _Store, i, b: _Store, j, limit2=None) -> np.ndarray:
    """Per run pair: the least squared distance term of ``distance``
    between run ``i`` of ``a`` and run ``j`` of ``b`` (vertex to
    segment both ways, point to point between two point runs).  With
    ``limit2``, a vertex farther than that from the other run's box is
    skipped: a minimum up to ``limit2`` is exact, a larger one may come
    out larger (or inf)."""
    ca, cb = a.chunks, b.chunks
    box_a = box_b = None
    if limit2 is not None:
        box_a = (ca.xlo[i], ca.ylo[i], ca.xhi[i], ca.yhi[i])
        box_b = (cb.xlo[j], cb.ylo[j], cb.xhi[j], cb.yhi[j])
    out = np.minimum(
        _vertex_segment_min2(a, ca.vert[i], ca.nvert[i], b.segments,
                             cb.seg[j], cb.nvert[j] - 1, box_b, limit2),
        _vertex_segment_min2(b, cb.vert[j], cb.nvert[j], a.segments,
                             ca.seg[i], ca.nvert[i] - 1, box_a, limit2),
    )
    s = np.flatnonzero((ca.kind[i] == POINT) & (cb.kind[j] == POINT))
    if len(s):
        va, vb = ca.vert[i[s]], cb.vert[j[s]]
        ex = a.x[va] - b.x[vb]
        ey = a.y[va] - b.y[vb]
        out[s] = ex * ex + ey * ey
    return out


def _run_starts(row: np.ndarray) -> np.ndarray:
    """Where each run of equal values of sorted ``row`` begins."""
    return np.flatnonzero(np.diff(row, prepend=row[:1] - 1))


def _hit_tests(a: _Store, i, b: _Store, j, row, hit) -> None:
    """Mark the rows of run pairs that share a point: a crossing of
    their segments, or a point within EPSILON of a line or point."""
    ka, kb = a.chunks.kind[i], b.chunks.kind[j]
    s = np.flatnonzero((ka != POINT) & (kb != POINT))
    if len(s):
        hit[row[s[_chunks_cross(a, i[s], b, j[s])]]] = True
    s = np.flatnonzero(((ka == POINT) & (kb != POLYGON))
                       | ((kb == POINT) & (ka != POLYGON)))
    if len(s):
        met = np.sqrt(_chunks_min2(a, i[s], b, j[s])) <= EPSILON
        hit[row[s[met]]] = True


def _bound_rows(a: _Store, i, b: _Store, j, row, hit, best2, cap) -> None:
    """Fold the run pairs ``(i[k], j[k])`` of ``row[k]`` (sorted) into
    ``hit`` and ``best2``.

    Only run pairs whose boxes come within SEGMENT_PAD can share a
    point: each row's first such pair is tested, then the rest of the
    rows still open.  For a row without a hit, its ``cap`` bounds the
    distance, or, where that is infinite, its pair of least box gap
    does; then only the pairs (and, in them, the vertices) within that
    bound of the other run's box are measured."""
    ca, cb = a.chunks, b.chunks
    if hit.any():
        s = np.flatnonzero(~hit[row])
        i, j, row = i[s], j[s], row[s]
    ax0, ay0, ax1, ay1 = ca.xlo[i], ca.ylo[i], ca.xhi[i], ca.yhi[i]
    bx0, by0, bx1, by1 = cb.xlo[j], cb.ylo[j], cb.xhi[j], cb.yhi[j]
    pad = SEGMENT_PAD
    near = np.flatnonzero(~(
        (ax1 + pad < bx0) | (bx1 + pad < ax0)
        | (ay1 + pad < by0) | (by1 + pad < ay0)
    ))
    first = np.zeros(len(near), dtype=np.bool_)
    first[_run_starts(row[near])] = True
    for s in (near[first], near[~first]):
        s = s[~hit[row[s]]]
        if len(s):
            _hit_tests(a, i[s], b, j[s], row[s], hit)

    s = np.flatnonzero(~hit[row])
    if not len(s):
        return
    gx = np.maximum(np.maximum(bx0[s] - ax1[s], ax0[s] - bx1[s]), 0.0)
    gy = np.maximum(np.maximum(by0[s] - ay1[s], ay0[s] - by1[s]), 0.0)
    gap = np.sqrt(gx * gx + gy * gy)
    i, j, row = i[s], j[s], row[s]
    s = np.flatnonzero(np.isposinf(cap[row]))
    seed = np.empty(0, dtype=_INT)
    if len(s):
        starts = _run_starts(row[s])
        least = np.repeat(np.fmin.reduceat(gap[s], starts),
                          np.diff(np.append(starts, len(s))))
        s = s[gap[s] == least]
        seed = s[_run_starts(row[s])]
        _group_min(_chunks_min2(a, i[seed], b, j[seed]), row[seed], best2)
    # No term of a pair is below its box gap but by rounding, which is
    # a few ulps of the coordinates and of the distance: the slack keeps
    # every pair and vertex that may hold the least term.  A NaN gap is
    # never cut.
    bound = np.fmin(np.sqrt(best2[row]), cap[row])
    limit = bound + SEGMENT_PAD + 1e-9 * (bound + max(ca.scale, cb.scale))
    keep = ~(gap > limit)
    keep[seed] = False
    s = np.flatnonzero(keep)
    _group_min(_chunks_min2(a, i[s], b, j[s], limit[s] * limit[s]),
               row[s], best2)


def _bounded_distances(a: _Store, ga, b: _Store, gb, cap) -> np.ndarray:
    """``distance`` of the rows pairing geometry ``ga[r]`` of ``a`` with
    ``gb[r]`` of ``b``, over the run pairs of :class:`_Chunks` that can
    decide it (:func:`_bound_rows`).  Exact up to ``cap[r]`` plus
    SEGMENT_PAD; a row farther apart may come out larger (or inf), so
    ``dwithin``'s test against its distance gives the same answer."""
    hit = _contained(a, ga, b, gb)
    best2 = np.full(len(ga), np.inf)
    ca, cb = a.chunks, b.chunks
    first_a = ca.geom_chunk[ga]
    count_a = ca.geom_chunk[ga + 1] - first_a
    first_b = cb.geom_chunk[gb]
    count_b = cb.geom_chunk[gb + 1] - first_b
    for lo, hi in _cuts(count_a * count_b):
        i, row = ranges(first_a[lo:hi], count_a[lo:hi])
        row += lo
        j, entry = ranges(first_b[row], count_b[row])
        _bound_rows(a, i[entry], b, j, row[entry], hit, best2, cap)
    return np.where(hit, 0.0, np.sqrt(best2))


def distance_rows(a: GeomCSR, b: GeomCSR) -> np.ndarray:
    """``distance`` of every row; NaN where a row lacks a geometry.
    Raises :class:`GeometryError` when a row holds an empty one."""
    out = np.full(len(a), np.nan)
    rows, ga, gb = _paired(a, b)
    if (a.store.empty[ga] | b.store.empty[gb]).any():
        raise GeometryError("distance to an empty geometry is undefined")
    if len(rows):
        out[rows] = _bounded_distances(a.store, ga, b.store, gb,
                                       np.full(len(rows), np.inf))
    return out


def dwithin_rows(a: GeomCSR, b: GeomCSR, dist: np.ndarray) -> np.ndarray:
    """``dwithin`` of every row for the row's ``dist``; False where a
    row lacks a geometry."""
    out = np.zeros(len(a), dtype=np.bool_)
    rows, ga, gb = _paired(a, b)
    dist = np.asarray(dist, dtype=np.float64)[rows]
    near = np.flatnonzero(~_apart(a.store, ga, b.store, gb, dist))
    if len(near):
        gaps = _bounded_distances(a.store, ga[near], b.store, gb[near],
                                  dist[near])
        out[rows[near]] = gaps <= dist[near] + EPSILON
    return out
