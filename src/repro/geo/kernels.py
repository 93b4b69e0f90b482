"""Batch geometry kernels over a CSR coordinate layout.

A :class:`GeomCSR` holds a batch of geometries as flat arrays::

    index          row -> geometry (-1: the row has no usable geometry)
    geom_offsets   geometry -> primitives   (points, lines, polygons)
    prim_offsets   primitive -> rings       (a point or line is one ring)
    ring_offsets   ring -> vertices         (flat float64 ``x`` / ``y``)

plus primitive kind codes and per-geometry bounds, SRID and emptiness.
``intersects_rows`` / ``distance_rows`` / ``dwithin_rows`` answer the
predicate for every row of two row-aligned batches: a bounds prefilter
on the arrays, then every undecided row's segment x segment, vertex x
segment and probe x ring-edge pairs are expanded with offset arithmetic,
evaluated elementwise and reduced per row.  The pair axis is cut into
blocks of ``_BLOCK`` pairs, so scratch stays small however many rows
or vertices a call carries.

Every pair is evaluated by the formulas of :mod:`.algorithms`' segment
primitives, in the same operation order, and reduced with exact
``min``/``any``: a row's result does not depend on which other rows
share its call, so one call over N rows equals N calls over one row on
float bits, and equals the per-object scalar functions of
:mod:`.algorithms` (which the row engine calls one pair at a time).
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

    Bounds and the per-segment arrays derive from the coordinates on
    first use (a batch of points never needs segments)."""

    __slots__ = (
        "geom_offsets", "kind", "prim_offsets", "ring_offsets", "x", "y",
        "srid", "empty", "prim_vert", "_bounds", "_segments",
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


class _Segments:
    """Per-segment arrays of a store, and each primitive's range in
    them."""

    __slots__ = (
        "prim_seg", "ring", "x0", "y0", "x1", "y1", "dx", "dy",
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
        ring_seg = np.zeros(len(ring_offsets), dtype=_INT)
        np.cumsum(np.maximum(ring_lens - 1, 0), out=ring_seg[1:])
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


def _segments_cross(a: _Store, pa, b: _Store, pb) -> np.ndarray:
    """Per primitive pair: does a segment of ``pa`` meet one of ``pb``?"""
    out = np.zeros(len(pa), dtype=np.bool_)
    sa, sb = a.segments, b.segments
    first_a = sa.prim_seg[pa]
    first_b = sb.prim_seg[pb]
    count_b = sb.prim_seg[pb + 1] - first_b
    pad = SEGMENT_PAD
    for i, pair in _range_blocks(first_a, sa.prim_seg[pa + 1] - first_a):
        # A segment clear of the other primitive's box is clear of every
        # segment inside it.
        bx0, by0, bx1, by1 = (v[pb[pair]] for v in b.prim_bounds)
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


def _vertex_segment_min2(a: _Store, pa, b: _Store, pb) -> np.ndarray:
    """Per primitive pair: least squared distance from a vertex of
    ``pa`` to a segment of ``pb`` (inf when ``pb`` has no segment)."""
    out = np.full(len(pa), np.inf)
    sb = b.segments
    first_a = a.prim_vert[pa]
    first_b = sb.prim_seg[pb]
    count_b = sb.prim_seg[pb + 1] - first_b
    for vertex, pair in _range_blocks(first_a, a.prim_vert[pa + 1] - first_a):
        px, py = a.x[vertex], a.y[vertex]
        for j, entry in _range_blocks(first_b[pair], count_b[pair]):
            _count("geo.kernel_pairs", len(j))
            _group_min(
                _point_segment_dist2(px[entry], py[entry], sb, j),
                pair[entry], out,
            )
    return out


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


def _evaluate(a: _Store, ga, b: _Store, gb, measure: bool,
              prefilter: bool):
    """For rows pairing geometry ``ga[r]`` of ``a`` with ``gb[r]`` of
    ``b``: ``hit[r]`` (they share a point) and, with ``measure``,
    ``gap2[r]``, the least squared vertex-to-segment or point-to-point
    distance over their primitive pairs (meaningful where not hit).

    ``prefilter`` skips primitive pairs with disjoint bounds, as
    ``intersects`` does and ``distance`` does not."""
    hit = np.zeros(len(ga), dtype=np.bool_)
    gap2 = np.full(len(ga), np.inf)
    first_a = a.geom_offsets[ga]
    first_b = b.geom_offsets[gb]
    count_b = b.geom_offsets[gb + 1] - first_b
    blocks = (
        (pa[entry], pb, row[entry])
        for pa, row in _range_blocks(first_a, a.geom_offsets[ga + 1] - first_a)
        for pb, entry in _range_blocks(first_b[row], count_b[row])
    )
    for pa, pb, row in blocks:
        if prefilter:
            ax0, ay0, ax1, ay1 = (v[pa] for v in a.prim_bounds)
            bx0, by0, bx1, by1 = (v[pb] for v in b.prim_bounds)
            near = ~(
                (ax1 < bx0) | (bx1 < ax0) | (ay1 < by0) | (by1 < ay0)
            )
            pa, pb, row = pa[near], pb[near], row[near]
        _evaluate_prims(a, pa, b, pb, row, hit, gap2, measure)
    return hit, gap2


def _evaluate_prims(a: _Store, pa, b: _Store, pb, row, hit, gap2,
                    measure: bool) -> None:
    ka, kb = a.kind[pa], b.kind[pb]
    va, vb = a.prim_vert[pa], b.prim_vert[pb]

    def select(mask):
        return np.flatnonzero(mask & ~hit[row])

    # A point inside a polygon, or a line or polygon with its first
    # vertex inside one (containment without a boundary crossing).
    s = select(kb == POLYGON)
    if len(s):
        inside = _probes_inside(a.x[va[s]], a.y[va[s]], b, pb[s])
        hit[row[s[inside]]] = True
    s = select(ka == POLYGON)
    if len(s):
        inside = _probes_inside(b.x[vb[s]], b.y[vb[s]], a, pa[s])
        hit[row[s[inside]]] = True

    # Point against point, and point against the segments of a line:
    # they meet within EPSILON.  A point's gap to a polygon's rings only
    # matters as a distance.
    s = select((ka == POINT) & (kb == POINT))
    if len(s):
        ex = a.x[va[s]] - b.x[vb[s]]
        ey = a.y[va[s]] - b.y[vb[s]]
        _close(ex * ex + ey * ey, row[s], True, hit, gap2)
    s = select((ka == POINT) & (kb != POINT) & (measure | (kb == LINE)))
    if len(s):
        _close(_vertex_segment_min2(a, pa[s], b, pb[s]), row[s],
               kb[s] == LINE, hit, gap2)
    s = select((kb == POINT) & (ka != POINT) & (measure | (ka == LINE)))
    if len(s):
        _close(_vertex_segment_min2(b, pb[s], a, pa[s]), row[s],
               ka[s] == LINE, hit, gap2)

    both = (ka != POINT) & (kb != POINT)
    s = select(both)
    if len(s):
        hit[row[s[_segments_cross(a, pa[s], b, pb[s])]]] = True
    if measure:
        # Disjoint segments are closest at a vertex of one of them.
        s = select(both)
        if len(s):
            np.minimum.at(
                gap2, row[s], _vertex_segment_min2(a, pa[s], b, pb[s])
            )
            np.minimum.at(
                gap2, row[s], _vertex_segment_min2(b, pb[s], a, pa[s])
            )


def _close(dist2, row, meets, hit, gap2) -> None:
    """Fold point-involving pairs into the rows: a pair closer than
    EPSILON (where ``meets`` allows it) is a hit; all are gaps."""
    hit[row[(np.sqrt(dist2) <= EPSILON) & meets]] = True
    np.minimum.at(gap2, row, dist2)


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
        out[rows[near]], _ = _evaluate(
            a.store, ga[near], b.store, gb[near], False, True
        )
    return out


def _distances(a: _Store, ga, b: _Store, gb) -> np.ndarray:
    hit, gap2 = _evaluate(a, ga, b, gb, True, False)
    return np.where(hit, 0.0, np.sqrt(gap2))


def distance_rows(a: GeomCSR, b: GeomCSR) -> np.ndarray:
    """``distance`` of every row; NaN where a row lacks a geometry.
    Raises :class:`GeometryError` when a row holds an empty one."""
    out = np.full(len(a), np.nan)
    rows, ga, gb = _paired(a, b)
    if (a.store.empty[ga] | b.store.empty[gb]).any():
        raise GeometryError("distance to an empty geometry is undefined")
    if len(rows):
        out[rows] = _distances(a.store, ga, b.store, gb)
    return out


def dwithin_rows(a: GeomCSR, b: GeomCSR, dist: np.ndarray) -> np.ndarray:
    """``dwithin`` of every row for the row's ``dist``; False where a
    row lacks a geometry."""
    out = np.zeros(len(a), dtype=np.bool_)
    rows, ga, gb = _paired(a, b)
    dist = np.asarray(dist, dtype=np.float64)[rows]
    near = np.flatnonzero(~_apart(a.store, ga, b.store, gb, dist))
    if len(near):
        gaps = _distances(a.store, ga[near], b.store, gb[near])
        out[rows[near]] = gaps <= dist[near] + EPSILON
    return out
