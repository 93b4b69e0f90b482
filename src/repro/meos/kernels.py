"""Batch kernels for temporal points over a CSR instant layout.

A :class:`TempCSR` holds a batch of temporal points as flat arrays::

    index          row -> temporal (-1: the row has none the kernels read)
    seq_offsets    temporal -> sequences   (an instant is one sequence)
    inst_offsets   sequence -> instants    (flat int64 µs ``t``, float64
                                            ``x`` / ``y``)

plus per-sequence bound inclusivity and interpolation, and per-temporal
subtype, SRID and type.  ``at_period_rows`` / ``length_rows`` /
``edwithin_rows`` / ``tdwithin_rows`` answer the scalar
``Temporal.at_time(span)`` / ``length`` / ``e_dwithin`` / ``t_dwithin``
for every row of a batch: bisection is one ``searchsorted`` over a key
that makes the timestamps of all sequences one increasing run, boundary
instants are interpolated elementwise, synchronised segments are the
sorted union of two rows' timestamps cut at the common span.

Every row is evaluated by the formulas of the scalar methods, in their
operation order (``x0 + (x1 - x0) * frac``, ``sqrt(dx*dx + dy*dy)``
added left to right, Python's ``min``/``max`` on NaN), and no step
looks at another row: a row's result does not depend on which rows
share its call and equals the scalar method's on float bits.  What a
kernel does not read, it declines, row by row (the second array every
kernel returns): the caller runs the scalar method there, which raises
what there is to raise.  A temporal is *readable* when all its values
are points of one SRID with finite coordinates.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..geo import GeomCSR, LineString, Point, collect, encode_wkb, lines_csr
from ..geo.kernels import offsets, ranges
from .basetypes import TSTZ
from .span import Span
from .temporal.base import (
    Temporal,
    TInstant,
    TSequence,
    TSequenceSet,
    _Unnormalized,
)
from .temporal.interp import Interp
from .temporal.lifted import tbool_from_pieces
from .temporal.tpoint import points_within, segment_pieces
from .temporal.ttypes import SPATIAL_TYPES, TBOOL

INSTANT, SEQUENCE, SEQUENCE_SET = 0, 1, 2
DISCRETE, STEP, LINEAR = 0, 1, 2

_INTERP_CODE = {Interp.DISCRETE: DISCRETE, Interp.STEP: STEP,
                Interp.LINEAR: LINEAR}
_INTERP = {code: interp for interp, code in _INTERP_CODE.items()}

_INT = np.int64

#: int64 differences below this convert to float64 exactly, so NumPy's
#: ``int / int`` rounds like Python's.
_EXACT = 1 << 53


# ---------------------------------------------------------------------------
# Time spans as arrays
# ---------------------------------------------------------------------------


class SpanArrays:
    """Row-aligned ``tstzspan`` bounds; ``ok`` marks the rows holding
    one."""

    __slots__ = ("ok", "lower", "upper", "lower_inc", "upper_inc")

    def __len__(self) -> int:
        return len(self.ok)

    def take(self, rows: np.ndarray) -> "SpanArrays":
        out = SpanArrays()
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[rows])
        return out

    def objects(self) -> np.ndarray:
        """The rows as ``tstzspan`` objects, ``None`` where there is none."""
        out = np.empty(len(self), dtype=object)
        bounds = [getattr(self, n)[self.ok].tolist()
                  for n in self.__slots__[1:]]
        out[self.ok] = np.fromiter((Span(*b, TSTZ) for b in zip(*bounds)),
                                   dtype=object, count=int(self.ok.sum()))
        return out


def span_arrays(values: Iterable[Any]) -> SpanArrays:
    """The ``tstzspan``\\ s among ``values`` as arrays."""
    bounds = [
        (True, v.lower, v.upper, v.lower_inc, v.upper_inc)
        if isinstance(v, Span) and v.basetype.name == TSTZ.name
        else (False, 0, 0, False, False)
        for v in values
    ]
    out = SpanArrays()
    columns = list(zip(*bounds)) or [()] * 5
    for name, column, dtype in zip(
        out.__slots__, columns,
        (np.bool_, _INT, _INT, np.bool_, np.bool_),
    ):
        setattr(out, name, np.array(column, dtype=dtype))
    return out


# ---------------------------------------------------------------------------
# The layout
# ---------------------------------------------------------------------------


class TempCSR:
    """Row-aligned batch of temporal points in CSR layout (module
    docstring).

    Rows index into a shared store of temporals, so :meth:`take` gathers
    rows without touching an instant."""

    __slots__ = ("index", "store")

    def __init__(self, index: np.ndarray, store: "_Store"):
        self.index = index
        self.store = store

    def __len__(self) -> int:
        return len(self.index)

    def take(self, rows: np.ndarray) -> "TempCSR":
        return TempCSR(self.index[rows], self.store)

    def readable(self) -> np.ndarray:
        """Rows holding a temporal point the kernels read."""
        return self.index >= 0

    def _row_values(self, values: np.ndarray, missing) -> np.ndarray:
        has = self.index >= 0
        out = np.full(len(self.index), missing, dtype=values.dtype)
        out[has] = values[self.index[has]]
        return out

    def srid(self) -> np.ndarray:
        return self._row_values(self.store.srid, 0)

    def bounds(self) -> tuple[np.ndarray, ...]:
        """Per row ``(xmin, ymin, xmax, ymax, tmin, tmax)`` as float64,
        NaN where the row is not readable."""
        return tuple(
            self._row_values(v, np.nan) for v in self.store.bounds
        )

    def trajectories(self) -> GeomCSR:
        """``trajectory(row)`` of every row as a geometry batch: the
        distinct positions of a discrete sequence, else one line per
        sequence without consecutive duplicate positions (one position:
        a point)."""
        return GeomCSR(self.index, self.store.trajectory_store)

    def objects(self) -> np.ndarray:
        """The rows as ``Temporal`` objects (``None`` where a row is not
        readable), each distinct temporal built once."""
        out = np.empty(len(self.index), dtype=object)
        has = self.index >= 0
        out[has] = self.store.objects(self.index[has])
        return out


class _Store:
    """The temporals behind one or more :class:`TempCSR` batches; the
    search key, bounds, segment lengths and trajectories derive from the
    instants on first use."""

    __slots__ = (
        "seq_offsets", "inst_offsets", "t", "x", "y",
        "lower_inc", "upper_inc", "seq_interp", "normalized",
        "subtype", "srid", "ttype", "_objects",
        "inst_start", "interp", "_key", "_bounds", "_trajectories",
        "_step_lengths",
    )

    def __init__(self, seq_offsets, inst_offsets, t, x, y, lower_inc,
                 upper_inc, seq_interp, normalized, subtype, srid, ttype,
                 objects):
        self.seq_offsets = seq_offsets
        self.inst_offsets = inst_offsets
        self.t, self.x, self.y = t, x, y
        self.lower_inc, self.upper_inc = lower_inc, upper_inc
        self.seq_interp = seq_interp
        self.normalized = normalized
        self.subtype = subtype
        self.srid = srid
        self.ttype = ttype
        #: per temporal, the object once it exists
        self._objects = objects
        #: temporal -> its first instant (every temporal has one)
        self.inst_start = inst_offsets[seq_offsets]
        #: a temporal's interpolation: that of its first sequence
        self.interp = seq_interp[seq_offsets[:-1]]
        self._key = self._bounds = self._trajectories = None
        self._step_lengths = None

    def __len__(self) -> int:
        return len(self.subtype)

    # -- row classes --------------------------------------------------------------

    def linear_sequence(self, ids: np.ndarray) -> np.ndarray:
        """Temporals that are one sequence with linear interpolation."""
        return (self.subtype[ids] == SEQUENCE) & (self.interp[ids] == LINEAR)

    # -- bisection ------------------------------------------------------------------

    @property
    def key(self):
        """``(key, first, base)``: ``key`` rises over all instants —
        ``t`` moved so that every sequence starts one past the end of
        the one before — so one ``searchsorted`` bisects any sequence.
        Empty, and :attr:`searchable` false, when a sequence is too long
        for exact float time fractions or the moved timestamps would
        leave int64: the kernels then read no row of this store."""
        if self._key is None:
            first = self.t[self.inst_offsets[:-1]]
            spans = self.t[self.inst_offsets[1:] - 1] - first
            if len(spans) and (
                int(spans.max()) >= _EXACT
                or float(spans.astype(np.float64).sum()) + len(spans)
                >= float(1 << 62)
            ):
                self._key = (np.empty(0, dtype=_INT),) * 3
            else:
                base = offsets(spans + 1)[:-1]
                shift = np.repeat(base - first, np.diff(self.inst_offsets))
                self._key = (self.t + shift, first, base)
        return self._key

    @property
    def searchable(self) -> bool:
        return len(self.key[0]) == len(self.t)

    def search(self, seq: np.ndarray, when: np.ndarray, side: str
               ) -> np.ndarray:
        """``bisect_<side>`` of ``when`` in the timestamps of ``seq``
        (each within its sequence's time extent), as flat instant
        positions."""
        key, first, base = self.key
        return np.searchsorted(key, when - first[seq] + base[seq], side)

    def value_at(self, seq: np.ndarray, when: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``seq`` at ``when`` (within the time extent):
        the instant's own where one is there, else the linear
        interpolation ``v0 + (v1 - v0) * frac`` on the segment."""
        t, x, y = self.t, self.x, self.y
        pos = self.search(seq, when, "left")
        exact = t[pos] == when
        prev = np.where(exact, pos, pos - 1)
        span = np.where(exact, 1, t[pos] - t[prev])
        frac = (when - t[prev]) / span
        vx = np.where(exact, x[pos], x[prev] + (x[pos] - x[prev]) * frac)
        vy = np.where(exact, y[pos], y[prev] + (y[pos] - y[prev]) * frac)
        return vx, vy

    # -- derived arrays -----------------------------------------------------------------

    @property
    def bounds(self):
        if self._bounds is None:
            starts = self.inst_start[:-1]
            if len(starts):
                box = [
                    np.minimum.reduceat(self.x, starts),
                    np.minimum.reduceat(self.y, starts),
                    np.maximum.reduceat(self.x, starts),
                    np.maximum.reduceat(self.y, starts),
                    self.t[starts].astype(np.float64),
                    self.t[self.inst_start[1:] - 1].astype(np.float64),
                ]
            else:
                box = [np.empty(0)] * 6
            self._bounds = tuple(box)
        return self._bounds

    @property
    def step_lengths(self) -> np.ndarray:
        """Per instant, the distance to the next one of its sequence
        (0 for a sequence's last)."""
        if self._step_lengths is None:
            dx = np.diff(self.x, append=0.0)
            dy = np.diff(self.y, append=0.0)
            steps = np.sqrt(dx * dx + dy * dy)
            steps[self.inst_offsets[1:] - 1] = 0.0
            self._step_lengths = steps
        return self._step_lengths

    @property
    def trajectory_store(self):
        """The store of :meth:`TempCSR.trajectories`: geometry ``g`` is
        temporal ``g``."""
        if self._trajectories is None:
            x, y = self.x, self.y
            sizes = np.diff(self.inst_offsets)
            # A vertex per instant that moves on from the one before; a
            # line starts at every sequence.
            vertex = np.ones(len(x), dtype=np.bool_)
            vertex[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
            vertex[self.inst_offsets[:-1]] = True
            line = np.zeros(len(x), dtype=np.bool_)
            line[self.inst_offsets[:-1]] = True
            # Discrete instants: a vertex per position not seen before
            # in the sequence, each a line (a point) of its own.
            loose = np.flatnonzero(
                np.repeat(self.seq_interp == DISCRETE, sizes)
            )
            if len(loose):
                seq = np.repeat(np.arange(len(sizes)), sizes)[loose]
                order = np.lexsort((y[loose], x[loose], seq))
                sx, sy, ss = x[loose][order], y[loose][order], seq[order]
                fresh = np.ones(len(loose), dtype=np.bool_)
                fresh[1:] = ((sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
                             | (ss[1:] != ss[:-1]))
                vertex[loose[order]] = fresh
                line[loose] = vertex[loose]
            vertices, lines = offsets(vertex), offsets(line)
            self._trajectories = lines_csr(
                np.empty(0, dtype=_INT), lines[self.inst_start],
                np.append(vertices[:-1][line], vertices[-1]),
                x[vertex], y[vertex], self.srid,
            ).store
        return self._trajectories

    # -- objects ------------------------------------------------------------------------

    def objects(self, ids: np.ndarray) -> np.ndarray:
        """The temporals ``ids`` as objects."""
        cache = self._objects
        for g in np.unique(ids).tolist():
            if cache[g] is None:
                cache[g] = self._build(g)
        return cache[ids]

    def _build(self, g: int) -> Temporal:
        ttype = self.ttype[g]
        srid = int(self.srid[g])
        sequences = []
        for s in range(self.seq_offsets[g], self.seq_offsets[g + 1]):
            lo, hi = self.inst_offsets[s], self.inst_offsets[s + 1]
            instants = tuple(
                TInstant(ttype, Point(x, y, srid), t)
                for x, y, t in zip(self.x[lo:hi].tolist(),
                                   self.y[lo:hi].tolist(),
                                   self.t[lo:hi].tolist())
            )
            if self.subtype[g] == INSTANT:
                return instants[0]
            # What the scalar methods return: the instants as they are
            # (the constructor would normalize again).
            seq = TSequence.__new__(TSequence)
            seq.ttype = ttype
            seq._instants = (instants if self.normalized[s]
                             else _Unnormalized(instants))
            seq.lower_inc = bool(self.lower_inc[s])
            seq.upper_inc = bool(self.upper_inc[s])
            seq._interp = _INTERP[int(self.seq_interp[s])]
            sequences.append(seq)
        if self.subtype[g] == SEQUENCE:
            return sequences[0]
        return TSequenceSet(ttype, sequences)


def temporal_csr(values: Iterable[Any]) -> TempCSR:
    """The CSR batch of ``values``; a row that is not a readable
    temporal point (module docstring) holds none."""
    index: list[int] = []
    objects: list[Temporal] = []
    seq_counts: list[int] = []
    subtypes: list[int] = []
    srids: list[int] = []
    inst_counts: list[int] = []
    seq_flags: list[tuple[bool, bool, int, bool]] = []
    ts: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    for value in values:
        parts = _parts(value)
        if parts is None:
            index.append(-1)
            continue
        subtype, sequences = parts
        points = [inst.value for seq in sequences for inst in seq[0]]
        if not all(type(p) is Point for p in points) or len(
            {p.srid for p in points}
        ) != 1:
            index.append(-1)
            continue
        index.append(len(objects))
        objects.append(value)
        subtypes.append(subtype)
        srids.append(points[0].srid)
        seq_counts.append(len(sequences))
        for instants, *seq_flag in sequences:
            inst_counts.append(len(instants))
            seq_flags.append(tuple(seq_flag))
            ts.extend([inst.t for inst in instants])
        xs.extend([p.x for p in points])
        ys.extend([p.y for p in points])
    flags = list(zip(*seq_flags)) or [()] * 4
    cache = np.fromiter(objects, dtype=object, count=len(objects))
    ttype = np.fromiter((o.ttype for o in objects), dtype=object,
                        count=len(objects))
    store = _Store(
        offsets(seq_counts),
        offsets(inst_counts),
        np.array(ts, dtype=_INT),
        np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64),
        np.array(flags[0], dtype=np.bool_),
        np.array(flags[1], dtype=np.bool_),
        np.array(flags[2], dtype=np.int8),
        np.array(flags[3], dtype=np.bool_),
        np.array(subtypes, dtype=np.int8), np.array(srids, dtype=_INT),
        ttype, cache,
    )
    rows = np.array(index, dtype=_INT)
    if len(store):
        finite = np.logical_and.reduceat(
            np.isfinite(store.x) & np.isfinite(store.y),
            store.inst_start[:-1],
        )
        rows[rows >= 0] = np.where(finite[rows[rows >= 0]],
                                   rows[rows >= 0], -1)
    return TempCSR(rows, store)


def _parts(value: Any):
    """``(subtype, [(instants, lower_inc, upper_inc, interp, normalized),
    …])`` of a temporal point, ``None`` for anything else."""
    if not isinstance(value, Temporal) or value.ttype not in SPATIAL_TYPES:
        return None
    if isinstance(value, TInstant):
        return INSTANT, [((value,), True, True, DISCRETE, True)]
    if isinstance(value, TSequence):
        return SEQUENCE, [_sequence_part(value)]
    if isinstance(value, TSequenceSet):
        return SEQUENCE_SET, [_sequence_part(s) for s in value._sequences]
    return None


def _sequence_part(seq: TSequence):
    instants = seq._instants
    return (instants, seq.lower_inc, seq.upper_inc,
            _INTERP_CODE[seq._interp],
            not isinstance(instants, _Unnormalized))


# ---------------------------------------------------------------------------
# Elementwise primitives: the scalar formulas, on arrays
# ---------------------------------------------------------------------------


def _intersect(lo_a, hi_a, lo_inc_a, hi_inc_a, lo_b, hi_b, lo_inc_b,
               hi_inc_b):
    """``Span.intersection`` elementwise: ``(some, lower, upper,
    lower_inc, upper_inc)``, ``some`` false where there is none."""
    some = np.where(
        (hi_a < lo_b) | (hi_b < lo_a), False,
        np.where(hi_a == lo_b, hi_inc_a & lo_inc_b,
                 np.where(hi_b == lo_a, hi_inc_b & lo_inc_a, True)),
    )
    lower = np.maximum(lo_a, lo_b)
    lower_inc = np.where(lo_a > lo_b, lo_inc_a,
                         np.where(lo_a < lo_b, lo_inc_b,
                                  lo_inc_a & lo_inc_b))
    upper = np.minimum(hi_a, hi_b)
    upper_inc = np.where(hi_a < hi_b, hi_inc_a,
                         np.where(hi_a > hi_b, hi_inc_b,
                                  hi_inc_a & hi_inc_b))
    some = some & ((lower < upper) | (lower_inc & upper_inc))
    return some, lower, upper, lower_inc, upper_inc


def _redundant(px, py, pt, cx, cy, ct, nx, ny, nt) -> np.ndarray:
    """``base._redundant`` for linear interpolation: the middle instant
    lies (within 1e-9) where its neighbours' segment is at its time."""
    frac = (ct - pt) / (nt - pt)
    ex = px + (nx - px) * frac
    ey = py + (ny - py) * frac
    return ((px == cx) & (py == cy) & (cx == nx) & (cy == ny)) | (
        (np.abs(ex - cx) <= 1e-9) & (np.abs(ey - cy) <= 1e-9)
    )


def _windows(a, b, c, threshold):
    """``lifted.quadratic_below`` elementwise: ``(some, lo, hi)``, the
    stretch of ``[0, 1]`` where ``a s² + b s + c <= threshold``.
    ``np.where(v < 1.0, v, 1.0)`` is Python's ``min(1.0, v)``, NaN
    included."""
    with np.errstate(all="ignore"):
        c_adj = c - threshold
        root = -c_adj / b
        flat = np.abs(b) <= 1e-18
        lin_lo = np.where(flat | (b > 0), 0.0,
                          np.where(root > 0.0, root, 0.0))
        lin_hi = np.where(flat | ~(b > 0), 1.0,
                          np.where(root < 1.0, root, 1.0))
        lin_some = np.where(flat, c_adj <= 0, lin_lo <= lin_hi)
        disc = b * b - 4.0 * a * c_adj
        sqrt_disc = np.sqrt(disc)
        s1 = (-b - sqrt_disc) / (2.0 * a)
        s2 = (-b + sqrt_disc) / (2.0 * a)
        quad_lo = np.where(s1 > 0.0, s1, 0.0)
        quad_hi = np.where(s2 < 1.0, s2, 1.0)
        quad_some = ~(disc < 0) & (quad_lo <= quad_hi)
        linear = a <= 1e-18
        return (np.where(linear, lin_some, quad_some),
                np.where(linear, lin_lo, quad_lo),
                np.where(linear, lin_hi, quad_hi))


def _running_sums(values: np.ndarray, start: np.ndarray,
                  count: np.ndarray) -> np.ndarray:
    """Per group ``((0.0 + v0) + v1) + …`` over ``values[start:start +
    count]``: the groups advance together, one element a step, so every
    sum is added in the order a Python loop adds it."""
    total = np.zeros(len(start), dtype=np.float64)
    order = np.argsort(-count, kind="stable")
    start, count = start[order], count[order]
    live = len(order)
    for step in range(int(count[0]) if live else 0):
        live = int(np.searchsorted(-count, -step, side="left"))
        total[order[:live]] += values[start[:live] + step]
    return total


# ---------------------------------------------------------------------------
# Row kernels
# ---------------------------------------------------------------------------


def length_rows(csr: TempCSR) -> tuple[np.ndarray, np.ndarray]:
    """``length(row)`` per row: ``(values, declined)``."""
    store = csr.store
    values = np.zeros(len(csr), dtype=np.float64)
    rows = np.flatnonzero(csr.index >= 0)
    ids = csr.index[rows]
    moving = store.interp[ids] == LINEAR
    rows, ids = rows[moving], ids[moving]
    start = store.inst_start[ids]
    values[rows] = _running_sums(
        store.step_lengths, start, store.inst_start[ids + 1] - start - 1
    )
    return values, csr.index < 0


def trajectory_rows(csr: TempCSR) -> tuple[np.ndarray, np.ndarray]:
    """``encode_wkb(trajectory(row))`` per row, each distinct temporal's
    geometry built from its trajectory arrays (a point per one-vertex
    line, ``collect`` of several): ``(values, declined)``."""
    store = csr.store.trajectory_store
    x, y, vert = store.x.tolist(), store.y.tolist(), store.prim_vert.tolist()
    blobs = {}
    for g in np.unique(csr.index[csr.index >= 0]).tolist():
        first, last = store.geom_offsets[g], store.geom_offsets[g + 1]
        srid = int(store.srid[g])
        blobs[g] = encode_wkb(collect([
            Point(x[lo], y[lo], srid) if hi - lo == 1
            else LineString(list(zip(x[lo:hi], y[lo:hi])), srid)
            for lo, hi in zip(vert[first:last], vert[first + 1:last + 1])
        ]))
    values = np.empty(len(csr), dtype=object)
    values[:] = [blobs.get(g) for g in csr.index.tolist()]
    return values, csr.index < 0


def at_period_rows(csr: TempCSR, spans: SpanArrays
                   ) -> tuple[TempCSR, np.ndarray]:
    """``row.at_time(span)`` per row, as a batch over a store of its
    own: ``(result, declined)``; a row restricted to nothing holds
    none.  Read: one normalized sequence with linear interpolation."""
    store = csr.store
    result_index = np.full(len(csr), -1, dtype=_INT)
    can = (csr.index >= 0) & spans.ok & store.searchable
    ids = csr.index[can]
    sliceable = store.linear_sequence(ids) & store.normalized[
        store.seq_offsets[ids]
    ]
    can[can] = sliceable
    rows = np.flatnonzero(can)
    ids = csr.index[rows]
    seq = store.seq_offsets[ids]
    t, x, y = store.t, store.x, store.y
    begin, end = store.inst_offsets[seq], store.inst_offsets[seq + 1]
    some, lo, hi, lo_inc, hi_inc = _intersect(
        t[begin], t[end - 1], store.lower_inc[seq], store.upper_inc[seq],
        spans.lower[rows], spans.upper[rows],
        spans.lower_inc[rows], spans.upper_inc[rows],
    )
    rows, ids, seq = rows[some], ids[some], seq[some]
    lo, hi, lo_inc, hi_inc = lo[some], hi[some], lo_inc[some], hi_inc[some]

    # _slice: the instant at lo, the instants strictly between, the
    # instant at hi.
    first = store.search(seq, lo, "right")
    last = np.maximum(first, store.search(seq, hi, "left"))
    sx, sy = store.value_at(seq, lo)
    ex, ey = store.value_at(seq, hi)
    has_end = hi > lo
    n = 1 + (last - first) + has_end

    # _normalize_ends: middle instants that the new first instant (then
    # the new last) makes redundant.
    head = np.ones(len(rows), dtype=_INT)
    live = np.flatnonzero(n > 2)
    while len(live):
        cur = first[live] + head[live] - 1
        is_end = head[live] + 1 == n[live] - 1
        nxt = np.where(is_end, cur, cur + 1)
        drop = _redundant(
            sx[live], sy[live], lo[live], x[cur], y[cur], t[cur],
            np.where(is_end, ex[live], x[nxt]),
            np.where(is_end, ey[live], y[nxt]),
            np.where(is_end, hi[live], t[nxt]),
        )
        live = live[drop]
        head[live] += 1
        live = live[head[live] < n[live] - 1]
    tail = n - 1
    check = np.flatnonzero(tail - 1 > head)
    before = last[check] - 2
    tail[check] -= _redundant(
        x[before], y[before], t[before],
        x[before + 1], y[before + 1], t[before + 1],
        ex[check], ey[check], hi[check],
    )
    mid_start = first + head - 1
    mid_count = np.maximum(tail - head, 0)

    # The result store: start instant, kept middle run, end instant.
    count = 1 + mid_count + has_end
    bounds = offsets(count)
    out_t = np.empty(bounds[-1], dtype=_INT)
    out_x = np.empty(bounds[-1], dtype=np.float64)
    out_y = np.empty(bounds[-1], dtype=np.float64)
    starts = bounds[:-1]
    out_t[starts], out_x[starts], out_y[starts] = lo, sx, sy
    src, group = ranges(mid_start, mid_count)
    dst = src - mid_start[group] + starts[group] + 1
    out_t[dst], out_x[dst], out_y[dst] = t[src], x[src], y[src]
    ends = bounds[1:][has_end] - 1
    out_t[ends], out_x[ends], out_y[ends] = (
        hi[has_end], ex[has_end], ey[has_end]
    )
    single = count == 1
    result = _Store(
        np.arange(len(rows) + 1, dtype=_INT), bounds, out_t, out_x, out_y,
        lo_inc | single, hi_inc | single,
        np.where(single, DISCRETE, LINEAR).astype(np.int8),
        np.ones(len(rows), dtype=np.bool_),
        np.where(single, INSTANT, SEQUENCE).astype(np.int8),
        store.srid[ids], store.ttype[ids],
        np.empty(len(rows), dtype=object),
    )
    result_index[rows] = np.arange(len(rows), dtype=_INT)
    return TempCSR(result_index, result), ~can


class _Sync:
    """The synchronised segments of row pairs ``(a, b)``: for every
    pair with a common time span its bounds, and for those where it is
    more than an instant the break points (both rows' timestamps inside
    it and its two ends) with both positions there."""

    def __init__(self, a: TempCSR, b: TempCSR, rows: np.ndarray):
        sa, sb = a.store, b.store
        seq_a = sa.seq_offsets[a.index[rows]]
        seq_b = sb.seq_offsets[b.index[rows]]
        some, lo, hi, lo_inc, hi_inc = _intersect(
            sa.t[sa.inst_offsets[seq_a]], sa.t[sa.inst_offsets[seq_a + 1] - 1],
            sa.lower_inc[seq_a], sa.upper_inc[seq_a],
            sb.t[sb.inst_offsets[seq_b]], sb.t[sb.inst_offsets[seq_b + 1] - 1],
            sb.lower_inc[seq_b], sb.upper_inc[seq_b],
        )
        #: pairs with a common span, as positions in ``rows``
        self.pairs = np.flatnonzero(some)
        seq_a, seq_b = seq_a[some], seq_b[some]
        self.lo, self.hi = lo[some], hi[some]
        self.lo_inc, self.hi_inc = lo_inc[some], hi_inc[some]
        #: positions of both rows at ``lo`` (all a zero-width span has)
        self.ax, self.ay = sa.value_at(seq_a, self.lo)
        self.bx, self.by = sb.value_at(seq_b, self.lo)

        wide = np.flatnonzero(self.hi > self.lo)
        times = [self.lo[wide], self.hi[wide]]
        owner = [wide, wide]
        for store, seq in ((sa, seq_a[wide]), (sb, seq_b[wide])):
            inside = store.search(seq, self.lo[wide], "right")
            count = np.maximum(
                store.search(seq, self.hi[wide], "left") - inside, 0
            )
            index, group = ranges(inside, count)
            times.append(store.t[index])
            owner.append(wide[group])
        times, owner = np.concatenate(times), np.concatenate(owner)
        order = np.lexsort((times, owner))
        times, owner = times[order], owner[order]
        fresh = np.ones(len(times), dtype=np.bool_)
        fresh[1:] = (times[1:] != times[:-1]) | (owner[1:] != owner[:-1])
        #: break points, sorted by (pair, time), and the pair of each
        self.times, self.owner = times[fresh], owner[fresh]
        ax, ay = sa.value_at(seq_a[self.owner], self.times)
        bx, by = sb.value_at(seq_b[self.owner], self.times)
        #: segment k runs from break ``seg[k]`` to break ``seg[k] + 1``
        self.seg = np.flatnonzero(self.owner[:-1] == self.owner[1:])
        # lifted.segment_distance_quadratic
        dx0, dy0 = (ax - bx)[self.seg], (ay - by)[self.seg]
        dx1, dy1 = (ax - bx)[self.seg + 1], (ay - by)[self.seg + 1]
        vx, vy = dx1 - dx0, dy1 - dy0
        self.a_coef = vx * vx + vy * vy
        self.b_coef = 2.0 * (dx0 * vx + dy0 * vy)
        self.c_coef = dx0 * dx0 + dy0 * dy0


def _dwithin_rows(a: TempCSR, b: TempCSR, dist: np.ndarray) -> np.ndarray:
    """Rows the ``*Dwithin`` kernels read: two linear sequences of
    compatible SRIDs and a distance that is not negative."""
    can = (a.index >= 0) & (b.index >= 0) & (dist >= 0)
    can &= a.store.searchable and b.store.searchable
    ia, ib = a.index[can], b.index[can]
    srid_a, srid_b = a.store.srid[ia], b.store.srid[ib]
    can[can] = (
        a.store.linear_sequence(ia) & b.store.linear_sequence(ib)
        & ((srid_a == 0) | (srid_b == 0) | (srid_a == srid_b))
    )
    return can


def edwithin_rows(a: TempCSR, b: TempCSR, dist: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``e_dwithin(a_row, b_row, dist_row)`` per row: ``(values,
    declined)``."""
    can = _dwithin_rows(a, b, dist)
    rows = np.flatnonzero(can)
    sync = _Sync(a, b, rows)
    threshold = (dist * dist)[rows][sync.pairs]
    dx, dy = sync.ax - sync.bx, sync.ay - sync.by
    hit = (sync.hi == sync.lo) & (dx * dx + dy * dy <= threshold + 1e-12)
    some, _, _ = _windows(sync.a_coef, sync.b_coef, sync.c_coef,
                          threshold[sync.owner[sync.seg]])
    hit[sync.owner[sync.seg][some]] = True
    values = np.zeros(len(a), dtype=np.bool_)
    values[rows[sync.pairs]] = hit
    return values, ~can


def tdwithin_rows(a: TempCSR, b: TempCSR, dist: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``t_dwithin(a_row, b_row, dist_row)`` per row, as ``tbool``
    objects (``None`` where the rows share no time): ``(values,
    declined)``.  The segments and their within-distance windows come
    from the arrays; a pair's result is assembled by the scalar
    method's own :func:`segment_pieces` / :func:`tbool_from_pieces`."""
    can = _dwithin_rows(a, b, dist)
    rows = np.flatnonzero(can)
    sync = _Sync(a, b, rows)
    dist = dist[rows][sync.pairs]
    values = np.empty(len(a), dtype=object)
    out = rows[sync.pairs]

    seg_pair = sync.owner[sync.seg]
    some, lo, hi = _windows(sync.a_coef, sync.b_coef, sync.c_coef,
                            (dist * dist)[seg_pair])
    windowed = np.zeros(len(out), dtype=np.bool_)
    windowed[seg_pair[some]] = True

    # A zero-width common span is one instant; a pair never within the
    # distance is one false piece over the span.
    dx, dy = sync.ax - sync.bx, sync.ay - sync.by
    instant = sync.hi == sync.lo
    for k in np.flatnonzero(instant).tolist():
        values[out[k]] = TInstant(
            TBOOL, points_within(float(dx[k]), float(dy[k]), float(dist[k])),
            int(sync.lo[k]),
        )
    for k in np.flatnonzero(~instant & ~windowed).tolist():
        values[out[k]] = tbool_from_pieces([(
            Span(int(sync.lo[k]), int(sync.hi[k]), bool(sync.lo_inc[k]),
                 bool(sync.hi_inc[k]), TSTZ), False,
        )])

    # The rest, segment by segment.
    t0, t1 = sync.times[sync.seg], sync.times[sync.seg + 1]
    first = np.ones(len(sync.seg), dtype=np.bool_)
    first[1:] = seg_pair[1:] != seg_pair[:-1]
    final = np.ones(len(sync.seg), dtype=np.bool_)
    final[:-1] = first[1:]
    lower_inc = np.where(first, sync.lo_inc[seg_pair], True)
    upper_inc = np.where(final, sync.hi_inc[seg_pair], False)
    starts = np.flatnonzero(first)
    stops = np.append(starts[1:], len(sync.seg))
    for begin, stop in zip(starts[windowed[seg_pair[starts]]].tolist(),
                           stops[windowed[seg_pair[starts]]].tolist()):
        pieces = []
        for k in range(begin, stop):
            pieces.extend(segment_pieces(
                int(t0[k]), int(t1[k]), bool(lower_inc[k]),
                bool(upper_inc[k]),
                [(float(lo[k]), float(hi[k]))] if some[k] else [],
            ))
        values[out[seg_pair[begin]]] = tbool_from_pieces(pieces)
    return values, ~can
