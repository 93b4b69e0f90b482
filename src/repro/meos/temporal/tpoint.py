"""Spatial operations on temporal points (``tgeompoint``).

Implements the trajectory accessors and spatiotemporal relationships the
paper's use cases and benchmark queries exercise: ``trajectory``,
``length``, ``speed``, ``atGeometry``, ``atStbox``, ``eIntersects``,
``tDwithin`` / ``eDwithin`` / ``aDwithin``, ``distance`` (temporal), and
SRID transformation.
"""

from __future__ import annotations

import math

from ... import geo
from ..basetypes import TSTZ
from ..boxes import STBox
from ..errors import MeosError, MeosTypeError
from ..span import Span
from ..spanset import SpanSet
from ..timetypes import USECS_PER_SEC
from .base import Temporal, TInstant, TSequence, _pack_sequences
from .interp import Interp
from .lifted import (
    quadratic_below,
    segment_distance_quadratic,
    synchronize,
    tbool_from_pieces,
)
from .ttypes import SPATIAL_TYPES, TBOOL, TFLOAT


def _require_spatial(value: Temporal) -> None:
    if value.ttype not in SPATIAL_TYPES:
        raise MeosTypeError(f"{value.ttype.name} is not a spatial type")


# ---------------------------------------------------------------------------
# Trajectory and measures
# ---------------------------------------------------------------------------


def trajectory(tpoint: Temporal) -> geo.Geometry:
    """The geometry traversed by a temporal point (MEOS ``trajectory``)."""
    _require_spatial(tpoint)
    srid = tpoint.srid()
    if isinstance(tpoint, TInstant):
        return tpoint.value
    if tpoint.interp is Interp.DISCRETE:
        distinct: list[geo.Point] = []
        seen: set[tuple[float, float]] = set()
        for inst in tpoint.instants():
            key = (inst.value.x, inst.value.y)
            if key not in seen:
                seen.add(key)
                distinct.append(inst.value)
        if len(distinct) == 1:
            return distinct[0]
        return geo.MultiPoint(distinct, srid)
    parts: list[geo.Geometry] = []
    for seq in tpoint.sequences():
        coords: list[tuple[float, float]] = []
        for inst in seq.instants():
            pt = (inst.value.x, inst.value.y)
            if not coords or coords[-1] != pt:
                coords.append(pt)
        if len(coords) == 1:
            parts.append(geo.Point(coords[0][0], coords[0][1], srid))
        else:
            parts.append(geo.LineString(coords, srid))
    if len(parts) == 1:
        return parts[0]
    return geo.collect(parts)


def length(tpoint: Temporal) -> float:
    """Distance traversed (0 for step/discrete interpolation)."""
    _require_spatial(tpoint)
    if tpoint.interp is not Interp.LINEAR:
        return 0.0
    # sqrt(dx*dx + dy*dy) added left to right: the spelling
    # kernels.length_rows reproduces bit for bit (NumPy has no hypot
    # that rounds like math.hypot).
    total = 0.0
    for seq in tpoint.sequences():
        points = [inst.value for inst in seq.instants()]
        for a, b in zip(points, points[1:]):
            dx = a.x - b.x
            dy = a.y - b.y
            total += math.sqrt(dx * dx + dy * dy)
    return total


def cumulative_length(tpoint: Temporal) -> Temporal:
    """Cumulative traversed distance as a tfloat (MEOS ``cumulativeLength``)."""
    _require_spatial(tpoint)
    sequences: list[TSequence] = []
    running = 0.0
    for seq in tpoint.sequences():
        instants = seq.instants()
        values = [running]
        for a, b in zip(instants, instants[1:]):
            if seq.interp is Interp.LINEAR:
                running += a.value.distance_to(b.value)
            values.append(running)
        sequences.append(
            TSequence(
                TFLOAT,
                [
                    TInstant(TFLOAT, v, inst.t)
                    for v, inst in zip(values, instants)
                ],
                seq.lower_inc,
                seq.upper_inc,
                Interp.LINEAR,
            )
        )
    return _pack_sequences(TFLOAT, sequences, Interp.LINEAR)


def speed(tpoint: Temporal) -> Temporal | None:
    """Speed in units/second as a step tfloat (MEOS ``speed``)."""
    _require_spatial(tpoint)
    if tpoint.interp is not Interp.LINEAR:
        raise MeosError("speed() requires linear interpolation")
    sequences: list[TSequence] = []
    for seq in tpoint.sequences():
        instants = seq.instants()
        if len(instants) < 2:
            continue
        speed_instants: list[TInstant] = []
        for a, b in zip(instants, instants[1:]):
            seconds = (b.t - a.t) / USECS_PER_SEC
            value = a.value.distance_to(b.value) / seconds
            speed_instants.append(TInstant(TFLOAT, value, a.t))
        speed_instants.append(
            TInstant(TFLOAT, speed_instants[-1].value, instants[-1].t)
        )
        sequences.append(
            TSequence(TFLOAT, speed_instants, seq.lower_inc, seq.upper_inc,
                      Interp.STEP)
        )
    if not sequences:
        return None
    return _pack_sequences(TFLOAT, sequences, Interp.STEP)


def azimuth(tpoint: Temporal) -> Temporal | None:
    """Heading of movement per segment, radians clockwise from north,
    as a step tfloat (MEOS ``azimuth``)."""
    _require_spatial(tpoint)
    if tpoint.interp is not Interp.LINEAR:
        raise MeosError("azimuth() requires linear interpolation")
    sequences: list[TSequence] = []
    for seq in tpoint.sequences():
        instants = seq.instants()
        if len(instants) < 2:
            continue
        values: list[TInstant] = []
        for a, b in zip(instants, instants[1:]):
            heading = math.atan2(b.value.x - a.value.x,
                                 b.value.y - a.value.y) % (2 * math.pi)
            values.append(TInstant(TFLOAT, heading, a.t))
        values.append(TInstant(TFLOAT, values[-1].value, instants[-1].t))
        sequences.append(
            TSequence(TFLOAT, values, seq.lower_inc, seq.upper_inc,
                      Interp.STEP)
        )
    if not sequences:
        return None
    return _pack_sequences(TFLOAT, sequences, Interp.STEP)


def direction(tpoint: Temporal) -> float:
    """Azimuth from the first to the last position (MEOS ``direction``)."""
    _require_spatial(tpoint)
    start = tpoint.start_value()
    end = tpoint.end_value()
    return math.atan2(end.x - start.x, end.y - start.y) % (2 * math.pi)


def convex_hull(tpoint: Temporal) -> geo.Geometry:
    """Convex hull of the traversed geometry (MEOS ``convexHull``)."""
    _require_spatial(tpoint)
    return geo.convex_hull(trajectory(tpoint))


def twcentroid(tpoint: Temporal) -> geo.Point:
    """Time-weighted centroid of a temporal point."""
    _require_spatial(tpoint)
    instants = tpoint.instants()
    if len(instants) == 1:
        return instants[0].value
    weight_sum = 0.0
    cx = cy = 0.0
    for seq in tpoint.sequences():
        seq_instants = seq.instants()
        if len(seq_instants) == 1:
            continue
        for a, b in zip(seq_instants, seq_instants[1:]):
            w = b.t - a.t
            cx += (a.value.x + b.value.x) / 2 * w
            cy += (a.value.y + b.value.y) / 2 * w
            weight_sum += w
    if weight_sum == 0.0:
        xs = [i.value.x for i in instants]
        ys = [i.value.y for i in instants]
        return geo.Point(sum(xs) / len(xs), sum(ys) / len(ys), tpoint.srid())
    return geo.Point(cx / weight_sum, cy / weight_sum, tpoint.srid())


# ---------------------------------------------------------------------------
# Restriction to geometries and boxes
# ---------------------------------------------------------------------------


def at_geometry(tpoint: Temporal, geom: geo.Geometry) -> Temporal | None:
    """Restrict a temporal point to the (time it spends inside a) geometry."""
    _require_spatial(tpoint)
    if geom.is_empty():
        return None
    if isinstance(tpoint, TInstant):
        if geo.intersects(geom, tpoint.value):
            return tpoint
        return None
    if tpoint.interp is Interp.DISCRETE:
        kept = [
            inst for inst in tpoint.instants()
            if geo.intersects(geom, inst.value)
        ]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return TSequence(tpoint.ttype, kept, True, True, Interp.DISCRETE)
    pieces: list[TSequence] = []
    for seq in tpoint.sequences():
        pieces.extend(_sequence_at_geometry(seq, geom))
    return _pack_sequences(tpoint.ttype, pieces, tpoint.interp)


def _sequence_at_geometry(
    seq: TSequence, geom: geo.Geometry
) -> list[TSequence]:
    instants = seq.instants()
    ttype = seq.ttype
    if len(instants) == 1:
        if geo.intersects(geom, instants[0].value):
            return [TSequence(ttype, instants, True, True, seq.interp)]
        return []
    spans: list[Span] = []
    for i in range(len(instants) - 1):
        a, b = instants[i], instants[i + 1]
        if seq.interp is Interp.STEP:
            if geo.intersects(geom, a.value):
                spans.append(Span(a.t, b.t, True, False, TSTZ))
            if i == len(instants) - 2 and seq.upper_inc and geo.intersects(
                geom, b.value
            ):
                spans.append(Span.make(b.t, b.t, TSTZ, True, True))
            continue
        a_pt = (a.value.x, a.value.y)
        b_pt = (b.value.x, b.value.y)
        for lo, hi in geo.clip_segment_to_geometry(a_pt, b_pt, geom):
            t_lo = a.t + round(lo * (b.t - a.t))
            t_hi = a.t + round(hi * (b.t - a.t))
            if t_lo == t_hi:
                spans.append(Span.make(t_lo, t_lo, TSTZ, True, True))
            else:
                spans.append(Span(t_lo, t_hi, True, True, TSTZ))
    if not spans:
        return []
    spanset = SpanSet.from_spans(spans)
    restricted = seq.at_time(spanset)
    if restricted is None:
        return []
    if isinstance(restricted, TInstant):
        return restricted.sequences()
    return restricted.sequences()


def at_stbox(tpoint: Temporal, box: STBox) -> Temporal | None:
    """Restrict a temporal point to a spatiotemporal box."""
    _require_spatial(tpoint)
    result: Temporal | None = tpoint
    if box.has_t:
        result = result.at_time(box.tspan)
        if result is None:
            return None
    if box.has_x:
        result = at_geometry(result, box.to_geometry())
    return result


def minus_geometry(tpoint: Temporal, geom: geo.Geometry) -> Temporal | None:
    hit = at_geometry(tpoint, geom)
    if hit is None:
        return tpoint
    return tpoint.minus_time(hit.time())


# ---------------------------------------------------------------------------
# Spatiotemporal relationships
# ---------------------------------------------------------------------------


def e_intersects(tpoint: Temporal, geom: geo.Geometry) -> bool:
    """Ever-intersects between a temporal point and a geometry."""
    _require_spatial(tpoint)
    return geo.intersects(trajectory(tpoint), geom)


def a_intersects(tpoint: Temporal, geom: geo.Geometry) -> bool:
    """Always-intersects between a temporal point and a geometry."""
    hit = at_geometry(tpoint, geom)
    if hit is None:
        return False
    return hit.time().contains_spanset(tpoint.time())


def t_intersects(tpoint: Temporal, geom: geo.Geometry) -> Temporal | None:
    """Temporal boolean of intersection with a static geometry."""
    _require_spatial(tpoint)
    hit = at_geometry(tpoint, geom)
    own_time = tpoint.time()
    pieces: list[tuple[Span, bool]] = []
    if hit is not None:
        for span in hit.time():
            pieces.append((span, True))
        rest = own_time.minus(hit.time())
    else:
        rest = own_time
    if rest is not None:
        for span in rest:
            pieces.append((span, False))
    return tbool_from_pieces(pieces)


def _dwithin_threshold(a: Temporal, b: Temporal, dist: float) -> float:
    """The squared distance of a ``*Dwithin`` call, once its arguments
    are checked the way MEOS checks them."""
    _require_spatial(a)
    _require_spatial(b)
    if float(dist) < 0:
        raise MeosError(f"distance must not be negative: {dist}")
    srid_a, srid_b = a.srid(), b.srid()
    if srid_a and srid_b and srid_a != srid_b:
        raise MeosError(f"SRID mismatch: {srid_a} vs {srid_b}")
    return float(dist) * float(dist)


def t_dwithin(a: Temporal, b: Temporal, dist: float) -> Temporal | None:
    """Temporal ``tDwithin``: when are two temporal points within ``dist``.

    For each synchronized segment the squared distance is a quadratic in
    time; the within-threshold window is obtained by solving it (paper
    §6.3, Query 10).
    """
    threshold_sq = _dwithin_threshold(a, b, dist)
    pieces: list[tuple[Span, bool]] = []
    instant_results: list[TInstant] = []
    any_segment = False
    for seg in synchronize(a, b):
        any_segment = True
        if seg.t0 == seg.t1:
            within = points_within(seg.a0.x - seg.b0.x,
                                   seg.a0.y - seg.b0.y, dist)
            instant_results.append(TInstant(TBOOL, within, seg.t0))
            continue
        a_coef, b_coef, c_coef = segment_distance_quadratic(seg)
        windows = quadratic_below(a_coef, b_coef, c_coef, threshold_sq)
        pieces.extend(segment_pieces(
            seg.t0, seg.t1, seg.lower_inc, seg.upper_inc, windows
        ))
    if instant_results and not pieces:
        if len(instant_results) == 1:
            return instant_results[0]
        return TSequence(TBOOL, instant_results, True, True, Interp.DISCRETE)
    if not any_segment:
        return None
    return tbool_from_pieces(pieces)


def segment_pieces(
    t0: int, t1: int, lower_inc: bool, upper_inc: bool,
    windows: list[tuple[float, float]],
) -> list[tuple[Span, bool]]:
    """One synchronized segment of ``tDwithin`` as (span, within) pieces:
    ``windows`` are the within-threshold stretches in normalized time."""
    span_total = Span(t0, t1, lower_inc, upper_inc, TSTZ)
    if not windows:
        return [(span_total, False)]
    pieces: list[tuple[Span, bool]] = []
    duration_us = t1 - t0
    covered: list[Span] = []
    for lo, hi in windows:
        t_lo = t0 + round(lo * duration_us)
        t_hi = t0 + round(hi * duration_us)
        lo_inc = lower_inc if t_lo == t0 else True
        hi_inc = upper_inc if t_hi == t1 else True
        if t_lo == t_hi:
            if lo_inc and hi_inc:
                window_span = Span.make(t_lo, t_lo, TSTZ, True, True)
            else:
                continue
        else:
            window_span = Span(t_lo, t_hi, lo_inc, hi_inc, TSTZ)
        pieces.append((window_span, True))
        covered.append(window_span)
    remainder = SpanSet.from_spans([span_total]).minus(
        SpanSet.from_spans(covered)
    ) if covered else SpanSet.from_spans([span_total])
    if remainder is not None:
        for span in remainder:
            pieces.append((span, False))
    return pieces


def points_within(dx: float, dy: float, dist: float) -> bool:
    """Whether two positions ``(dx, dy)`` apart are within ``dist``."""
    return math.sqrt(dx * dx + dy * dy) <= dist + 1e-9


def e_dwithin(a: Temporal, b: Temporal, dist: float) -> bool:
    """Ever within distance (``eDwithin``, use case 6 of §6.2)."""
    threshold_sq = _dwithin_threshold(a, b, dist)
    for seg in synchronize(a, b):
        a_coef, b_coef, c_coef = segment_distance_quadratic(seg)
        if seg.t0 == seg.t1:
            if c_coef <= threshold_sq + 1e-12:
                return True
            continue
        if quadratic_below(a_coef, b_coef, c_coef, threshold_sq):
            return True
    return False


def a_dwithin(a: Temporal, b: Temporal, dist: float) -> bool:
    """Always within distance over the common definition time."""
    threshold_sq = _dwithin_threshold(a, b, dist)
    found = False
    for seg in synchronize(a, b):
        found = True
        a_coef, b_coef, c_coef = segment_distance_quadratic(seg)
        # The quadratic opens upward: its maximum on [0,1] is at an endpoint.
        at_start = c_coef
        at_end = a_coef + b_coef + c_coef
        if max(at_start, at_end) > threshold_sq + 1e-12:
            return False
    return found


def temporal_distance(a: Temporal, b: Temporal) -> Temporal | None:
    """Distance between two temporal points as a tfloat.

    The true distance on a segment is the square root of a quadratic; like
    MEOS we insert the interior minimum as an extra instant and use linear
    interpolation in between.
    """
    _require_spatial(a)
    _require_spatial(b)
    sequences: list[TSequence] = []
    instant_results: list[TInstant] = []
    for seg in synchronize(a, b):
        if seg.t0 == seg.t1:
            instant_results.append(
                TInstant(TFLOAT, seg.a0.distance_to(seg.b0), seg.t0)
            )
            continue
        a_coef, b_coef, c_coef = segment_distance_quadratic(seg)
        times = [0.0, 1.0]
        if a_coef > 1e-18:
            s_min = -b_coef / (2.0 * a_coef)
            if 0.0 < s_min < 1.0:
                times = [0.0, s_min, 1.0]
        duration_us = seg.t1 - seg.t0
        instants = []
        for s in times:
            value = math.sqrt(max(0.0, a_coef * s * s + b_coef * s + c_coef))
            instants.append(
                TInstant(TFLOAT, value, seg.t0 + round(s * duration_us))
            )
        dedup = [instants[0]]
        for inst in instants[1:]:
            if inst.t > dedup[-1].t:
                dedup.append(inst)
        if len(dedup) == 1:
            sequences.append(
                TSequence(TFLOAT, dedup, True, True, Interp.LINEAR)
            )
        else:
            sequences.append(
                TSequence(TFLOAT, dedup, seg.lower_inc, seg.upper_inc,
                          Interp.LINEAR)
            )
    if instant_results and not sequences:
        if len(instant_results) == 1:
            return instant_results[0]
        return TSequence(TFLOAT, instant_results, True, True, Interp.DISCRETE)
    if not sequences:
        return None
    return _pack_sequences(TFLOAT, sequences, Interp.LINEAR)


def nearest_approach_distance(a: Temporal, b: Temporal) -> float | None:
    """Minimum distance ever between two temporal points."""
    best: float | None = None
    for seg in synchronize(a, b):
        a_coef, b_coef, c_coef = segment_distance_quadratic(seg)
        candidates = [c_coef, a_coef + b_coef + c_coef]
        if seg.t0 != seg.t1 and a_coef > 1e-18:
            s_min = -b_coef / (2.0 * a_coef)
            if 0.0 < s_min < 1.0:
                candidates.append(
                    a_coef * s_min * s_min + b_coef * s_min + c_coef
                )
        low = math.sqrt(max(0.0, min(candidates)))
        if best is None or low < best:
            best = low
    return best


# ---------------------------------------------------------------------------
# Trajectory simplification (MEOS minDistSimplify / DouglasPeuckerSimplify)
# ---------------------------------------------------------------------------


def min_dist_simplify(tpoint: Temporal, distance: float) -> Temporal:
    """Drop instants closer than ``distance`` to the last kept instant."""
    _require_spatial(tpoint)
    if isinstance(tpoint, TInstant):
        return tpoint
    sequences: list[TSequence] = []
    for seq in tpoint.sequences():
        instants = seq.instants()
        kept = [instants[0]]
        for inst in instants[1:-1]:
            if inst.value.distance_to(kept[-1].value) >= distance:
                kept.append(inst)
        if len(instants) > 1:
            kept.append(instants[-1])
        sequences.append(
            TSequence(tpoint.ttype, kept, seq.lower_inc, seq.upper_inc,
                      seq.interp, normalize=False)
        )
    return _pack_sequences(tpoint.ttype, sequences, tpoint.interp)


def douglas_peucker_simplify(
    tpoint: Temporal, tolerance: float
) -> Temporal:
    """Classic Douglas–Peucker on each sequence's vertex chain.

    Keeps every instant whose point deviates more than ``tolerance`` from
    the simplified chain; timestamps ride along with their points.
    """
    _require_spatial(tpoint)
    if isinstance(tpoint, TInstant):
        return tpoint
    sequences: list[TSequence] = []
    for seq in tpoint.sequences():
        instants = seq.instants()
        if len(instants) <= 2:
            sequences.append(seq)
            continue
        keep = [False] * len(instants)
        keep[0] = keep[-1] = True
        _dp_recurse(instants, 0, len(instants) - 1, tolerance, keep)
        kept = [inst for inst, flag in zip(instants, keep) if flag]
        sequences.append(
            TSequence(tpoint.ttype, kept, seq.lower_inc, seq.upper_inc,
                      seq.interp, normalize=False)
        )
    return _pack_sequences(tpoint.ttype, sequences, tpoint.interp)


def _dp_recurse(instants, lo: int, hi: int, tolerance: float,
                keep: list[bool]) -> None:
    if hi <= lo + 1:
        return
    a = (instants[lo].value.x, instants[lo].value.y)
    b = (instants[hi].value.x, instants[hi].value.y)
    worst = -1.0
    worst_idx = -1
    for i in range(lo + 1, hi):
        p = (instants[i].value.x, instants[i].value.y)
        d = geo.algorithms.point_segment_distance(p, a, b)
        if d > worst:
            worst = d
            worst_idx = i
    if worst > tolerance:
        keep[worst_idx] = True
        _dp_recurse(instants, lo, worst_idx, tolerance, keep)
        _dp_recurse(instants, worst_idx, hi, tolerance, keep)


# ---------------------------------------------------------------------------
# SRID handling
# ---------------------------------------------------------------------------


def transform(tpoint: Temporal, target_srid: int) -> Temporal:
    """Reproject every instant of a temporal point."""
    _require_spatial(tpoint)
    return tpoint.map_values(lambda v: geo.transform(v, target_srid))


def set_srid(tpoint: Temporal, srid: int) -> Temporal:
    _require_spatial(tpoint)
    return tpoint.map_values(lambda v: v.with_srid(srid))
