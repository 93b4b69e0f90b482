"""Table statistics and selectivity estimation (``ANALYZE`` support).

``analyze_table`` makes one column-wise pass over a table and distills,
per column: null count, the distinct count, min/max, an
equi-width histogram over the numeric image of the values (numbers and
timestamps), and — for spatial/temporal columns whose values carry a
bounding box (STBox, TBox, temporal points, time spans, geometries) —
per-dimension extent histograms of the box centers plus the mean
half-width.  ``ANALYZE`` runs it, and so does the connection before it
plans a join over a table whose statistics :func:`needs_analyze`.

The ``*_selectivity`` functions turn those summaries into predicate
selectivities for the cost-based optimizer.  Every estimator returns a
value clamped to ``[0, 1]`` via :func:`clamp01` (enforced by lint rule
ANL010): a selectivity outside the unit interval silently corrupts every
cardinality product built on top of it.

The module is engine-neutral on purpose: payload boxes are
:mod:`repro.quack.boxes`' (duck-typed, no ``repro.meos`` import), and a
pgsim heap is transposed into vectors, so row tables analyze identically
through the shared frontend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .boxes import AXES, bounding_box, column_boxes
from .vector import DataChunk, Vector

#: Number of equi-width buckets in value and box-center histograms.
HISTOGRAM_BUCKETS = 32

#: PostgreSQL's autovacuum analyze rule (``autovacuum_analyze_threshold``
#: and ``autovacuum_analyze_scale_factor``): statistics are stale once
#: more rows were inserted, updated or deleted since they were gathered
#: than this base plus this share of the row count they saw.
ANALYZE_THRESHOLD = 50
ANALYZE_SCALE_FACTOR = 0.1

#: Fallback selectivities when a column has no usable statistics.
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_OVERLAP_SELECTIVITY = 0.05
DEFAULT_CONTAINS_SELECTIVITY = 0.01
DEFAULT_RESIDUAL_SELECTIVITY = 0.25

#: Rows a join leaf that is no table (a CTE scan, a derived table, a
#: table function, a LEFT JOIN) counts as when the optimizer set no
#: estimate on it.
DEFAULT_LEAF_ROWS = 1000


def clamp01(value: float) -> float:
    """Clamp a selectivity into ``[0, 1]`` (NaN becomes the midpoint)."""
    value = float(value)
    if value != value:  # NaN
        return 0.5
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


# ---------------------------------------------------------------------------
# Statistics containers
# ---------------------------------------------------------------------------


@dataclass
class NumericHistogram:
    """Equi-width histogram over ``[lo, hi]`` with interpolated lookups."""

    lo: float
    hi: float
    counts: list[int]
    total: int

    def fraction_leq(self, value: float) -> float:
        """Fraction of observations ``<= value`` (linear inside buckets)."""
        if self.total <= 0:
            return 0.5
        if value < self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        width = (self.hi - self.lo) / len(self.counts)
        if width <= 0.0:
            return 1.0
        position = (value - self.lo) / width
        bucket = min(int(position), len(self.counts) - 1)
        below = sum(self.counts[:bucket])
        inside = self.counts[bucket] * (position - bucket)
        return (below + inside) / self.total

    def fraction_between(self, low: float, high: float) -> float:
        if high < low:
            return 0.0
        return max(0.0, self.fraction_leq(high) - self.fraction_leq(low))


@dataclass
class DimensionStats:
    """One spatial/temporal axis of a box-valued column."""

    lo: float
    hi: float
    center_histogram: NumericHistogram
    mean_half_width: float


@dataclass
class ColumnStats:
    name: str
    row_count: int = 0
    null_count: int = 0
    distinct_count: int = 0
    min_value: Any = None
    max_value: Any = None
    #: histogram over the numeric image of the values (numbers,
    #: timestamps); ``None`` when the column has no numeric image
    histogram: NumericHistogram | None = None
    #: per-axis extent statistics for box-valued columns ('x'/'y'/'t')
    box_dimensions: dict[str, DimensionStats] = field(default_factory=dict)
    #: how many non-null values yielded a bounding box
    box_count: int = 0

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    def null_fraction(self) -> float:
        if self.row_count <= 0:
            return 0.0
        return self.null_count / self.row_count


@dataclass
class TableStats:
    """What ``ANALYZE`` stores on ``Table.stats``."""

    table_name: str
    row_count: int
    columns: list[ColumnStats]

    def column(self, index: int) -> ColumnStats | None:
        if 0 <= index < len(self.columns):
            return self.columns[index]
        return None


# ---------------------------------------------------------------------------
# Value coercion (duck-typed, engine-neutral)
# ---------------------------------------------------------------------------


def as_number(value: Any) -> float | None:
    """The numeric image of a value: numbers as-is, datetimes as epoch
    seconds, everything else ``None``."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    timestamp = getattr(value, "timestamp", None)
    if callable(timestamp):
        try:
            return float(timestamp())
        except Exception:
            return None
    return None


# ---------------------------------------------------------------------------
# ANALYZE: one column-wise pass over the table
# ---------------------------------------------------------------------------


def needs_analyze(table: Any) -> bool:
    """PostgreSQL's autovacuum rule: a table needs statistics when it has
    none, or when more rows changed since they were gathered than
    :data:`ANALYZE_THRESHOLD` plus :data:`ANALYZE_SCALE_FACTOR` of the
    row count they saw."""
    stats = table.stats
    return stats is None or table.changes_since_analyze > (
        ANALYZE_THRESHOLD + ANALYZE_SCALE_FACTOR * stats.row_count
    )


def analyze_table(table: Any) -> TableStats:
    """One column-wise pass over ``table``; returns the statistics to
    store on ``table.stats``."""
    columns = [
        _column_stats(name, ltype, vectors)
        for name, ltype, vectors in zip(
            table.column_names, table.column_types, _column_vectors(table)
        )
    ]
    return TableStats(
        table_name=table.name,
        row_count=columns[0].row_count,
        columns=columns,
    )


def _column_vectors(table: Any) -> list[list[Vector]]:
    """Each column's live rows as vectors: a columnar table's scan chunks
    as they are (derived views cached on the stored segments stay
    theirs), a heap's rows transposed into one vector per column with
    out-of-line datums detoasted."""
    scanned = list(table.scan())
    if scanned and not isinstance(scanned[0][0], DataChunk):
        rows = [row for _, row in scanned]
        return [
            [Vector.from_values(ltype, [_detoast(row[i]) for row in rows])]
            for i, ltype in enumerate(table.column_types)
        ]
    return [[chunk.vectors[i] for chunk, _ in scanned]
            for i in range(len(table.column_types))]


def _column_stats(name: str, ltype: Any,
                  vectors: list[Vector]) -> ColumnStats:
    rows = sum(len(v) for v in vectors)
    valid = sum(int(np.count_nonzero(v.validity)) for v in vectors)
    stats = ColumnStats(name=name, row_count=rows, null_count=rows - valid)
    if not valid:
        return stats
    if ltype.physical != "object":
        _native_stats(stats, np.concatenate(
            [v.data[v.validity] for v in vectors]
        ))
    elif ltype.is_user:
        _payload_stats(stats, vectors)
    else:
        _object_stats(stats, [
            value for v in vectors for value in v.data[v.validity].tolist()
        ])
    return stats


def _native_stats(stats: ColumnStats, values: np.ndarray) -> None:
    """Booleans, integers, doubles and timestamps, off one sort.  NaN
    (sorted last) counts as one distinct value but is no bound; only
    finite values enter the histogram."""
    ordered = np.sort(values)
    nans = 0
    if ordered.dtype.kind == "f":
        nans = int(np.count_nonzero(np.isnan(ordered)))
        ordered = ordered[:len(ordered) - nans]
    stats.distinct_count = (
        int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        + (len(ordered) > 0) + (nans > 0)
    )
    if len(ordered):
        stats.min_value = ordered[0].item()
        stats.max_value = ordered[-1].item()
    stats.histogram = _build_histogram(ordered.astype(np.float64))


def _object_stats(stats: ColumnStats, values: list) -> None:
    """Built-in object columns (text, blobs, intervals, lists)."""
    if set(map(type, values)) == {str}:
        keys: list = values
        numbers: list[float] = []
    else:
        keys = [_hash_key(value) for value in values]
        numbers = [n for n in map(as_number, values) if n is not None]
    stats.distinct_count = len(set(keys))
    try:
        stats.min_value, stats.max_value = min(values), max(values)
    except TypeError:
        pass  # unorderable mix: no bounds
    stats.histogram = _build_histogram(np.array(numbers, dtype=np.float64))


def _payload_stats(stats: ColumnStats, vectors: list[Vector]) -> None:
    """Extension payloads: every value counts as distinct (nothing is
    hashed), and the box histograms read the column's boxes
    (:func:`column_boxes`: the type codec's arrays where it has them,
    so no payload object is built or asked for its box)."""
    stats.distinct_count = stats.non_null_count
    parts = [column_boxes(v) for v in vectors]
    held = [boxes.ok & v.validity for boxes, v in zip(parts, vectors)]
    stats.box_count = int(sum(np.count_nonzero(has) for has in held))
    for axis in AXES:
        lo, hi = (np.concatenate([boxes.bounds(axis)[k][has]
                                  for boxes, has in zip(parts, held)])
                  for k in (0, 1))
        dimension = _dimension_stats(lo, hi)
        if dimension is not None:
            stats.box_dimensions[axis] = dimension


def _dimension_stats(lo: np.ndarray, hi: np.ndarray) -> DimensionStats | None:
    centers = (lo + hi) / 2.0
    widths = (hi - lo) / 2.0
    finite = np.isfinite(centers) & np.isfinite(widths)
    centers, widths = centers[finite], widths[finite]
    histogram = _build_histogram(centers)
    if histogram is None:
        return None
    return DimensionStats(
        lo=float(centers.min() - widths.max()),
        hi=float(centers.max() + widths.max()),
        center_histogram=histogram,
        mean_half_width=float(widths.mean()),
    )


def _hash_key(value: Any) -> Any:
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _build_histogram(values: np.ndarray) -> NumericHistogram | None:
    """Equi-width histogram over the finite ``values`` (NaN and the
    infinities have no bucket)."""
    values = values[np.isfinite(values)]
    if not len(values):
        return None
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return NumericHistogram(lo, hi, [len(values)], len(values))
    width = (hi - lo) / HISTOGRAM_BUCKETS
    buckets = np.minimum(((values - lo) / width).astype(np.int64),
                         HISTOGRAM_BUCKETS - 1)
    counts = np.bincount(buckets, minlength=HISTOGRAM_BUCKETS).tolist()
    return NumericHistogram(lo, hi, counts, len(values))


def _detoast(value: Any) -> Any:
    """Unwrap a row-engine varlena datum (duck-typed so quack does not
    import pgsim); inline values pass through."""
    load = getattr(value, "load", None)
    if callable(load) and hasattr(value, "blob"):
        return load()
    return value


# ---------------------------------------------------------------------------
# Selectivity estimators (every return clamped — lint ANL010)
# ---------------------------------------------------------------------------


def comparison_selectivity(stats: ColumnStats | None, op_name: str,
                           constant: Any) -> float:
    """Selectivity of ``column <op> constant`` for =, !=, <, <=, >, >=."""
    if stats is None or stats.non_null_count <= 0:
        return clamp01(default_selectivity(op_name))
    if op_name == "=":
        if stats.distinct_count > 0:
            return clamp01(1.0 / stats.distinct_count)
        return clamp01(DEFAULT_EQ_SELECTIVITY)
    if op_name in ("!=", "<>"):
        if stats.distinct_count > 0:
            return clamp01(1.0 - 1.0 / stats.distinct_count)
        return clamp01(1.0 - DEFAULT_EQ_SELECTIVITY)
    number = as_number(constant)
    if number is None or stats.histogram is None:
        return clamp01(default_selectivity(op_name))
    below = stats.histogram.fraction_leq(number)
    if op_name in ("<", "<="):
        return clamp01(below)
    if op_name in (">", ">="):
        return clamp01(1.0 - below)
    return clamp01(default_selectivity(op_name))


def between_selectivity(stats: ColumnStats | None, low: Any,
                        high: Any) -> float:
    """Selectivity of ``column BETWEEN low AND high``."""
    lo = as_number(low)
    hi = as_number(high)
    if (stats is None or stats.histogram is None
            or lo is None or hi is None):
        return clamp01(DEFAULT_RANGE_SELECTIVITY)
    return clamp01(stats.histogram.fraction_between(lo, hi))


def overlap_selectivity(stats: ColumnStats | None, probe: Any) -> float:
    """Selectivity of ``column && probe`` (also the eIntersects bounding
    box prefilter): per shared axis, the fraction of box centers within
    the probe interval expanded by the mean half-width, multiplied under
    an independence assumption."""
    fraction = _box_fraction(stats, probe,
                             lambda lo, hi, half: (lo - half, hi + half))
    return clamp01(DEFAULT_OVERLAP_SELECTIVITY if fraction is None
                   else fraction)


def containment_selectivity(stats: ColumnStats | None, probe: Any,
                            column_contains_probe: bool) -> float:
    """Selectivity of ``column @> probe`` (``column_contains_probe``)
    or ``column <@ probe``: the center must sit in the interval where a
    mean-width box satisfies the containment on every shared axis."""
    if column_contains_probe:
        fraction = _box_fraction(stats, probe,
                                 lambda lo, hi, half: (hi - half, lo + half))
    else:
        fraction = _box_fraction(stats, probe,
                                 lambda lo, hi, half: (lo + half, hi - half))
    return clamp01(DEFAULT_CONTAINS_SELECTIVITY if fraction is None
                   else fraction)


def _box_fraction(stats: ColumnStats | None, probe: Any,
                  window) -> float | None:
    """The share of the column's box centers inside ``window(lo, hi,
    mean half-width)`` of the probe's interval, multiplied over the
    shared axes and floored at one row; None when no axis is shared."""
    box = bounding_box(probe)
    if stats is None or box is None or not stats.box_dimensions:
        return None
    fraction = 1.0
    shared = False
    for axis, dim in stats.box_dimensions.items():
        interval = box[0].get(axis)
        if interval is None:
            continue
        shared = True
        fraction *= dim.center_histogram.fraction_between(
            *window(*interval, dim.mean_half_width)
        )
    return max(fraction, _floor(stats)) if shared else None


def overlap_join_selectivity(left: ColumnStats | None,
                             right: ColumnStats | None) -> float:
    """Selectivity of ``left_col && right_col`` over the cross product:
    per shared axis, the share of box pairs, centers drawn from the two
    center histograms, whose centers lie closer than the two mean
    half-widths combined; multiplied under independence and floored at
    one row."""
    if left is None or right is None:
        return clamp01(DEFAULT_OVERLAP_SELECTIVITY)
    fraction = 1.0
    shared = False
    for axis, a in left.box_dimensions.items():
        b = right.box_dimensions.get(axis)
        if b is None:
            continue
        shared = True
        reach = a.mean_half_width + b.mean_half_width
        histogram = a.center_histogram
        width = (histogram.hi - histogram.lo) / len(histogram.counts)
        hits = 0.0
        for bucket, count in enumerate(histogram.counts):
            if count:
                center = histogram.lo + (bucket + 0.5) * width
                hits += count * b.center_histogram.fraction_between(
                    center - reach, center + reach
                )
        fraction *= hits / histogram.total
    if not shared:
        return clamp01(DEFAULT_OVERLAP_SELECTIVITY)
    floor = _floor(left) * _floor(right)
    return clamp01(max(fraction, floor))


def equi_join_selectivity(left: ColumnStats | None,
                          right: ColumnStats | None) -> float:
    """Selectivity of ``left_col = right_col`` over the cross product:
    the classic ``1 / max(ndv_left, ndv_right)``."""
    ndvs = [
        s.distinct_count
        for s in (left, right)
        if s is not None and s.distinct_count > 0
    ]
    if not ndvs:
        return clamp01(DEFAULT_EQ_SELECTIVITY)
    return clamp01(1.0 / max(ndvs))


def default_selectivity(op_name: str) -> float:
    """Fallback selectivity when no statistics apply to a predicate."""
    if op_name == "=":
        return clamp01(DEFAULT_EQ_SELECTIVITY)
    if op_name in ("!=", "<>"):
        return clamp01(1.0 - DEFAULT_EQ_SELECTIVITY)
    if op_name in ("<", "<=", ">", ">="):
        return clamp01(DEFAULT_RANGE_SELECTIVITY)
    if op_name in ("&&",):
        return clamp01(DEFAULT_OVERLAP_SELECTIVITY)
    if op_name in ("@>", "<@"):
        return clamp01(DEFAULT_CONTAINS_SELECTIVITY)
    return clamp01(DEFAULT_RESIDUAL_SELECTIVITY)


def _floor(stats: ColumnStats) -> float:
    """A one-row floor so estimates never collapse to exactly zero."""
    return 1.0 / max(stats.row_count, 1)
