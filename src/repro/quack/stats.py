"""Table statistics and selectivity estimation (``ANALYZE`` support).

``analyze_table`` makes one pass over a table and distills, per column:
null count, an approximate distinct count, min/max, an equi-width
histogram over the numeric image of the values (numbers and timestamps),
and — for spatial/temporal columns whose values carry a bounding box
(STBox, TBox, temporal points) — per-dimension extent histograms of the
box centers plus the mean half-width.

The ``*_selectivity`` functions turn those summaries into predicate
selectivities for the cost-based optimizer.  Every estimator returns a
value clamped to ``[0, 1]`` via :func:`clamp01` (enforced by lint rule
ANL010): a selectivity outside the unit interval silently corrupts every
cardinality product built on top of it.

The module is engine-neutral on purpose: box extraction is duck-typed
(``xmin``/``tspan`` attributes, a ``stbox()`` method) rather than
``isinstance``-checked against ``repro.meos`` classes, so pgsim row
tables analyze identically through the shared frontend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

#: Number of equi-width buckets in value and box-center histograms.
HISTOGRAM_BUCKETS = 32

#: Distinct-value sets are exact up to this cap; beyond it the count is
#: linearly extrapolated from the observed fill rate (approximate NDV).
NDV_EXACT_CAP = 65536

#: Fallback selectivities when a column has no usable statistics.
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_OVERLAP_SELECTIVITY = 0.05
DEFAULT_CONTAINS_SELECTIVITY = 0.01
DEFAULT_RESIDUAL_SELECTIVITY = 0.25


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


def box_of(value: Any) -> Any | None:
    """Extract a bounding box from a value, duck-typed.

    Accepts STBox/TBox-shaped objects directly (``has_x``/``has_t``
    properties) and temporal values exposing an ``stbox()`` method.
    Returns ``None`` when the value carries no box.
    """
    if value is None:
        return None
    if hasattr(value, "has_x") and hasattr(value, "has_t"):
        return value
    stbox = getattr(value, "stbox", None)
    if callable(stbox):
        try:
            return stbox()
        except Exception:
            return None
    return None


def box_intervals(box: Any) -> dict[str, tuple[float, float]]:
    """The per-axis ``[lo, hi]`` intervals of a bounding box.

    Axes: ``x``/``y`` (STBox spatial corners, or a TBox value span on
    ``x``), ``t`` (time span as epoch seconds).  Missing axes are simply
    absent from the result.
    """
    intervals: dict[str, tuple[float, float]] = {}
    xmin = getattr(box, "xmin", None)
    if xmin is not None:
        intervals["x"] = (float(xmin), float(box.xmax))
        ymin = getattr(box, "ymin", None)
        if ymin is not None:
            intervals["y"] = (float(ymin), float(box.ymax))
    vspan = getattr(box, "vspan", None)
    if vspan is not None and "x" not in intervals:
        lo = as_number(vspan.lower)
        hi = as_number(vspan.upper)
        if lo is not None and hi is not None:
            intervals["x"] = (lo, hi)
    tspan = getattr(box, "tspan", None)
    if tspan is not None:
        lo = as_number(tspan.lower)
        hi = as_number(tspan.upper)
        if lo is not None and hi is not None:
            intervals["t"] = (lo, hi)
    return intervals


# ---------------------------------------------------------------------------
# ANALYZE: one pass over the table
# ---------------------------------------------------------------------------


class _ColumnAccumulator:
    def __init__(self, name: str):
        self.name = name
        self.rows = 0
        self.nulls = 0
        self.seen: set[Any] = set()
        self.seen_overflowed = False
        self.non_nulls_at_cap = 0
        self.numbers: list[float] = []
        self.min_value: Any = None
        self.max_value: Any = None
        self.box_centers: dict[str, list[float]] = {}
        self.box_half_widths: dict[str, list[float]] = {}
        self.box_count = 0

    def observe(self, value: Any) -> None:
        self.rows += 1
        if value is None:
            self.nulls += 1
            return
        if not self.seen_overflowed:
            try:
                key = value if value.__hash__ is not None else repr(value)
            except Exception:
                key = repr(value)
            self.seen.add(key)
            if len(self.seen) >= NDV_EXACT_CAP:
                self.seen_overflowed = True
                self.non_nulls_at_cap = self.rows - self.nulls
        number = as_number(value)
        if number is not None:
            self.numbers.append(number)
        self._observe_order(value)
        box = box_of(value)
        if box is not None:
            self.box_count += 1
            for axis, (lo, hi) in box_intervals(box).items():
                self.box_centers.setdefault(axis, []).append((lo + hi) / 2.0)
                self.box_half_widths.setdefault(axis, []).append(
                    (hi - lo) / 2.0
                )

    def _observe_order(self, value: Any) -> None:
        try:
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value
        except TypeError:
            pass  # unorderable mix; min/max stay best-effort

    def finish(self) -> ColumnStats:
        distinct = len(self.seen)
        non_null = self.rows - self.nulls
        if self.seen_overflowed and self.non_nulls_at_cap > 0:
            # The set stopped growing at the cap after some prefix of
            # the rows; extrapolate the fill rate to the full table.
            distinct = min(
                non_null,
                int(distinct * non_null / self.non_nulls_at_cap),
            )
        dims = {}
        for axis, centers in self.box_centers.items():
            histogram = _build_histogram(centers)
            if histogram is None:
                continue
            widths = self.box_half_widths[axis]
            dims[axis] = DimensionStats(
                lo=min(centers) - max(widths),
                hi=max(centers) + max(widths),
                center_histogram=histogram,
                mean_half_width=sum(widths) / len(widths),
            )
        return ColumnStats(
            name=self.name,
            row_count=self.rows,
            null_count=self.nulls,
            distinct_count=distinct,
            min_value=self.min_value,
            max_value=self.max_value,
            histogram=_build_histogram(self.numbers),
            box_dimensions=dims,
            box_count=self.box_count,
        )


def _build_histogram(values: list[float]) -> NumericHistogram | None:
    if not values:
        return None
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return NumericHistogram(lo, hi, [len(values)], len(values))
    counts = [0] * HISTOGRAM_BUCKETS
    width = (hi - lo) / HISTOGRAM_BUCKETS
    for v in values:
        bucket = min(int((v - lo) / width), HISTOGRAM_BUCKETS - 1)
        counts[bucket] += 1
    return NumericHistogram(lo, hi, counts, len(values))


def _detoast(value: Any) -> Any:
    """Unwrap a row-engine varlena datum (duck-typed so quack does not
    import pgsim); inline values pass through."""
    load = getattr(value, "load", None)
    if callable(load) and hasattr(value, "blob"):
        return load()
    return value


def _iter_rows(table: Any) -> Iterator[tuple]:
    scan = getattr(table, "scan", None)
    if callable(scan):
        for first, second in scan():
            rows = getattr(first, "rows", None)
            if callable(rows):
                # Columnar engine: scan() yields (DataChunk, row_ids).
                yield from rows()
            else:
                # Row engine: scan() yields (row_id, heap row) whose
                # out-of-line datums are TOAST pointers.
                yield tuple(_detoast(value) for value in second)
        return
    yield from getattr(table, "rows")


def analyze_table(table: Any) -> TableStats:
    """One full pass over ``table``; returns the statistics to store on
    ``table.stats``."""
    accumulators = [
        _ColumnAccumulator(name) for name in table.column_names
    ]
    row_count = 0
    for row in _iter_rows(table):
        row_count += 1
        for accumulator, value in zip(accumulators, row):
            accumulator.observe(value)
    return TableStats(
        table_name=getattr(table, "name", "?"),
        row_count=row_count,
        columns=[a.finish() for a in accumulators],
    )


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
    box = box_of(probe)
    if stats is None or box is None or not stats.box_dimensions:
        return clamp01(DEFAULT_OVERLAP_SELECTIVITY)
    probe_intervals = box_intervals(box)
    fraction = 1.0
    shared = False
    for axis, dim in stats.box_dimensions.items():
        interval = probe_intervals.get(axis)
        if interval is None:
            continue
        shared = True
        lo, hi = interval
        fraction *= dim.center_histogram.fraction_between(
            lo - dim.mean_half_width, hi + dim.mean_half_width
        )
    if not shared:
        return clamp01(DEFAULT_OVERLAP_SELECTIVITY)
    return clamp01(max(fraction, _floor(stats)))


def containment_selectivity(stats: ColumnStats | None, probe: Any,
                            column_contains_probe: bool) -> float:
    """Selectivity of ``column @> probe`` (``column_contains_probe``)
    or ``column <@ probe``: the center must sit in the interval where a
    mean-width box satisfies the containment on every shared axis."""
    box = box_of(probe)
    if stats is None or box is None or not stats.box_dimensions:
        return clamp01(DEFAULT_CONTAINS_SELECTIVITY)
    probe_intervals = box_intervals(box)
    fraction = 1.0
    shared = False
    for axis, dim in stats.box_dimensions.items():
        interval = probe_intervals.get(axis)
        if interval is None:
            continue
        shared = True
        lo, hi = interval
        half = dim.mean_half_width
        if column_contains_probe:
            window = (hi - half, lo + half)
        else:
            window = (lo + half, hi - half)
        fraction *= dim.center_histogram.fraction_between(*window)
    if not shared:
        return clamp01(DEFAULT_CONTAINS_SELECTIVITY)
    return clamp01(max(fraction, _floor(stats)))


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
