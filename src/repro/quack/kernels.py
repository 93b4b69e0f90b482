"""Vectorized aggregation/sort/join kernels shared by the quack operators.

The paper's central performance claim (§3.4, Fig. 12) rests on DuckDB's
chunk-at-a-time execution over columnar vectors, and DuckDB groups and
joins small-range integer keys by perfect hashing, not by sorting.  This
module keeps quack's GROUP BY / DISTINCT / hash-join / ORDER BY hot paths
vectorized around two O(n) primitives:

* **Dense key codes** (:func:`_dense_span`): a bool/int64 key whose valid
  values span at most :func:`dense_cap` slots codes as ``value - min``,
  a perfect hash.  Other keys code by sorting: ``np.unique`` for float
  and wide int keys, a dict numbered by first appearance for object keys.
* **One stable order of dense codes** (:func:`stable_order`): a single
  unstable ``np.argsort`` of ``code * n + row``.  The composite is unique,
  so any sort algorithm returns the stable permutation.

The kernels built on them:

* :func:`factorize` — group keys for GROUP BY, DISTINCT and DISTINCT
  aggregates: columns combine by mixed radix while the product fits the
  cap (re-densified by ``np.unique`` past it), and groups are numbered by
  first appearance in O(n), with explicit NULL/NaN/negative-zero
  canonicalization.
* :class:`JoinBuild` — hash-join build/probe: a small-range int key is its
  own slot, so a probe is one subtraction and a gather; other keys map
  through their sorted uniques or a dict.  Build rows are grouped by
  :func:`stable_order` and probes emit matched ``(probe_row, build_row)``
  pairs with pure array ops.
* :func:`segment_reduce` — per-group ``ufunc.reduceat`` reduction over
  rows in :func:`stable_order` (SUM/MIN/MAX-style kernels).
* :func:`sort_permutation` — ORDER BY: each key becomes a dense rank with
  DESC, NaN-greatest and ``NULLS FIRST/LAST`` folded in, the ranks
  combine by mixed radix into one composite, and :func:`stable_order` of
  it is the permutation.  Under a LIMIT it ranks only the rows the
  leading key can place (top-N).  :func:`order_permutation` adds the
  row-wise comparator fallback for keys NumPy cannot order.
* :func:`distinct_rows` — factorizes a function's argument vectors by
  identity/bit pattern, and :func:`per_distinct`, its one caller, runs
  a pure scalar function, an extension cast, a kernel or a view
  extraction once per distinct argument tuple of a chunk.
* :func:`merge_sorted_runs` — the external sort's stable block merge: one
  block per run in memory, re-sorted with the same permutation kernel.
* :func:`partition_codes` — chunk-independent hash partitioning of key
  tuples for the spilling aggregate and Grace hash join.

The canonicalized row-wise fallbacks :func:`hashable_key` /
:func:`sort_comparator` live in :mod:`.keys` (the engine-neutral shared
surface) and are re-exported here for the kernel implementations.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..analysis.config import verification_enabled
from ..observability import count as _count
from .keys import _NULL_KEY, hashable_key, sort_comparator
from .types import LogicalType
from .vector import (
    STANDARD_VECTOR_SIZE,
    DataChunk,
    KernelFallback,
    Vector,
    concat_chunks,
)

__all__ = [
    "DENSE_SLOTS_MAX",
    "JoinBuild",
    "dense_cap",
    "distinct_rows",
    "factorize",
    "hashable_key",
    "merge_sorted_runs",
    "order_permutation",
    "partition_codes",
    "per_distinct",
    "segment_first_valid",
    "segment_reduce",
    "sort_comparator",
    "sort_permutation",
    "stable_order",
]


# ---------------------------------------------------------------------------
# The two primitives: dense key codes and their stable order
# ---------------------------------------------------------------------------

#: Most slots a dense key space takes, whatever the row count.
DENSE_SLOTS_MAX = 1 << 20

#: Largest mixed-radix space :func:`sort_permutation` builds, so that
#: ``composite * n + row`` stays an int64.
_RADIX_LIMIT = 1 << 62


def dense_cap(count: int) -> int:
    """Slots a dense key space over ``count`` rows may take.  A perfect
    hash costs O(slots) beside the O(count) of the rows, so the cap grows
    with the input and stops at :data:`DENSE_SLOTS_MAX`."""
    return min(DENSE_SLOTS_MAX, 8 * count + 1024)


def _dense_span(vector: Vector, cap: int) -> tuple[int, int] | None:
    """``(lo, span)`` of a bool/int64 column whose valid values span at
    most ``cap`` slots from ``lo`` — then ``value - lo`` is a perfect
    hash into ``[0, span)`` — or ``None`` past the cap.  A column with
    no valid value is ``(0, 1)``."""
    data = vector.data
    valid = vector.validity
    held = data if valid.all() else data[valid]
    if not len(held):
        return 0, 1
    # Python ints: a range past int64 must not wrap into the cap.
    lo, hi = int(held.min()), int(held.max())
    if hi - lo >= cap:
        return None
    return lo, hi - lo + 1


def stable_order(codes: np.ndarray, space: int) -> np.ndarray:
    """The stable permutation sorting ``codes`` (all in ``[0, space)``):
    one unstable argsort of ``code * n + row``, which is unique per row,
    so every algorithm returns the stable order."""
    count = len(codes)
    if space * count > _RADIX_LIMIT:
        return np.argsort(codes, kind="stable")
    return np.argsort(codes * np.int64(count)
                      + np.arange(count, dtype=np.int64))


def _first_appearance(codes: np.ndarray,
                      space: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes`` (all in ``[0, space)``) by first appearance in
    O(n + space): mark each slot's first row, then count first rows.
    Returns ``(group of each row, first row of each group)``."""
    count = len(codes)
    index = np.int32 if count < 2**31 else np.int64
    rows = np.arange(count, dtype=index)
    first = np.full(space, count, dtype=index)
    np.minimum.at(first, codes, rows)
    first_of_row = first[codes]
    is_first = first_of_row == rows
    group = np.cumsum(is_first, dtype=np.int64) - 1
    return group[first_of_row], np.flatnonzero(is_first)


# ---------------------------------------------------------------------------
# Group-key factorization
# ---------------------------------------------------------------------------


def _column_codes(vector: Vector, cap: int) -> tuple[np.ndarray, int]:
    """Dense per-row codes for one key column plus the code cardinality.

    NULL rows get a reserved code (none when the column is all valid);
    float columns additionally reserve a code for NaN (one group) and
    canonicalize ``-0.0`` to ``0.0``.
    """
    data = vector.data
    valid = vector.validity
    physical = vector.ltype.physical
    if physical in ("bool", "int64"):
        all_valid = bool(valid.all())
        dense = _dense_span(vector, cap - (not all_valid))
        if dense is not None:
            lo, span = dense
            codes = data - np.int64(lo)
            if all_valid:
                return codes, span
            return np.where(valid, codes + 1, 0), span + 1
    if physical == "int64":
        _, inverse = np.unique(data, return_inverse=True)
        codes = np.where(valid, inverse.astype(np.int64) + 1, 0)
        return codes, int(inverse.max(initial=0)) + 2
    if physical == "float64":
        values = data + 0.0  # -0.0 -> +0.0
        nan = np.isnan(values)
        _, inverse = np.unique(np.where(nan, 0.0, values),
                               return_inverse=True)
        codes = np.where(
            valid,
            np.where(nan, 1, inverse.astype(np.int64) + 2),
            0,
        )
        return codes, int(inverse.max(initial=0)) + 3
    # Object columns: hash-based factorization (no ordering required).
    keys = _object_keys(vector)
    mapping = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    codes = np.fromiter(map(mapping.__getitem__, keys), dtype=np.int64,
                        count=len(keys))
    return codes, max(len(mapping), 1)


def _object_keys(vector: Vector) -> list[Any]:
    """Dict keys with SQL equality for an object column's cells, NULL
    slots as ``_NULL_KEY``.  Text cells are their own keys (``str`` has
    no NaN or -0.0 to canonicalize); any other payload goes through
    :func:`hashable_key`."""
    keys = vector.data.tolist()
    if not set(map(type, keys)) <= {str, type(None)}:
        keys = [hashable_key(key) for key in keys]
    for i in np.flatnonzero(~vector.validity).tolist():
        keys[i] = _NULL_KEY
    return keys


def factorize(vectors: Sequence[Vector],
              count: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode multi-column group keys into dense int64 codes.

    Returns ``(codes, representatives)`` where ``codes[i]`` is the group id
    of row ``i`` (dense, numbered in order of first appearance) and
    ``representatives[g]`` is the row index of group ``g``'s first row.
    """
    cap = dense_cap(count)
    combined = np.zeros(count, dtype=np.int64)
    space = 1
    for k, vector in enumerate(vectors):
        codes, cardinality = _column_codes(vector, cap)
        if not k:
            combined, space = codes, cardinality
            continue
        # Mixed radix while the product fits the cap; past it, re-densify
        # so the running key stays bounded by the row count.
        combined = combined * np.int64(cardinality) + codes
        space *= cardinality
        if space > cap:
            _, combined = np.unique(combined, return_inverse=True)
            space = int(combined.max(initial=0)) + 1
    return _first_appearance(combined, space)


#: Chunks shorter than this are not worth factorizing.
_DISTINCT_MIN_ROWS = 16


def distinct_rows(
    vectors: Sequence[Vector], count: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Factorize a function's argument tuples into ``(first_index,
    inverse)``: ``first_index`` lists, in row order, the first row of each
    distinct tuple and ``inverse[i]`` is the position in it of row ``i``'s
    tuple, so a pure function runs on ``first_index`` and its result is
    gathered back through ``inverse``.

    Columns compare by :meth:`Vector.row_keys` (a gather by its source
    row, other object columns by element identity — join chunks repeat
    the same payload objects; equal-but-distinct objects stay distinct
    — native columns by bit pattern); NULL is one value per column.  Returns
    ``None`` — evaluate every row — when all tuples are distinct or the
    chunk is short.
    """
    if count < _DISTINCT_MIN_ROWS:
        return None
    keys: list[np.ndarray] = []
    for vector in vectors:
        key = vector.row_keys()
        if not vector.validity.all():
            key = np.where(vector.validity, key, 0)
            keys.append(vector.validity)
        keys.append(key)
    if not keys:
        first = np.zeros(1, dtype=np.int64)
        return first, np.zeros(count, dtype=np.int64)
    # lexsort is stable, so each run of equal tuples starts at the
    # tuple's first row.
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(
        keys[0], kind="stable"
    )
    starts = np.zeros(count, dtype=np.bool_)
    starts[0] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    first = order[starts]
    if len(first) == count:
        return None
    # Number the tuples in row order so the function sees (and raises on)
    # rows in the order the plain loop would.
    rank = np.argsort(first, kind="stable")
    renumber = np.empty(len(first), dtype=np.int64)
    renumber[rank] = np.arange(len(first), dtype=np.int64)
    inverse = np.empty(count, dtype=np.int64)
    inverse[order] = renumber[np.cumsum(starts) - 1]
    return first[rank], inverse


def per_distinct(run: Callable[[list[Vector], int], Any],
                 vectors: list[Vector], count: int,
                 check: str | None = None) -> Any:
    """``run(vectors, count)`` once per distinct argument tuple: on the
    first row of each (:func:`distinct_rows`), its result — anything
    with ``take``; ``None`` declines — gathered back to every row, the
    rows saved counted as ``quack.distinct_rows_saved``.  Join chunks
    repeat argument tuples (the same trip against the same period once
    per row of a third, crossed-in table), and a pure function gives
    each the same answer.

    Under verification mode a ``check`` label re-runs ``run`` on every
    row and demands the same vector, blaming ``check``."""
    distinct = distinct_rows(vectors, count)
    if distinct is None:
        return run(vectors, count)
    first, inverse = distinct
    _count("quack.distinct_rows_saved", count - len(first))
    result = run([v.slice(first) for v in vectors], len(first))
    if result is None:
        return None
    result = result.take(inverse)
    if check is not None and verification_enabled():
        from ..analysis.verifier import assert_vectors_match

        assert_vectors_match(result, run(vectors, count), check)
        _count("verify.kernel_crosschecks")
    return result


# ---------------------------------------------------------------------------
# Hash-join build/probe kernels
# ---------------------------------------------------------------------------


def _lookup_sorted(values: np.ndarray, uniques: np.ndarray) -> np.ndarray:
    """Map ``values`` into positions within sorted ``uniques`` (-1 =
    absent, as is a -1 code when ``uniques`` are codes)."""
    out = np.full(len(values), -1, dtype=np.int64)
    if len(uniques):
        pos = np.minimum(
            np.searchsorted(uniques, values), len(uniques) - 1
        )
        hit = uniques[pos] == values
        out[hit] = pos[hit]
    return out


class _NumericKeyMap:
    """Build-side value -> dense code map for one bool/int64/float64 key
    column.  A bool/int64 column whose valid values span at most
    :func:`dense_cap` slots is its own code space: ``value - lo``, so a
    probe is one subtraction and the build's per-slot tables are the
    lookup.  Other columns map through their sorted uniques; float keys
    canonicalize ``-0.0`` to ``0.0`` and give NaN its own code (SQL join
    semantics shared with :func:`hashable_key`)."""

    __slots__ = ("physical", "lo", "uniques", "nan_code", "cardinality")

    def __init__(self, vector: Vector):
        self.physical = vector.ltype.physical
        self.nan_code = -1
        self.lo = None
        if self.physical != "float64":
            dense = _dense_span(vector, dense_cap(len(vector)))
            if dense is not None:
                self.lo, self.cardinality = dense
                return
        values, nan = self._canonical(vector.data)
        valid = vector.validity
        pool = values[valid & ~nan] if nan is not None else values[valid]
        self.uniques = np.unique(pool)
        if nan is not None and bool((nan & valid).any()):
            self.nan_code = len(self.uniques)
        self.cardinality = len(self.uniques) + (self.nan_code >= 0)

    def _canonical(
        self, data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        if self.physical == "float64":
            values = data + 0.0  # -0.0 -> +0.0
            return values, np.isnan(values)
        if self.physical == "bool":
            return data.astype(np.int64), None
        return data, None

    def codes(self, vector: Vector) -> np.ndarray:
        """Dense codes for ``vector``'s rows (of the build side's physical
        type); -1 marks NULL rows and values absent from the build side
        (no match possible)."""
        if self.lo is not None:
            # A value far from ``lo`` wraps, but never into
            # ``[0, cardinality)``: both ends of that range are int64.
            codes = vector.data - np.int64(self.lo)
            codes[(codes < 0) | (codes >= self.cardinality)
                  | ~vector.validity] = -1
            return codes
        values, nan = self._canonical(vector.data)
        codes = _lookup_sorted(values, self.uniques)
        if nan is not None and self.nan_code >= 0:
            codes[nan] = self.nan_code
        codes[~vector.validity] = -1
        return codes


class _ObjectKeyMap:
    """Build-side value -> dense code map for one key column, keyed
    through :func:`_object_keys` so NaN/-0.0/unhashable payloads behave
    exactly like the row-wise dict reference.  It serves object columns
    and any column whose two sides differ in physical type: a BIGINT
    ``1`` then matches a DOUBLE ``1.0`` by Python equality, and
    ``2**53 + 1`` does not match ``2.0**53``."""

    __slots__ = ("mapping", "cardinality")

    def __init__(self, vector: Vector):
        keys = dict.fromkeys(_object_keys(vector))
        keys.pop(_NULL_KEY, None)
        self.mapping = {key: code for code, key in enumerate(keys)}
        self.cardinality = max(len(keys), 1)

    def codes(self, vector: Vector) -> np.ndarray:
        # NULL keys are not in the mapping, so they never match.
        get = self.mapping.get
        return np.fromiter(
            (get(key, -1) for key in _object_keys(vector)),
            dtype=np.int64, count=len(vector),
        )


class JoinBuild:
    """Vectorized hash-join build side over (multi-column) equi-keys.

    The build relation's keys are encoded column by column into dense
    codes and combined by mixed radix (``combined * cardinality +
    codes``) while the product fits :func:`dense_cap`; past it the build
    side's observed combinations re-densify the running key so it never
    overflows.  Build rows are then grouped by final code with the
    segment machinery (:func:`stable_order` + bincount + exclusive
    cumsum); :meth:`probe` maps probe keys into the same code space and
    expands matches into ``(probe_row, build_row)`` index arrays.  NULL
    keys never match; NaN float keys all fall in one code (matching
    :func:`hashable_key`), as does ``-0.0`` with ``0.0``.
    ``probe_types`` are the probe side's key types: a column whose sides
    share a bool/int64/float64 physical type codes through NumPy, any
    other through :func:`hashable_key`.
    """

    def __init__(self, key_vectors: Sequence[Vector],
                 probe_types: Sequence[LogicalType]):
        self._maps: list[_NumericKeyMap | _ObjectKeyMap] = [
            _NumericKeyMap(kv)
            if kv.ltype.physical == probe.physical != "object"
            else _ObjectKeyMap(kv)
            for kv, probe in zip(key_vectors, probe_types)
        ]
        # One re-densifying step per combined column, None while the
        # mixed-radix product fits the cap.
        self._steps: list[np.ndarray | None] = []
        self._space = self._maps[0].cardinality
        codes = self._map_codes(key_vectors,
                                build_cap=dense_cap(len(key_vectors[0])))
        n_groups = max(self._space, 1)
        rows = np.flatnonzero(codes >= 0)
        group_of_row = codes[rows]
        self.sorted_rows = rows[stable_order(group_of_row, n_groups)]
        self.counts = np.bincount(group_of_row, minlength=n_groups)
        self.starts = np.zeros(n_groups, dtype=np.int64)
        np.cumsum(self.counts[:-1], out=self.starts[1:])

    def _map_codes(self, key_vectors: Sequence[Vector],
                   build_cap: int | None = None) -> np.ndarray:
        combined: np.ndarray | None = None
        for k, (key_map, kv) in enumerate(zip(self._maps, key_vectors)):
            codes = key_map.codes(kv)
            if combined is None:
                combined = codes
                continue
            raw = combined * np.int64(key_map.cardinality) + codes
            raw[(combined < 0) | (codes < 0)] = -1
            if build_cap is not None:
                self._space *= key_map.cardinality
                step = None
                if self._space > build_cap:
                    step = np.unique(raw[raw >= 0])
                    self._space = len(step)
                self._steps.append(step)
            step = self._steps[k - 1]
            combined = raw if step is None else _lookup_sorted(raw, step)
        return combined

    def probe(self, key_vectors: Sequence[Vector],
              count: int) -> tuple[np.ndarray, np.ndarray]:
        """Match probe rows against the build index.

        Returns ``(probe_idx, build_idx)`` index arrays covering every
        matched pair, probe-major with build rows ascending within each
        probe row — the same emission order as the dict fallback.
        """
        codes = self._map_codes(key_vectors)
        safe = np.where(codes >= 0, codes, 0)
        match_counts = np.where(codes >= 0, self.counts[safe], 0)
        total = int(match_counts.sum())
        probe_idx = np.repeat(
            np.arange(count, dtype=np.int64), match_counts
        )
        ends = np.cumsum(match_counts)
        offsets = np.repeat(ends - match_counts, match_counts)
        within = np.arange(total, dtype=np.int64) - offsets
        build_idx = self.sorted_rows[
            np.repeat(self.starts[safe], match_counts) + within
        ]
        return probe_idx, build_idx


# ---------------------------------------------------------------------------
# Segmented reductions
# ---------------------------------------------------------------------------


def segment_reduce(
    ufunc: np.ufunc, values: np.ndarray, codes: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce ``values`` per group with ``ufunc.reduceat``.

    ``values``/``codes`` hold only the contributing rows (callers filter
    out NULLs first).  Returns ``(out, present)``; groups with no
    contributing rows have ``present`` False and an unspecified ``out``.
    """
    counts = np.bincount(codes, minlength=n_groups)
    present = counts > 0
    out = np.zeros(n_groups, dtype=values.dtype)
    if present.any():
        order = stable_order(codes, n_groups)
        starts = np.zeros(n_groups, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        out[present] = ufunc.reduceat(values[order], starts[present])
    return out, present


def segment_first_valid(
    codes: np.ndarray, validity: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row index of each group's first valid row: ``(rows, present)``."""
    valid_rows = np.nonzero(validity)[0]
    if not len(valid_rows):
        return (np.zeros(n_groups, dtype=np.int64),
                np.zeros(n_groups, dtype=np.bool_))
    firsts, present = segment_reduce(
        np.minimum, valid_rows, codes[valid_rows], n_groups
    )
    return np.where(present, firsts, 0), present


# ---------------------------------------------------------------------------
# Sort kernels
# ---------------------------------------------------------------------------


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Ranks of ``values`` in ascending order, equal values sharing one,
    and how many there are.  Raises :class:`KernelFallback` when NumPy
    cannot order the values (mixed incomparable objects)."""
    try:
        order = np.argsort(values)
        ordered = values[order]
        step = np.ones(len(values), dtype=np.bool_)
        step[1:] = ordered[1:] != ordered[:-1]
    except TypeError as exc:
        raise KernelFallback(str(exc)) from None
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.cumsum(step) - 1
    return ranks, max(int(step.sum()), 1)


def _order_ranks(vector: Vector, ascending: bool, nulls_first: bool | None,
                 cap: int) -> tuple[np.ndarray, int]:
    """One ORDER BY key as int64 ranks in the key's SQL order, and the
    rank space: equal keys share a rank, NaN ranks above ``+inf``, DESC
    reverses the ranks and NULL takes a rank of its own at the front or
    the back (an all-valid column takes none).  A bool/int64 key within
    ``cap`` slots ranks by offset; any other ranks by sorting."""
    data = vector.data
    valid = vector.validity
    all_valid = bool(valid.all())
    physical = vector.ltype.physical
    dense = None
    if physical in ("bool", "int64"):
        dense = _dense_span(vector, cap)
    if dense is not None:
        lo, space = dense
        ranks = data - np.int64(lo)
    else:
        values = data if all_valid else data[valid]
        nan = None
        if physical == "float64":
            values = values + 0.0  # -0.0 -> +0.0
            nan = np.isnan(values)
            if nan.any():
                values = np.where(nan, np.inf, values)
            else:
                nan = None
        held, space = _dense_rank(values)
        if nan is not None:
            held[nan] = space  # past +inf's rank
            space += 1
        if all_valid:
            ranks = held
        else:
            ranks = np.zeros(len(data), dtype=np.int64)
            ranks[valid] = held
    if not ascending:
        ranks = np.int64(space - 1) - ranks
    if not all_valid:
        if (not ascending) if nulls_first is None else nulls_first:
            ranks = np.where(valid, ranks + 1, 0)
        else:
            ranks = np.where(valid, ranks, space)
        space += 1
    return ranks, space


def _order_values(vector: Vector, ascending: bool,
                  nulls_first: bool | None) -> np.ndarray | None:
    """A float64 image of one ORDER BY key that never decreases along the
    key's SQL order (ties may merge neighbours: int64 rounds, NaN meets
    ``+inf``), or ``None`` for an object key."""
    if vector.ltype.physical == "object":
        return None
    values = vector.data.astype(np.float64)
    values[np.isnan(values)] = np.inf
    if not ascending:
        np.negative(values, out=values)
    nf = (not ascending) if nulls_first is None else nulls_first
    values[~vector.validity] = -np.inf if nf else np.inf
    return values


def sort_permutation(
    key_vectors: Sequence[Vector],
    key_specs: Sequence[tuple[bool, bool | None]],
    limit: int | None = None,
) -> np.ndarray:
    """The stable permutation for multi-key ORDER BY — its first
    ``limit`` rows when ``limit`` is given.

    ``key_specs`` holds ``(ascending, nulls_first)`` per key, with
    ``nulls_first=None`` meaning the engine default (NULLS LAST for ASC,
    NULLS FIRST for DESC).  NaN sorts as the greatest value, after
    ``+inf``.  Each key becomes ranks (:func:`_order_ranks`) that combine
    most significant first by mixed radix, re-ranked when the space would
    pass :data:`_RADIX_LIMIT`; :func:`stable_order` of the composite is
    the permutation.  Raises :class:`KernelFallback` when a key column
    holds objects NumPy cannot order (mixed incomparable types).
    """
    count = len(key_vectors[0])
    if limit is not None and limit < count:
        return _top_permutation(key_vectors, key_specs, limit)
    cap = dense_cap(count)
    composite = np.zeros(count, dtype=np.int64)
    space = 1
    for k, (vector, (ascending, nulls_first)) in enumerate(
        zip(key_vectors, key_specs)
    ):
        ranks, cardinality = _order_ranks(vector, ascending, nulls_first,
                                          cap)
        if not k:
            composite, space = ranks, cardinality
            continue
        if space * cardinality > _RADIX_LIMIT:
            composite, space = _dense_rank(composite)
        composite = composite * np.int64(cardinality) + ranks
        space *= cardinality
    if space * count > _RADIX_LIMIT:
        composite, space = _dense_rank(composite)
    return stable_order(composite, space)


def _top_permutation(
    key_vectors: Sequence[Vector],
    key_specs: Sequence[tuple[bool, bool | None]],
    limit: int,
) -> np.ndarray:
    """The first ``limit`` rows of the stable ORDER BY permutation
    (DuckDB's TOP_N): partition on the leading key's order value, keep
    every row that ties the ``limit``-th, and sort only those."""
    if limit <= 0:
        return np.zeros(0, dtype=np.int64)
    lead = _order_values(key_vectors[0], *key_specs[0])
    if lead is None:
        return sort_permutation(key_vectors, key_specs)[:limit]
    bound = np.partition(lead, limit - 1)[limit - 1]
    rows = np.flatnonzero(lead <= bound)
    perm = sort_permutation([v.slice(rows) for v in key_vectors], key_specs)
    return rows[perm[:limit]]


def order_permutation(
    key_vectors: Sequence[Vector],
    key_specs: Sequence[tuple[bool, bool | None]],
    limit: int | None = None,
) -> tuple[np.ndarray, bool]:
    """The stable ORDER BY permutation (its first ``limit`` rows when
    given) and whether the kernel produced it: :func:`sort_permutation`,
    or — for keys NumPy cannot order — the row-wise
    :func:`sort_comparator` sort."""
    try:
        return sort_permutation(key_vectors, key_specs, limit), True
    except KernelFallback:
        return comparator_permutation(key_vectors, key_specs)[:limit], False


def comparator_permutation(
    key_vectors: Sequence[Vector],
    key_specs: Sequence[tuple[bool, bool | None]],
) -> np.ndarray:
    """Row-wise stable sort under :func:`sort_comparator`, as a
    permutation (the kernel's fallback and verification reference)."""
    keys = zip(*(vector.to_list() for vector in key_vectors))
    ordered = sorted(enumerate(keys), key=sort_comparator(key_specs))
    return np.fromiter((row for row, _ in ordered), dtype=np.int64,
                       count=len(ordered))


def merge_sorted_runs(
    runs: Sequence[tuple[Iterator[DataChunk], int]],
    key_count: int,
    key_specs: Sequence[tuple[bool, bool | None]],
) -> Iterator[DataChunk]:
    """Stable k-way merge of sorted runs, holding one block per run.

    ``runs`` lists, in run order, ``(blocks, n_blocks)``: an iterator
    over one run's blocks and how many it yields.  Each block carries
    its rows' sort keys as its last ``key_count`` columns (dropped from
    the output); each run is sorted by them, and equal keys must come
    out lowest run first — with runs cut from consecutive input ranges
    and sorted stably, that is the serial stable sort.

    Every round re-sorts what is loaded (concatenated in run order, so
    the stable permutation breaks ties by run, then by position in the
    run) and emits it up to the *bounding row*: the smallest last-loaded
    row among the runs with blocks still unread.  Nothing unread can sort
    before it — a run's unread rows follow its last loaded one, and an
    unread row that ties the bounding row belongs to the bounding run or
    a later one.  The bounding run is then empty and loads its next
    block; the other runs keep the unsent tail of theirs.
    """
    readers = [iter(blocks) for blocks, _ in runs]
    unread = [n_blocks for _, n_blocks in runs]
    loaded: list[DataChunk | None] = [None] * len(runs)
    while True:
        for run, reader in enumerate(readers):
            if loaded[run] is None and unread[run]:
                loaded[run] = next(reader)
                unread[run] -= 1
        live = [run for run, block in enumerate(loaded) if block is not None]
        if not live:
            return
        blocks = [loaded[run] for run in live]
        merged = blocks[0] if len(blocks) == 1 else concat_chunks(blocks)
        perm, _ = order_permutation(merged.vectors[-key_count:], key_specs)
        ends = np.cumsum([block.count for block in blocks])
        last_rows = [end - 1 for run, end in zip(live, ends) if unread[run]]
        cut = len(perm)
        if last_rows:
            rank = np.empty(len(perm), dtype=np.int64)
            rank[perm] = np.arange(len(perm), dtype=np.int64)
            cut = int(rank[last_rows].min()) + 1
        payload = DataChunk(merged.vectors[:-key_count])
        for start in range(0, cut, STANDARD_VECTOR_SIZE):
            yield payload.slice(perm[start:min(start + STANDARD_VECTOR_SIZE,
                                               cut)])
        # A run's rows leave in run order, so what it keeps is a tail.
        sent = np.bincount(np.searchsorted(ends, perm[:cut], side="right"),
                           minlength=len(live))
        for run, block, n_sent in zip(live, blocks, sent):
            loaded[run] = block.slice(slice(int(n_sent), None)) \
                if n_sent < block.count else None


# ---------------------------------------------------------------------------
# Hash partitioning (spilling aggregate / Grace join)
# ---------------------------------------------------------------------------

_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
_HASH_MASK = (1 << 64) - 1


def partition_codes(vectors: Sequence[Vector], count: int,
                    partitions: int) -> np.ndarray:
    """Bucket ``0 .. partitions-1`` of every row's key tuple.

    A pure function of the key *values*: rows with equal keys — under
    :func:`hashable_key` semantics, so all NaNs are one key, ``-0.0`` is
    ``0.0`` and ``1`` is ``1.0`` — share a bucket across chunks and
    across the two sides of a join.  NULL hashes as a value of its own.
    """
    mixed = np.zeros(count, dtype=np.uint64)
    for vector in vectors:
        valid = vector.validity
        if vector.ltype.physical == "object":
            hashes = np.fromiter(
                (hash(key) & _HASH_MASK for key in _object_keys(vector)),
                dtype=np.uint64, count=count,
            )
        else:
            values = vector.data.astype(np.float64) + 0.0  # -0.0 -> +0.0
            values[np.isnan(values)] = np.nan  # one NaN bit pattern
            hashes = values.view(np.uint64)
        hashes = np.where(valid, hashes, _NULL_HASH)
        mixed = mixed * np.uint64(1000003) ^ hashes
    # Finalizer (murmur3): float images of small integers differ only in
    # their high bits, the bucket is taken from the low ones.
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xFF51AFD7ED558CCD)
    mixed ^= mixed >> np.uint64(33)
    return (mixed % np.uint64(partitions)).astype(np.int64)
