"""Vectorized aggregation/sort kernels shared by the quack operators.

The paper's central performance claim (§3.4, Fig. 12) rests on DuckDB's
chunk-at-a-time execution over columnar vectors.  This module provides the
NumPy-backed kernels that keep the quack engine's GROUP BY / ORDER BY /
DISTINCT hot paths vectorized end to end:

* :func:`factorize` — factorize-style group-key encoding over packed key
  columns (``np.unique(..., return_inverse=True)`` per column, combined
  pairwise and re-densified), with explicit NULL/NaN/negative-zero
  canonicalization.
* :func:`distinct_rows` — factorizes a function's argument vectors by
  identity/bit pattern so pure scalar functions, extension casts and box
  extraction run once per distinct argument tuple of a chunk.
* :func:`segment_reduce` — per-group ``ufunc.reduceat`` reduction over
  rows sorted by group code (SUM/MIN/MAX-style kernels).
* :func:`sort_permutation` — ``np.lexsort``-based ORDER BY with correct
  ``NULLS FIRST/LAST`` handling and NaN-sorts-greatest semantics;
  :func:`order_permutation` adds the row-wise comparator fallback.
* :func:`merge_sorted_runs` — the external sort's stable block merge: one
  block per run in memory, re-sorted with the same permutation kernel.
* :func:`partition_codes` — chunk-independent hash partitioning of key
  tuples for the spilling aggregate and Grace hash join.
* :class:`JoinBuild` — hash-join build/probe kernels: the equi-keys of
  the build relation are factorize-encoded into dense int64 codes, a
  grouped row index is laid out with the same argsort/bincount/cumsum
  segment machinery, and probes emit matched ``(probe_row, build_row)``
  pairs with pure array ops.
The canonicalized row-wise fallbacks :func:`hashable_key` /
:func:`sort_comparator` live in :mod:`.keys` (the engine-neutral shared
surface) and are re-exported here for the kernel implementations.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

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
    "JoinBuild",
    "distinct_rows",
    "factorize",
    "hashable_key",
    "merge_sorted_runs",
    "order_permutation",
    "partition_codes",
    "segment_first_valid",
    "segment_reduce",
    "sort_comparator",
    "sort_permutation",
]


# ---------------------------------------------------------------------------
# Group-key factorization
# ---------------------------------------------------------------------------


def _column_codes(vector: Vector) -> tuple[np.ndarray, int]:
    """Dense per-row codes for one key column plus the code cardinality.

    NULL rows get a reserved code; float columns additionally reserve a
    code for NaN (one group) and canonicalize ``-0.0`` to ``0.0``.
    """
    data = vector.data
    valid = vector.validity
    physical = vector.ltype.physical
    if physical == "bool":
        return np.where(valid, data.astype(np.int64) + 1, 0), 3
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
    combined: np.ndarray | None = None
    for vector in vectors:
        codes, cardinality = _column_codes(vector)
        if combined is None:
            combined = codes
        else:
            # Pairwise combine, then re-densify so the running key stays
            # bounded by row count and never overflows int64.
            combined = combined * np.int64(cardinality) + codes
            _, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64, copy=False)
    if combined is None:
        combined = np.zeros(count, dtype=np.int64)
    _, first_index, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    # np.unique numbers groups in sorted-key order; renumber them in
    # first-appearance order so output matches the row-loop paths.
    order = np.argsort(first_index, kind="stable")
    remap = np.empty(len(first_index), dtype=np.int64)
    remap[order] = np.arange(len(first_index), dtype=np.int64)
    codes = remap[inverse.astype(np.int64, copy=False)]
    representatives = first_index[order].astype(np.int64, copy=False)
    return codes, representatives


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


# ---------------------------------------------------------------------------
# Hash-join build/probe kernels
# ---------------------------------------------------------------------------


def _lookup_sorted(values: np.ndarray, uniques: np.ndarray) -> np.ndarray:
    """Map ``values`` into positions within sorted ``uniques`` (-1 = absent)."""
    out = np.full(len(values), -1, dtype=np.int64)
    if len(uniques):
        pos = np.minimum(
            np.searchsorted(uniques, values), len(uniques) - 1
        )
        hit = (values >= 0) & (uniques[pos] == values)
        out[hit] = pos[hit]
    return out


class _NumericKeyMap:
    """Build-side value -> dense code map for one bool/int64/float64 key
    column.  Float keys canonicalize ``-0.0`` to ``0.0`` and give NaN its
    own code (SQL join semantics shared with :func:`hashable_key`)."""

    __slots__ = ("physical", "uniques", "nan_code", "cardinality")

    def __init__(self, vector: Vector):
        self.physical = vector.ltype.physical
        values, nan = self._canonical(vector.data)
        valid = vector.validity
        pool = values[valid & ~nan] if nan is not None else values[valid]
        self.uniques = np.unique(pool)
        self.nan_code = -1
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
        values, nan = self._canonical(vector.data)
        codes = _lookup_sorted_values(values, self.uniques)
        if nan is not None and self.nan_code >= 0:
            codes[nan] = self.nan_code
        codes[~vector.validity] = -1
        return codes


def _lookup_sorted_values(values: np.ndarray,
                          uniques: np.ndarray) -> np.ndarray:
    """Like :func:`_lookup_sorted` but for raw (possibly negative/NaN)
    column values rather than non-negative codes."""
    out = np.full(len(values), -1, dtype=np.int64)
    if len(uniques):
        pos = np.minimum(
            np.searchsorted(uniques, values), len(uniques) - 1
        )
        hit = uniques[pos] == values
        out[hit] = pos[hit]
    return out


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
    codes, combined pairwise (``combined * cardinality + codes``) and
    re-densified against the build side's observed combinations so the
    running key never overflows.  Build rows are then grouped by final
    code with the segment machinery (stable argsort + bincount +
    exclusive cumsum); :meth:`probe` maps probe keys into the same code
    space and expands matches into ``(probe_row, build_row)`` index
    arrays.  NULL keys never match; NaN float keys all fall in one code
    (matching :func:`hashable_key`), as does ``-0.0`` with ``0.0``.
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
        self._steps: list[np.ndarray] = []
        codes = self._map_codes(key_vectors, build=True)
        n_groups = max(
            len(self._steps[-1]) if self._steps
            else self._maps[0].cardinality,
            1,
        )
        rows = np.nonzero(codes >= 0)[0]
        group_of_row = codes[rows]
        order = np.argsort(group_of_row, kind="stable")
        self.sorted_rows = rows[order].astype(np.int64, copy=False)
        self.counts = np.bincount(group_of_row, minlength=n_groups)
        self.starts = np.zeros(n_groups, dtype=np.int64)
        np.cumsum(self.counts[:-1], out=self.starts[1:])

    def _map_codes(self, key_vectors: Sequence[Vector],
                   build: bool = False) -> np.ndarray:
        combined: np.ndarray | None = None
        for k, (key_map, kv) in enumerate(zip(self._maps, key_vectors)):
            codes = key_map.codes(kv)
            if combined is None:
                combined = codes
                continue
            raw = combined * np.int64(key_map.cardinality) + codes
            raw[(combined < 0) | (codes < 0)] = -1
            if build:
                self._steps.append(np.unique(raw[raw >= 0]))
            combined = _lookup_sorted(raw, self._steps[k - 1])
        return combined

    def probe(self, key_vectors: Sequence[Vector],
              count: int) -> tuple[np.ndarray, np.ndarray]:
        """Match probe rows against the build index.

        Returns ``(probe_idx, build_idx)`` index arrays covering every
        matched pair, probe-major with build rows ascending within each
        probe row — the same emission order as the dict fallback.
        """
        codes = self._map_codes(key_vectors, build=False)
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
        order = np.argsort(codes, kind="stable")
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


def sort_permutation(
    key_vectors: Sequence[Vector],
    key_specs: Sequence[tuple[bool, bool | None]],
) -> np.ndarray:
    """Stable ``np.lexsort`` permutation for multi-key ORDER BY.

    ``key_specs`` holds ``(ascending, nulls_first)`` per key, with
    ``nulls_first=None`` meaning the engine default (NULLS LAST for ASC,
    NULLS FIRST for DESC).  NaN sorts as the greatest value, after
    ``+inf``.  Raises :class:`KernelFallback` when a key column holds
    objects NumPy cannot order (mixed incomparable types).
    """
    lex_keys: list[np.ndarray] = []
    # np.lexsort treats its LAST key as primary, so append the least
    # significant contributions first: iterate ORDER BY keys in reverse,
    # and within a key append value, then NaN rank, then NULL rank.
    for vector, (ascending, nulls_first) in reversed(
        list(zip(key_vectors, key_specs))
    ):
        codes, nan_mask = vector.sort_key()
        if not ascending:
            if codes.dtype.kind == "i":
                codes = np.int64(-1) - codes  # overflow-safe int negation
            else:
                codes = -codes
        lex_keys.append(codes)
        if nan_mask is not None:
            nan_key = nan_mask.astype(np.int8)
            if not ascending:
                nan_key = -nan_key
            lex_keys.append(nan_key)
        nf = (not ascending) if nulls_first is None else nulls_first
        if nf:
            lex_keys.append(vector.validity.astype(np.int8))
        else:
            lex_keys.append((~vector.validity).astype(np.int8))
    return np.lexsort(tuple(lex_keys))


def order_permutation(
    key_vectors: Sequence[Vector],
    key_specs: Sequence[tuple[bool, bool | None]],
) -> tuple[np.ndarray, bool]:
    """The stable ORDER BY permutation and whether the kernel produced
    it: :func:`sort_permutation`, or — for keys NumPy cannot order — the
    row-wise :func:`sort_comparator` sort."""
    try:
        return sort_permutation(key_vectors, key_specs), True
    except KernelFallback:
        return comparator_permutation(key_vectors, key_specs), False


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
