"""Catalog and columnar storage.

Tables store data column-wise in sealed NumPy segments plus an append tail,
so sequential scans hand out zero-copy vector slices — the quack analogue
of DuckDB's row groups.  Deletes are tombstones; updates rewrite columns.

Indexes attach to tables through the pluggable :class:`IndexType` registry
(paper §4.1: ``RegisterIndexType``); the concrete box index behind
``TRTREE``, ``RTREE`` and GiST is :class:`repro.index.BoxIndex`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import CatalogError, ExecutionError
from .types import BIGINT, LogicalType
from .vector import (
    _PHYSICAL_DTYPES,
    STANDARD_VECTOR_SIZE,
    DataChunk,
    Vector,
    concat_vectors,
)


class ColumnData:
    """Append-only storage of one column: sealed segments + tail buffer.

    A sealed segment *is* a :class:`Vector`, the same object for every
    scan, so the derived views cached on it (box arrays, CSR layouts)
    are built once per column, not once per query.  The tail holds the
    vectors appended since, fewer than :data:`STANDARD_VECTOR_SIZE` rows
    in all: values are converted when they are appended, never when a
    read seals them."""

    __slots__ = ("ltype", "segments", "tail", "_seal_lock")

    def __init__(self, ltype: LogicalType):
        self.ltype = ltype
        self.segments: list[Vector] = []
        self.tail: list[Vector] = []
        # Read paths (scan/gather) seal lazily; two client threads
        # sharing a database and sealing the same column concurrently
        # would double-append the tail as two segments without this lock.
        self._seal_lock = threading.Lock()

    def __len__(self) -> int:
        return sum(len(s) for s in self.segments) + sum(map(len, self.tail))

    def extend(self, values: Sequence[Any]) -> None:
        """Append Python ``values`` (``None``: NULL); one the column
        cannot hold raises :class:`ConversionError` and appends none."""
        self.push(Vector.from_values(self.ltype, values))

    def push(self, vector: Vector) -> None:
        """Append converted rows to the tail; each full
        :data:`STANDARD_VECTOR_SIZE` rows of it seal as a segment."""
        with self._seal_lock:
            self.tail.append(vector)
            if sum(map(len, self.tail)) < STANDARD_VECTOR_SIZE:
                return
            merged, size = self._merged(), STANDARD_VECTOR_SIZE
            pieces = [Vector(self.ltype, merged.data[at:at + size],
                             merged.validity[at:at + size])
                      for at in range(0, len(merged), size)]
            full = len(merged) // size
            self.segments += pieces[:full]
            self.tail = pieces[full:]

    def _merged(self) -> Vector:
        if len(self.tail) == 1:
            return self.tail[0]
        return Vector(self.ltype,
                      np.concatenate([v.data for v in self.tail]),
                      np.concatenate([v.validity for v in self.tail]))

    def append_vector(self, vector: Vector) -> None:
        self.seal()
        # Same guard as seal(): the segment list is read by client
        # threads sealing concurrently, so every write goes through it.
        with self._seal_lock:
            self.segments.append(Vector(
                self.ltype,
                np.array(vector.data,
                         dtype=_PHYSICAL_DTYPES[self.ltype.physical],
                         copy=True),
                np.array(vector.validity, copy=True),
            ))

    def seal(self) -> None:
        if not self.tail:
            return
        with self._seal_lock:
            if self.tail:  # else another thread sealed while we waited
                self.segments.append(self._merged())
                self.tail = []

    # -- sealed-segment access ----------------------------------------------------
    #
    # Scans, zone maps, and random access all go through this small
    # segment API so lazily-decoded storage columns
    # (repro.quack.storage.StorageColumn) can override it: a skipped row
    # group is then never decompressed.

    def segment_count(self) -> int:
        self.seal()
        return len(self.segments)

    def segment_rows(self, index: int) -> int:
        return len(self.segments[index])

    def segment_vector(self, index: int) -> Vector:
        return self.segments[index]

    def zone_entry(self, index: int):
        """The zone map of one sealed segment (storage columns serve the
        footer entry instead of touching the payload)."""
        from .storage import compute_zone_entry

        return compute_zone_entry(self.segment_vector(index))

    def chunks(self) -> Iterator[Vector]:
        for index in range(self.segment_count()):
            yield self.segment_vector(index)

    def gather(self, row_ids: np.ndarray) -> Vector:
        """Random access fetch by global row offsets: a gather of the one
        segment the rows fall in, else of each segment's rows."""
        self.seal()
        row_ids = np.asarray(row_ids, dtype=np.int64)
        bad = (row_ids < 0) | (row_ids >= len(self))
        if bad.any():
            raise ExecutionError(f"row id {row_ids[bad][0]} out of range")
        bounds = np.cumsum(
            [0] + [self.segment_rows(i) for i in range(self.segment_count())]
        )
        seg = np.searchsorted(bounds, row_ids, side="right") - 1
        offsets = row_ids - bounds[seg]
        touched = np.unique(seg)
        if len(touched) == 1:
            return self.segment_vector(int(touched[0])).take(offsets)
        if not len(touched):
            return Vector.empty(self.ltype, 0)
        order = np.argsort(seg, kind="stable")
        cuts = np.searchsorted(seg[order], touched)
        parts = [
            self.segment_vector(int(s)).take(offsets[rows])
            for s, rows in zip(touched, np.split(order, cuts[1:]))
        ]
        back = np.empty(len(order), dtype=np.int64)
        back[order] = np.arange(len(order))
        return concat_vectors(parts).take(back)

    def rewrite(self, data: list[Any]) -> None:
        """Replace the whole column (UPDATE path), preserving the
        existing row-group boundaries so sibling columns — and their zone
        maps — stay segment-aligned."""
        self.seal()
        counts = [self.segment_rows(i) for i in range(self.segment_count())]
        segments = self._resealed(data, counts)
        with self._seal_lock:
            self.segments = segments

    def _resealed(self, data: list[Any], counts: list[int]) -> list[Vector]:
        """``data`` as segments of ``counts`` rows each, any remainder (a
        previously empty column) at vector size; converted before the
        caller replaces anything."""
        cuts = [0, *itertools.accumulate(counts)]
        cuts += range(cuts[-1] + STANDARD_VECTOR_SIZE, len(data),
                      STANDARD_VECTOR_SIZE)
        if cuts[-1] < len(data):
            cuts.append(len(data))
        return [Vector.from_values(self.ltype, data[start:stop])
                for start, stop in zip(cuts, cuts[1:])]


class BaseTable:
    """What both engines' tables share: the schema the binder and the
    optimizer read, the attached indexes, optimizer statistics, and the
    tombstones of deleted rows (a row id never moves)."""

    def __init__(self, name: str, columns: list[tuple[str, LogicalType]]):
        if not columns:
            raise CatalogError("a table needs at least one column")
        self.name = name
        self.column_names = [c[0] for c in columns]
        self.column_types = [c[1] for c in columns]
        lowered = [c.lower() for c in self.column_names]
        if len(set(lowered)) != len(lowered):
            raise CatalogError(f"duplicate column name in table {name!r}")
        self._deleted_ids: set[int] = set()
        self.indexes: list["TableIndex"] = []
        #: per-table optimizer statistics (repro.quack.stats.TableStats):
        #: gathered by ANALYZE, or by the connection before it plans a
        #: join over the table while they are missing or stale
        #: (``stats.needs_analyze``: PostgreSQL's autovacuum rule over
        #: ``changes_since_analyze``); None until then.
        self.stats = None
        #: rows inserted, updated or deleted since ``stats`` was gathered
        self.changes_since_analyze = 0

    @property
    def num_columns(self) -> int:
        return len(self.column_types)

    def total_rows(self) -> int:
        """Rows stored, deleted ones included: one past the last row id."""
        raise NotImplementedError

    def num_rows(self) -> int:
        return self.total_rows() - len(self._deleted_ids)

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, col in enumerate(self.column_names):
            if col.lower() == lowered:
                return i
        raise CatalogError(f"column {name!r} not in table {self.name!r}")

    def check_widths(self, rows: Sequence[Sequence[Any]]) -> None:
        """Raise before an append when any row is not one value a column."""
        for row in rows:
            if len(row) != self.num_columns:
                raise ExecutionError(
                    f"expected {self.num_columns} values, got {len(row)}"
                )

    def delete_rows(self, row_ids: Sequence[int]) -> int:
        before = len(self._deleted_ids)
        self._deleted_ids.update(int(r) for r in row_ids)
        deleted = len(self._deleted_ids) - before
        self.changes_since_analyze += deleted
        return deleted

    def live_row_ids(self, row_ids: Sequence[int]) -> list[int]:
        return [int(r) for r in row_ids if int(r) not in self._deleted_ids]


class Table(BaseTable):
    """A named columnar table."""

    def __init__(self, name: str, columns: list[tuple[str, LogicalType]]):
        super().__init__(name, columns)
        self._columns = [ColumnData(t) for t in self.column_types]
        #: lazily-built per-row-group zone maps (storage.ZoneMapEntry per
        #: column, one list per sealed segment).  Sealed segments are
        #: immutable, so appends only *extend* this cache — a rewrite
        #: (UPDATE) resets it so pruning never trusts stale bounds.
        self._zone_cache: list[list] = []
        # Two client threads sharing a database and extending the lazy
        # zone cache concurrently would interleave duplicate segment
        # entries; same discipline as ColumnData._seal_lock.
        self._zone_lock = threading.Lock()

    def total_rows(self) -> int:
        return len(self._columns[0])

    # -- mutation -----------------------------------------------------------------

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> np.ndarray:
        """Append rows; returns their row ids and feeds attached indexes.
        Each batch of :data:`STANDARD_VECTOR_SIZE` rows is transposed once
        and converted column by column, all before the first append: a
        row of the wrong width or a value its column cannot hold raises
        and leaves the table as it was."""
        self.check_widths(rows)
        batches = [
            [Vector.from_values(ltype, values) for ltype, values in
             zip(self.column_types, zip(*rows[at:at + STANDARD_VECTOR_SIZE]))]
            for at in range(0, len(rows), STANDARD_VECTOR_SIZE)
        ]
        start = self.total_rows()
        for batch in batches:
            for col, vector in zip(self._columns, batch):
                col.push(vector)
        row_ids = np.arange(start, start + len(rows), dtype=np.int64)
        self.changes_since_analyze += len(rows)
        for index in self.indexes:
            column = self.column_index(index.column)
            index.append([row[column] for row in rows], row_ids.tolist())
        return row_ids

    def append_chunk(self, chunk: DataChunk) -> np.ndarray:
        """Append a chunk of rows column-wise, as one sealed segment;
        returns their row ids and feeds attached indexes."""
        if len(chunk.vectors) != self.num_columns:
            raise ExecutionError(
                f"expected {self.num_columns} values, "
                f"got {len(chunk.vectors)}"
            )
        start = self.total_rows()
        for col, vector in zip(self._columns, chunk.vectors):
            col.append_vector(vector)
        row_ids = np.arange(start, start + chunk.count, dtype=np.int64)
        self.changes_since_analyze += chunk.count
        for index in self.indexes:
            vector = chunk.column(self.column_index(index.column))
            index.append(vector.to_list(), row_ids.tolist())
        return row_ids

    def update_rows(self, row_ids: Sequence[int], positions: Sequence[int],
                    values: Sequence[Sequence[Any]]) -> None:
        """UPDATE: set column ``positions[k]`` of row ``row_ids[i]`` to
        ``values[k][i]``.  Each assigned column is rewritten once, keeping
        its row-group boundaries; then the zone maps are dropped and the
        indexes rebuilt, once."""
        everything = np.arange(self.total_rows(), dtype=np.int64)
        for position, new in zip(positions, values):
            column = self._columns[position]
            data = column.gather(everything).to_list()
            for row_id, value in zip(row_ids, new):
                data[row_id] = value
            column.rewrite(data)
        self._zone_cache = []
        for index in self.indexes:
            index.rebuild(self)

    # -- zone maps ----------------------------------------------------------------

    def zone_maps(self) -> list[list] | None:
        """Per-sealed-segment zone maps, one entry list per column.

        Returns ``None`` when the columns are not uniformly segmented
        (e.g. after a whole-vector append) — pruning by segment index
        would then be unsound.  Entries are conservative under
        tombstones: a pruned group provably holds no matching stored
        row, deleted or not.
        """
        for col in self._columns:
            col.seal()
        num_segments = self._columns[0].segment_count()
        for col in self._columns[1:]:
            if col.segment_count() != num_segments:
                return None
        for seg in range(num_segments):
            rows = self._columns[0].segment_rows(seg)
            if any(col.segment_rows(seg) != rows
                   for col in self._columns[1:]):
                return None
        with self._zone_lock:
            while len(self._zone_cache) < num_segments:
                seg = len(self._zone_cache)
                self._zone_cache.append(
                    [col.zone_entry(seg) for col in self._columns]
                )
            return self._zone_cache[:num_segments]

    # -- scan ---------------------------------------------------------------------

    def segment_masks(
        self
    ) -> Iterator[tuple[int, int, int, np.ndarray | None]]:
        """``(segment, first row id, rows, keep)`` per sealed segment;
        ``keep`` masks the live rows, ``None`` when the segment holds no
        tombstone."""
        for col in self._columns:
            col.seal()
        deleted = np.sort(np.fromiter(self._deleted_ids, dtype=np.int64,
                                      count=len(self._deleted_ids)))
        offset = 0
        first = self._columns[0]
        for seg in range(first.segment_count()):
            count = first.segment_rows(seg)
            keep = None
            lo, hi = np.searchsorted(deleted, (offset, offset + count))
            if lo < hi:
                keep = np.ones(count, dtype=np.bool_)
                keep[deleted[lo:hi] - offset] = False
            yield seg, offset, count, keep
            offset += count

    def scan(
        self, skip_groups: set[int] | None = None,
        columns: Sequence[int] | None = None,
    ) -> Iterator[tuple[DataChunk, np.ndarray]]:
        """Yield (chunk, row_ids) over live rows, one entry per sealed
        segment; ``skip_groups`` elides row groups by segment index
        without materializing them (zone-map pruning), and ``columns``
        (table column indices, all when None) picks the columns read, so
        a stored segment of any other column is never decoded."""
        read, row_id = self._read(columns)
        for seg, offset, count, keep in self.segment_masks():
            if skip_groups and seg in skip_groups:
                continue
            vectors = [col.segment_vector(seg) for col in read]
            row_ids = np.arange(offset, offset + count, dtype=np.int64)
            if keep is not None:
                vectors = [v.slice(keep) for v in vectors]
                row_ids = row_ids[keep]
            if row_id:
                vectors.append(Vector(BIGINT, row_ids))
            yield DataChunk(vectors), row_ids

    def scan_column(self, name: str) -> Iterator[tuple[list, list[int]]]:
        """``(values, row ids)`` of one column's live rows per row group:
        what an index build reads."""
        for chunk, row_ids in self.scan(columns=[self.column_index(name)]):
            yield chunk.vectors[0].to_list(), row_ids.tolist()

    def fetch(self, row_ids: np.ndarray,
              columns: Sequence[int] | None = None) -> DataChunk:
        """Random-access fetch of the live ``row_ids`` (index scan path,
        paper §4.3): the ``columns`` listed (table column indices, all
        when None)."""
        live = np.asarray(row_ids, dtype=np.int64)
        if self._deleted_ids:
            live = np.asarray(self.live_row_ids(live), dtype=np.int64)
        read, row_id = self._read(columns)
        vectors = [col.gather(live) for col in read]
        if row_id:
            vectors.append(Vector(BIGINT, live))
        return DataChunk(vectors)

    def _read(self, columns: Sequence[int] | None
              ) -> tuple[list[ColumnData], bool]:
        """The stored columns ``columns`` lists, and whether it ends with
        the row id (index ``num_columns``, :data:`repro.quack.plan.ROW_ID`)."""
        if columns is None:
            return self._columns, False
        row_id = bool(columns) and columns[-1] == self.num_columns
        if row_id:
            columns = columns[:-1]
        return [self._columns[c] for c in columns], row_id


class TableIndex:
    """An index on one column, fed by its table on either engine
    (concrete: :class:`repro.index.BoxIndex` and pgsim's B-tree)."""

    def __init__(self, name: str, table: Table, column: str,
                 type_name: str):
        self.name = name
        self.table = table
        self.column = column
        self.type_name = type_name

    # Incremental append (paper §4.2.1): the indexed column's values and
    # the row ids of appended rows, as Python sequences.
    def append(self, values: Sequence[Any], row_ids: Sequence[int]) -> None:
        raise NotImplementedError

    # Full build over the live rows of ``table.scan_column`` (CREATE
    # INDEX, UPDATE).
    def rebuild(self, table: Table) -> None:
        raise NotImplementedError

    # Scan matching (paper §4.3): return row ids or None if unsupported.
    def probe(self, op_name: str, constant: Any) -> list[int] | None:
        raise NotImplementedError

    # Batched probe: one candidate list per value (None entries for
    # values that cannot be probed, e.g. NULL).
    def probe_batch(
        self, op_name: str, values: Sequence[Any]
    ) -> list[list[int] | None]:
        raise NotImplementedError

    # Whether the index serves ``column <op> constant`` (a join probe
    # passes None for the constant).
    def matches(self, op_name: str, column_name: str, constant: Any) -> bool:
        raise NotImplementedError


@dataclass
class IndexType:
    """A pluggable index type (paper §4.1 ``IndexType`` registration):
    ``create_instance(name, table, column)`` builds the index."""

    name: str
    create_instance: Callable[..., TableIndex]


class IndexTypeRegistry:
    def __init__(self):
        self._types: dict[str, IndexType] = {}

    def register(self, index_type: IndexType) -> None:
        self._types[index_type.name.upper()] = index_type

    def lookup(self, name: str) -> IndexType:
        found = self._types.get(name.upper())
        if found is None:
            raise CatalogError(f"unknown index type {name!r}")
        return found

    def known(self, name: str) -> bool:
        return name.upper() in self._types


class Catalog:
    """Named tables and indexes of one database."""

    def __init__(self):
        self.tables: dict[str, Table] = {}
        self.indexes: dict[str, TableIndex] = {}

    def create_table(self, table: Table, or_replace: bool = False) -> None:
        key = table.name.lower()
        if key in self.tables and not or_replace:
            raise CatalogError(f"table {table.name!r} already exists")
        self.tables[key] = table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self.tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        table = self.tables.pop(key)
        for index in table.indexes:
            self.indexes.pop(index.name.lower(), None)

    def get_table(self, name: str) -> Table:
        found = self.tables.get(name.lower())
        if found is None:
            raise CatalogError(f"table {name!r} does not exist")
        return found

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def add_index(self, index: TableIndex) -> None:
        key = index.name.lower()
        if key in self.indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        self.indexes[key] = index
        index.table.indexes.append(index)
