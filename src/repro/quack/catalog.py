"""Catalog and columnar storage.

Tables store data column-wise in sealed segments plus an append tail —
the quack analogue of DuckDB's row groups.  A segment is in memory or a
stored segment of an attached file that decodes on first touch; scans
hand out its vector as it is.  Deletes are tombstones; an update
replaces the segments it touches.

Indexes attach to tables through the pluggable :class:`IndexType` registry
(paper §4.1: ``RegisterIndexType``); the concrete box index behind
``TRTREE``, ``RTREE`` and GiST is :class:`repro.index.BoxIndex`.
"""

from __future__ import annotations

import threading
from functools import partial
from operator import is_not
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..analysis.config import verification_enabled
from .errors import CatalogError, ConversionError, ExecutionError
from .types import BIGINT, LogicalType
from .vector import (
    _PHYSICAL_DTYPES,
    STANDARD_VECTOR_SIZE,
    DataChunk,
    Vector,
    concat_vectors,
)


@dataclass(slots=True, eq=False)
class Segment:
    """One sealed row group of one column.

    ``vector`` holds its rows, or is None while they are still the
    ``stored`` bytes of an attached file (a
    :class:`repro.quack.storage.SegmentRef`), which decode on first
    touch.  ``zone`` caches the segment's zone-map entry; a stored
    segment's comes from the file's footer."""

    rows: int
    vector: Vector | None = None
    stored: Any = None
    zone: Any = None


class ColumnData:
    """One column: its sealed segments in row order, then a tail of the
    vectors appended since, fewer than :data:`STANDARD_VECTOR_SIZE` rows
    in all.

    A segment's vector is the same object for every scan, so the derived
    views cached on it (box arrays, CSR layouts) are built once per
    column, not once per query.  Values are converted when they are
    appended, never when a read seals them.  One lock guards the
    segment list and the first decode of a stored segment: client
    threads sharing a database seal and decode lazily from their
    reads."""

    __slots__ = ("ltype", "segments", "tail", "_lock")

    def __init__(self, ltype: LogicalType):
        self.ltype = ltype
        self.segments: list[Segment] = []
        self.tail: list[Vector] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return sum(s.rows for s in self.segments) + sum(map(len, self.tail))

    def extend(self, values: Sequence[Any]) -> None:
        """Append Python ``values`` (``None``: NULL); one the column
        cannot hold raises :class:`ConversionError` and appends none."""
        self.push(Vector.from_values(self.ltype, values))

    def push(self, vector: Vector) -> None:
        """Append converted rows to the tail; each full
        :data:`STANDARD_VECTOR_SIZE` rows of it seal as a segment."""
        with self._lock:
            self.tail.append(vector)
            if sum(map(len, self.tail)) < STANDARD_VECTOR_SIZE:
                return
            merged, size = self._merged(), STANDARD_VECTOR_SIZE
            pieces = [Vector(self.ltype, merged.data[at:at + size],
                             merged.validity[at:at + size])
                      for at in range(0, len(merged), size)]
            full = len(merged) // size
            self.segments += [Segment(size, p) for p in pieces[:full]]
            self.tail = pieces[full:]

    def _merged(self) -> Vector:
        """The tail's rows as one plain vector of the column's type (a
        pushed vector may be a gather or a view of another: the segment
        keeps its rows, not its source)."""
        dtype = _PHYSICAL_DTYPES[self.ltype.physical]
        if len(self.tail) == 1:
            (only,) = self.tail
            return Vector(self.ltype, np.asarray(only.data, dtype=dtype),
                          only.validity)
        return Vector(self.ltype,
                      np.concatenate([v.data for v in self.tail], dtype=dtype),
                      np.concatenate([v.validity for v in self.tail]))

    def seal(self) -> None:
        if not self.tail:
            return
        with self._lock:
            if self.tail:  # else another thread sealed while we waited
                merged = self._merged()
                self.segments.append(Segment(len(merged), merged))
                self.tail = []

    # -- sealed-segment access ----------------------------------------------------

    def segment_vector(self, index: int) -> Vector:
        """The rows of sealed segment ``index``; a stored one decodes
        once, on first touch."""
        segment = self.segments[index]
        vector = segment.vector
        if vector is None:
            with self._lock:
                if segment.vector is None:
                    segment.vector = segment.stored.decode(self.ltype, index)
                vector = segment.vector
        elif segment.stored is not None and verification_enabled():
            segment.stored.verify(vector, index, segment.zone)
        return vector

    def zone_entry(self, index: int):
        """The zone map of sealed segment ``index``, computed once."""
        segment = self.segments[index]
        if segment.zone is None:
            from .storage import compute_zone_entry

            segment.zone = compute_zone_entry(self.segment_vector(index))
        return segment.zone

    def chunks(self) -> Iterator[Vector]:
        self.seal()
        for index in range(len(self.segments)):
            yield self.segment_vector(index)

    def _by_segment(
        self, row_ids: Sequence[int]
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(segment, positions in row_ids, offsets in the segment)``
        of each sealed segment that global row offsets ``row_ids`` fall
        in, in segment order."""
        self.seal()
        row_ids = np.asarray(row_ids, dtype=np.int64)
        bad = (row_ids < 0) | (row_ids >= len(self))
        if bad.any():
            raise ExecutionError(f"row id {row_ids[bad][0]} out of range")
        bounds = np.cumsum([0] + [s.rows for s in self.segments])
        seg = np.searchsorted(bounds, row_ids, side="right") - 1
        order = np.argsort(seg, kind="stable")
        touched, starts = np.unique(seg[order], return_index=True)
        for s, picks in zip(touched.tolist(), np.split(order, starts[1:])):
            yield s, picks, row_ids[picks] - bounds[s]

    def gather(self, row_ids: np.ndarray) -> Vector:
        """Random access fetch by global row offsets: a gather of the one
        segment the rows fall in, else of each segment's rows."""
        parts = [(picks, self.segment_vector(s).take(offsets))
                 for s, picks, offsets in self._by_segment(row_ids)]
        if len(parts) == 1:
            return parts[0][1]
        if not parts:
            return Vector.empty(self.ltype, 0)
        back = np.empty(len(row_ids), dtype=np.int64)
        back[np.concatenate([picks for picks, _ in parts])] = \
            np.arange(len(row_ids))
        return concat_vectors([part for _, part in parts]).take(back)

    def update(self, row_ids: Sequence[int], values: Sequence[Any]) -> None:
        """Set row ``row_ids[i]`` to ``values[i]`` (UPDATE), converted
        before anything is replaced.  Only the segments holding those
        rows are replaced, by patched in-memory copies; every other
        segment keeps its vector and views, its zone entry and its
        stored bytes."""
        new = Vector.from_values(self.ltype, values)
        replaced = {}
        for s, picks, offsets in self._by_segment(row_ids):
            old = self.segment_vector(s)
            data, validity = old.data.copy(), old.validity.copy()
            data[offsets] = new.data[picks]
            validity[offsets] = new.validity[picks]
            replaced[s] = Segment(len(data),
                                  Vector(self.ltype, data, validity))
        with self._lock:
            for s, segment in replaced.items():
                self.segments[s] = segment


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

    def check_values(self, columns: Sequence[Sequence[Any]]) -> None:
        """Raise :class:`ConversionError` before an append when a column
        of a builtin native type is handed a value it does not hold
        exactly: text in a BOOLEAN or number column, a float in an
        integer one, an int outside int64.  ``columns`` are the rows
        transposed; each is judged by the set of its values' types."""
        for ltype, values in zip(self.column_types, columns):
            if ltype.is_user or ltype.physical == "object":
                continue
            kinds = set(map(type, values))
            refused = (str, float) if ltype.physical == "int64" else (str,)
            for kind in kinds:
                if issubclass(kind, refused):
                    raise ConversionError(f"cannot store a {kind.__name__}"
                                          f" value as {ltype.name}")
            if ltype.physical == "int64" and int in kinds:
                ints = values if type(None) not in kinds else \
                    list(filter(partial(is_not, None), values))
                if min(ints) < -2 ** 63 or max(ints) >= 2 ** 63:
                    raise ConversionError(
                        f"cannot store an int outside int64 as {ltype.name}"
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

    def total_rows(self) -> int:
        return len(self._columns[0])

    def _seal(self) -> None:
        """Seal every column's tail, so all end on the same segment."""
        for col in self._columns:
            col.seal()

    # -- mutation -----------------------------------------------------------------

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> np.ndarray:
        """Append rows; returns their row ids and feeds attached indexes.
        Each batch of :data:`STANDARD_VECTOR_SIZE` rows is transposed once,
        checked and converted column by column, all before the first
        append: a row of the wrong width or a value its column cannot
        hold raises and leaves the table as it was."""
        self.check_widths(rows)
        batches = []
        for at in range(0, len(rows), STANDARD_VECTOR_SIZE):
            columns = list(zip(*rows[at:at + STANDARD_VECTOR_SIZE]))
            self.check_values(columns)
            batches.append([Vector.from_values(ltype, values) for ltype,
                            values in zip(self.column_types, columns)])
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
        """Append a chunk of rows column-wise, each column of its
        target's type; returns their row ids and feeds attached
        indexes."""
        if len(chunk.vectors) != self.num_columns:
            raise ExecutionError(
                f"expected {self.num_columns} values, "
                f"got {len(chunk.vectors)}"
            )
        start = self.total_rows()
        for col, vector in zip(self._columns, chunk.vectors):
            col.push(vector)
        row_ids = np.arange(start, start + chunk.count, dtype=np.int64)
        self.changes_since_analyze += chunk.count
        for index in self.indexes:
            vector = chunk.column(self.column_index(index.column))
            index.append(vector.to_list(), row_ids.tolist())
        return row_ids

    def update_rows(self, row_ids: Sequence[int], positions: Sequence[int],
                    values: Sequence[Sequence[Any]]) -> None:
        """UPDATE: set column ``positions[k]`` of row ``row_ids[i]`` to
        ``values[k][i]``.  Each assigned column replaces only the
        segments that hold those rows (:meth:`ColumnData.update`); then
        the indexes rebuild, once."""
        self._seal()
        for position, new in zip(positions, values):
            self._columns[position].update(row_ids, new)
        for index in self.indexes:
            index.rebuild(self)

    # -- zone maps ----------------------------------------------------------------

    def zone_maps(
        self, columns: Sequence[int] | None = None
    ) -> list[list] | None:
        """Per-sealed-segment zone maps: one entry list per segment,
        holding the entries of ``columns`` in that order (default:
        every column).  A scan asks only for the columns it prunes on,
        so a payload column nothing prunes on lays out no view.  Each
        segment computes an entry once and keeps it until an UPDATE
        replaces the segment.

        Returns ``None`` when the columns are not segmented alike —
        pruning by segment index would then be unsound.  Every table
        write seals all columns at the same rows, so this guards an
        invariant rather than a case that arises.  Entries are
        conservative under tombstones: a pruned group provably holds no
        matching stored row, deleted or not.
        """
        self._seal()
        rows = [[s.rows for s in col.segments] for col in self._columns]
        if any(counts != rows[0] for counts in rows[1:]):
            return None
        picked = self._columns if columns is None else [
            self._columns[c] for c in columns
        ]
        return [[col.zone_entry(seg) for col in picked]
                for seg in range(len(rows[0]))]

    # -- scan ---------------------------------------------------------------------

    def segment_masks(
        self
    ) -> Iterator[tuple[int, int, int, np.ndarray | None]]:
        """``(segment, first row id, rows, keep)`` per sealed segment;
        ``keep`` masks the live rows, ``None`` when the segment holds no
        tombstone."""
        self._seal()
        deleted = np.sort(np.fromiter(self._deleted_ids, dtype=np.int64,
                                      count=len(self._deleted_ids)))
        offset = 0
        for seg, segment in enumerate(self._columns[0].segments):
            count = segment.rows
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
