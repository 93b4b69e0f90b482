"""Row-oriented storage for the PostgreSQL-like baseline engine.

Tables hold Python row tuples (heap order), the analogue of PostgreSQL's
row store; a datum too large for the row is TOASTed (:func:`toast`).
A :class:`RowTable` is a :class:`repro.quack.catalog.BaseTable` (the
schema, indexes, statistics and tombstones both engines share) and feeds
its indexes through quack's ``TableIndex`` protocol (``append``,
``rebuild`` over ``scan_column``).
"""

from __future__ import annotations

import zlib
from typing import Any, Iterator, Sequence

from ..observability import count as _count
from ..quack.catalog import BaseTable
from ..quack.types import LogicalType

#: PostgreSQL's ``TOAST_TUPLE_THRESHOLD``: a datum whose flat layout is
#: larger is compressed and moved out of line; a smaller one stays in the
#: heap row and is read in place, as MEOS reads a MobilityDB varlena.
TOAST_THRESHOLD = 2032


class Varlena:
    """A TOAST pointer: the compressed flat layout of an out-of-line
    datum, and the type's codec that reads it back."""

    __slots__ = ("codec", "blob")

    def __init__(self, codec: Any, blob: bytes):
        self.codec = codec
        self.blob = blob

    def load(self) -> Any:
        """Detoast: inflate and decode the layout (paid per datum access,
        like PostgreSQL's fetch of an out-of-line value)."""
        _count("pgsim.detoast")
        _count("pgsim.detoast_bytes", len(self.blob))
        return self.codec.decode_datum(zlib.decompress(self.blob))

    def __repr__(self) -> str:
        return f"<Varlena {self.codec.name} {len(self.blob)} bytes>"


def toast(value: Any, ltype: LogicalType) -> Any:
    """The heap datum of a ``ltype`` value: a TOAST pointer when the
    type's codec lays it out in more than :data:`TOAST_THRESHOLD` bytes,
    else the value itself (no codec, a declined value, a small layout)."""
    codec = ltype.codec
    if codec is None or value is None or isinstance(value, Varlena):
        return value
    layout = codec.encode_datum(value)
    if layout is None or len(layout) <= TOAST_THRESHOLD:
        return value
    _count("pgsim.toast_out_of_line")
    return Varlena(codec, zlib.compress(layout))


def detoast(value: Any) -> Any:
    """Unwrap a heap datum (no-op for inline values)."""
    if isinstance(value, Varlena):
        return value.load()
    return value


class RowTable(BaseTable):
    """A heap of row tuples."""

    def __init__(self, name: str, columns: list[tuple[str, LogicalType]]):
        super().__init__(name, columns)
        self.rows: list[tuple] = []

    def total_rows(self) -> int:
        return len(self.rows)

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> list[int]:
        self.check_widths(rows)
        self.check_values(list(zip(*rows)))
        start = len(self.rows)
        for row in rows:
            self.rows.append(self._heap_row(row))
        row_ids = list(range(start, len(self.rows)))
        self.changes_since_analyze += len(row_ids)
        for index in self.indexes:
            column = self.column_index(index.column)
            index.append([self.rows[rid][column] for rid in row_ids], row_ids)
        return row_ids

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield (row_id, row) for live rows, heap order."""
        deleted = self._deleted_ids
        for rid, row in enumerate(self.rows):
            if rid not in deleted:
                yield rid, row

    def scan_column(self, name: str) -> Iterator[tuple[list, list[int]]]:
        """``(heap datums, row ids)`` of one column's live rows, in one
        batch: what an index build reads."""
        column = self.column_index(name)
        live = list(self.scan())
        yield [row[column] for _, row in live], [rid for rid, _ in live]

    def fetch(self, row_id: int) -> tuple | None:
        if row_id in self._deleted_ids or not 0 <= row_id < len(self.rows):
            return None
        return self.rows[row_id]

    def update_rows(self, row_ids: Sequence[int], positions: Sequence[int],
                    values: Sequence[Sequence[Any]]) -> None:
        """UPDATE: set column ``positions[k]`` of row ``row_ids[i]`` to
        ``values[k][i]``.  Only the assigned datums are TOASTed again; an
        unassigned one keeps its heap datum, so a TOAST pointer stays the
        same pointer.  The indexes rebuild once."""
        types = [self.column_types[p] for p in positions]
        for i, row_id in enumerate(row_ids):
            row = list(self.rows[row_id])
            for position, ltype, column in zip(positions, types, values):
                row[position] = toast(column[i], ltype)
            self.rows[row_id] = tuple(row)
        for index in self.indexes:
            index.rebuild(self)

    def _heap_row(self, row: Sequence[Any]) -> tuple:
        return tuple(map(toast, row, self.column_types))

