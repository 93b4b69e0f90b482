"""Row-oriented storage for the PostgreSQL-like baseline engine.

Tables hold Python row tuples (heap order), the analogue of PostgreSQL's
row store.  The classes duck-type the parts of :class:`repro.quack.catalog`
that the shared binder/optimizer touch (``column_names``, ``column_types``,
``indexes``, ``column_index``).
"""

from __future__ import annotations

import pickle
from typing import Any, Iterator, Sequence

from .. import geo
from ..meos import Set, Span, SpanSet, STBox, TBox, Temporal
from ..observability import count as _count
from ..quack.errors import CatalogError, ExecutionError
from ..quack.types import LogicalType

#: Types stored out-of-line as serialized varlena payloads, like
#: PostgreSQL TOAST. MobilityDB temporal values are exactly such payloads;
#: every datum access in the row engine pays a deserialization, which is
#: the architectural overhead the paper measures against (§2.1, §6.3).
_VARLENA_TYPES = (Temporal, Span, SpanSet, Set, TBox, STBox, geo.Geometry)


class Varlena:
    """A serialized (TOASTed) value inside a heap row."""

    __slots__ = ("blob",)

    def __init__(self, blob: bytes):
        self.blob = blob

    @classmethod
    def wrap(cls, value: Any) -> "Varlena":
        return cls(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def load(self) -> Any:
        """Detoast: deserialize the payload (paid per datum access).

        The per-access deserialization cost is the row engine's
        architectural overhead (§2.1); ``pgsim.detoast`` counts how
        often a query pays it."""
        _count("pgsim.detoast")
        return pickle.loads(self.blob)

    def __repr__(self) -> str:
        return f"<Varlena {len(self.blob)} bytes>"


def toast(value: Any) -> Any:
    """Wrap heavy values for heap storage; scalars stay inline."""
    if isinstance(value, _VARLENA_TYPES):
        return Varlena.wrap(value)
    return value


def detoast(value: Any) -> Any:
    """Unwrap a heap datum (no-op for inline scalars)."""
    if isinstance(value, Varlena):
        return value.load()
    return value


class RowTable:
    """A heap of row tuples."""

    def __init__(self, name: str, columns: list[tuple[str, LogicalType]]):
        if not columns:
            raise CatalogError("a table needs at least one column")
        self.name = name
        self.column_names = [c[0] for c in columns]
        self.column_types = [c[1] for c in columns]
        self.rows: list[tuple] = []
        self._deleted: set[int] = set()
        self.indexes: list = []

    @property
    def num_columns(self) -> int:
        return len(self.column_names)

    def num_rows(self) -> int:
        return len(self.rows) - len(self._deleted)

    def total_rows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, col in enumerate(self.column_names):
            if col.lower() == lowered:
                return i
        raise CatalogError(f"column {name!r} not in table {self.name!r}")

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> list[int]:
        start = len(self.rows)
        for row in rows:
            if len(row) != self.num_columns:
                raise ExecutionError(
                    f"expected {self.num_columns} values, got {len(row)}"
                )
            self.rows.append(tuple(toast(v) for v in row))
        row_ids = list(range(start, len(self.rows)))
        for index in self.indexes:
            for rid in row_ids:
                index.insert_row(self.rows[rid], rid)
        return row_ids

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield (row_id, row) for live rows, heap order."""
        deleted = self._deleted
        for rid, row in enumerate(self.rows):
            if rid not in deleted:
                yield rid, row

    def fetch(self, row_id: int) -> tuple | None:
        if row_id in self._deleted or not 0 <= row_id < len(self.rows):
            return None
        return self.rows[row_id]

    def delete_rows(self, row_ids: Sequence[int]) -> int:
        before = len(self._deleted)
        self._deleted.update(int(r) for r in row_ids)
        return len(self._deleted) - before

    def update_row(self, row_id: int, row: tuple) -> None:
        self.rows[row_id] = tuple(toast(v) for v in row)

    def rebuild_indexes(self) -> None:
        for index in self.indexes:
            index.rebuild(self)

