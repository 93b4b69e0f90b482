"""GiST and B-tree indexes for the row-store baseline.

MobilityDB accelerates spatiotemporal predicates with GiST indexes over
the bounding boxes of temporal values; the baseline's GIST is the box
index (:class:`repro.index.BoxIndex`) over the (x, y, t) rectangle of
each value's box (:func:`repro.quack.boxes.bounding_box`), built the way
PostgreSQL builds a GiST — row by row — and reading each heap datum
through its detoast.  BTREE serves equality on scalar columns.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..index import BoxIndex, BoxIndexType
from ..observability import count as _count
from ..quack.boxes import bounding_box
from ..quack.catalog import TableIndex
from ..quack.errors import ExecutionError
from ..quack.keys import hashable_key
from .table import detoast

GIST = BoxIndexType(
    "GIST", ("&&", "@>", "<@"), lambda value: bounding_box(detoast(value)),
    bulk=False,
)


class GistIndex(BoxIndex):
    """The GIST index on one column (the MobilityDB GiST analogue)."""

    def __init__(self, name: str, table, column: str):
        super().__init__(name, table, column, GIST)


class BTreeIndex(TableIndex):
    """Hash map over one scalar column serving equality probes, keyed
    with SQL ``=``'s semantics (NaN finds NaN, ``-0.0`` finds ``0.0``)."""

    def __init__(self, name: str, table, column: str):
        super().__init__(name, table, column, "BTREE")
        self._map: dict[Any, list[int]] = {}
        self.rebuild(table)

    def append(self, values: Sequence[Any], row_ids: Sequence[int]) -> None:
        for value, row_id in zip(values, row_ids):
            value = detoast(value)
            if value is None:
                continue
            try:
                self._map.setdefault(hashable_key(value), []).append(row_id)
            except TypeError:
                raise ExecutionError(
                    f"unhashable value in BTREE index {self.name!r}"
                ) from None

    def rebuild(self, table) -> None:
        self._map = {}
        for values, row_ids in table.scan_column(self.column):
            self.append(values, row_ids)

    def matches(self, op_name: str, column_name: str, constant: Any) -> bool:
        return column_name.lower() == self.column.lower() and op_name == "="

    def probe(self, op_name: str, constant: Any) -> list[int] | None:
        if op_name != "=":
            return None
        candidates = list(self._map.get(hashable_key(constant), ()))
        _count("index.btree.probes")
        _count("index.btree.candidates", len(candidates))
        return candidates
