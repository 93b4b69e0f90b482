"""The one box index over :class:`RTree`: TRTREE, RTREE and GiST (paper §4).

An index type is data (:class:`BoxIndexType`); every instance is a
:class:`BoxIndex`, which either engine's table feeds through quack's
``TableIndex`` protocol.  ``CREATE INDEX`` runs the §4.2.2 pipeline —
``sink`` per scan partition, ``combine``, ``bulk_construct`` (STR) — or,
for a type built like PostgreSQL's GiST, inserts row by row; ``append``
inserts appended rows (§4.2.1).  ``probe``/``probe_batch`` return the
rows whose rectangles overlap the probe's (§4.3); the engine rechecks
the exact predicate on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..observability import count as _count
from ..quack.boxes import Box, bounding_box
from ..quack.catalog import TableIndex
from .rtree import Rect, RTree

#: Half-range of a dimension a value does not have.
UNBOUNDED = 4e18
_EVERYWHERE = (-UNBOUNDED, UNBOUNDED)


@dataclass(frozen=True)
class BoxIndexType:
    """All that TRTREE, RTREE and GiST differ in: the ``USING`` name, the
    (lower-case) operators served, a value's box (:func:`bounding_box`
    of the value, or of what it stands for), the box axes the rectangles
    span, and whether ``CREATE INDEX`` STR-packs the rows (``bulk``) or
    inserts them one by one."""

    name: str
    ops: tuple[str, ...]
    box: Callable[[Any], Box | None] = bounding_box
    axes: str = "xyt"
    bulk: bool = True


class BoxIndex(TableIndex):
    """An R-tree over the rectangles of one column's values."""

    def __init__(self, name: str, table, column: str, kind: BoxIndexType):
        super().__init__(name, table, column, kind.name)
        self.kind = kind
        self._key = kind.name.lower()
        self.rebuild(table)

    def rect(self, value: Any) -> Rect | None:
        """The rectangle a probe of ``value`` searches: its box's, or
        everywhere when an entry's box has another SRID, since the exact
        operator raises on that entry as in a sequential scan.  None
        when the value has no box: it is neither indexed nor probed."""
        box = self.kind.box(value)
        if box is None:
            return None
        axes, srid = box
        return self._pad({} if srid and self._srids - {srid} else axes)

    def _pad(self, axes: dict) -> Rect:
        """The rectangle of a box; an axis it lacks spans ``±UNBOUNDED``."""
        sides = [axes.get(axis, _EVERYWHERE) for axis in self.kind.axes]
        return (*(lo for lo, _ in sides), *(hi for _, hi in sides))

    def __len__(self) -> int:
        return len(self._tree)

    # -- construction (§4.2) ---------------------------------------------------------

    def rebuild(self, table) -> None:
        """Build over the table's live rows (CREATE INDEX, UPDATE)."""
        self._tree = RTree(len(self.kind.axes))
        #: the nonzero SRIDs of the entries' boxes
        self._srids: set[int] = set()
        #: per-partition entries of the bulk pipeline (phase 1)
        self._partitions: list[list[tuple[Rect, int]]] = []
        for values, row_ids in table.scan_column(self.column):
            if self.kind.bulk:  # each scan partition plays one thread
                self.sink(values, row_ids)
            else:
                self.append(values, row_ids)
        if self.kind.bulk:
            self.bulk_construct(self.combine())

    def sink(self, values: Sequence[Any], row_ids: Sequence[int]) -> None:
        """Phase 1: collect one partition's (rect, row id) entries."""
        self._partitions.append(self._entries(values, row_ids))

    def combine(self) -> list[tuple[Rect, int]]:
        """Phase 2: merge the partitions (mutex-protected in the paper;
        serial here)."""
        merged = [entry for part in self._partitions for entry in part]
        self._partitions = []
        return merged

    def bulk_construct(self, entries: list[tuple[Rect, int]]) -> None:
        """Phase 3: STR-pack all entries into the tree."""
        self._tree = RTree.bulk_load(entries, len(self.kind.axes))

    def append(self, values: Sequence[Any], row_ids: Sequence[int]) -> None:
        """Insert appended rows one at a time (the paper's
        ``RTreeIndex::Append`` -> ``rtree_insert``)."""
        for rect, row_id in self._entries(values, row_ids):
            self._tree.insert(rect, row_id)

    def _entries(self, values: Sequence[Any],
                 row_ids: Sequence[int]) -> list[tuple[Rect, int]]:
        entries = []
        for value, row_id in zip(values, row_ids):
            box = self.kind.box(value)
            if box is not None:
                entries.append((self._pad(box[0]), row_id))
                if box[1]:
                    self._srids.add(box[1])
        return entries

    # -- scan matching (§4.3) --------------------------------------------------------

    def matches(self, op_name: str, column_name: str, constant: Any) -> bool:
        # A join probe's operand (None here) is only known at run time.
        return (column_name.lower() == self.column.lower()
                and op_name.lower() in self.kind.ops
                and (constant is None or self.rect(constant) is not None))

    def probe(self, op_name: str, constant: Any) -> list[int] | None:
        if op_name.lower() not in self.kind.ops or \
                (rect := self.rect(constant)) is None:
            return None
        candidates = self._tree.search(rect)
        _count(f"index.{self._key}.probes")
        _count(f"index.{self._key}.candidates", len(candidates))
        return candidates

    def probe_batch(
        self, op_name: str, values: Sequence[Any]
    ) -> list[list[int] | None]:
        """Probe a chunk's values in one tree traversal; a value with no
        rectangle (NULL, no box) gets None."""
        out: list[list[int] | None] = [None] * len(values)
        if op_name.lower() not in self.kind.ops:
            return out
        rects = {slot: rect for slot, value in enumerate(values)
                 if (rect := self.rect(value)) is not None}
        if rects:
            results = self._tree.search_batch(list(rects.values()))
            for slot, candidates in zip(rects, results):
                out[slot] = candidates
            _count(f"index.{self._key}.batch_probes", len(rects))
            _count(f"index.{self._key}.batches")
            _count(f"index.{self._key}.candidates",
                   sum(len(c) for c in results))
        return out
