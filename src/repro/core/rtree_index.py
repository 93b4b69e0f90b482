"""The MobilityDuck ``TRTREE`` index on ``stbox`` columns (paper §4).

Implements both construction scenarios of §4.2:

* **Incremental (index-first)** — :meth:`RTreeIndex.append` is called when
  rows are inserted into an already-indexed table; it evaluates the index
  expression on the new chunk and feeds ``rtree_insert``.
* **Bulk (data-first)** — ``CREATE INDEX`` over existing data runs the
  three-phase pipeline: :meth:`RTreeIndex.sink` collects per-"thread"
  partitions, :meth:`RTreeIndex.combine` merges them, and
  :meth:`RTreeIndex.bulk_construct` packs the R-tree (STR).

Probing supports the spatial overlap operator ``&&`` between the indexed
stbox column and a constant stbox (§4.3); the query SRID is normalized to
the index SRID before the R-tree search, and candidates are rechecked by
the engine's residual filter.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .. import geo
from ..index import RTree
from ..meos import STBox
from ..observability import count as _count
from ..quack.catalog import IndexType, TableIndex
from ..quack.vector import DataChunk

#: Avoid a naming conflict with DuckDB-Spatial's RTREE (paper §4.1).
TYPE_NAME = "TRTREE"

_UNBOUNDED = 4e18


def stbox_to_rect(box: STBox) -> tuple[float, ...] | None:
    """stbox -> 3D rectangle (x, y, t), unbounded dims padded out."""
    if box is None:
        return None
    if box.has_x:
        xmin, ymin, xmax, ymax = box.xmin, box.ymin, box.xmax, box.ymax
    else:
        xmin = ymin = -_UNBOUNDED
        xmax = ymax = _UNBOUNDED
    if box.has_t:
        tmin, tmax = float(box.tspan.lower), float(box.tspan.upper)
    else:
        tmin, tmax = -_UNBOUNDED, _UNBOUNDED
    return (xmin, ymin, tmin, xmax, ymax, tmax)


def _coerce_stbox(value: Any) -> STBox | None:
    if value is None:
        return None
    if isinstance(value, STBox):
        return value
    if isinstance(value, str):
        return STBox.parse(value)
    if isinstance(value, geo.Geometry):
        return STBox.from_geometry(value)
    if hasattr(value, "stbox"):
        return value.stbox()
    return None


class RTreeIndex(TableIndex):
    """R-tree index instance attached to one stbox column."""

    SUPPORTED_OPS = ("&&", "@>", "<@")

    def __init__(self, name: str, table, column: str, database=None):
        super().__init__(name, table, column, TYPE_NAME)
        self._column_index = table.column_index(column)
        self._tree = RTree(dimensions=3)
        self._srid = 0
        #: thread-local collections of the bulk pipeline (phase 1)
        self._local_states: list[list[tuple[tuple[float, ...], int]]] = []
        self._build_from_table(table)

    # -- §4.2.2 bulk pipeline --------------------------------------------------------

    def _build_from_table(self, table) -> None:
        """CREATE INDEX over existing data: Sink -> Combine -> BulkConstruct."""
        self._local_states = []
        for chunk, row_ids in table.scan():
            # Each scan partition plays the role of one worker thread.
            self.sink(chunk, row_ids)
        entries = self.combine()
        self.bulk_construct(entries)

    def sink(self, chunk: DataChunk, row_ids: np.ndarray) -> None:
        """Phase 1: collect (rect, rowid) pairs into thread-local storage."""
        local: list[tuple[tuple[float, ...], int]] = []
        vector = chunk.column(self._column_index)
        for value, row_id in zip(vector.to_list(), row_ids.tolist()):
            box = _coerce_stbox(value)
            if box is None:
                continue
            box = self._normalize_srid(box)
            rect = stbox_to_rect(box)
            if rect is not None:
                local.append((rect, row_id))
        self._local_states.append(local)

    def combine(self) -> list[tuple[tuple[float, ...], int]]:
        """Phase 2: merge thread-local collections (mutex-protected in the
        paper; single-threaded here)."""
        merged: list[tuple[tuple[float, ...], int]] = []
        for local in self._local_states:
            merged.extend(local)
        self._local_states = []
        return merged

    def bulk_construct(
        self, entries: list[tuple[tuple[float, ...], int]]
    ) -> None:
        """Phase 3: STR-pack all entries into the R-tree."""
        if entries:
            self._tree = RTree.bulk_load(entries, dimensions=3)
        else:
            self._tree = RTree(dimensions=3)

    # -- §4.2.1 incremental append -----------------------------------------------------

    def append(self, chunk: DataChunk, row_ids: np.ndarray) -> None:
        """Evaluate the index expression on appended data and insert
        (the paper's ``RTreeIndex::Append`` -> ``Construct`` ->
        ``rtree_insert`` path)."""
        vector = chunk.column(self._column_index)
        for value, row_id in zip(vector.to_list(), row_ids.tolist()):
            box = _coerce_stbox(value)
            if box is None:
                continue
            box = self._normalize_srid(box)
            rect = stbox_to_rect(box)
            if rect is not None:
                self._tree.insert(rect, row_id)

    def rebuild(self, table) -> None:
        self._tree = RTree(dimensions=3)
        self._build_from_table(table)

    # -- §4.3 scan matching --------------------------------------------------------------

    def matches(self, op_name: str, column_name: str, constant: Any) -> bool:
        if column_name.lower() != self.column.lower():
            return False
        if op_name not in self.SUPPORTED_OPS:
            return False
        if constant is None:  # join probe: operand type unknown until run
            return True
        return _coerce_stbox(constant) is not None

    def probe(self, op_name: str, constant: Any) -> list[int] | None:
        box = _coerce_stbox(constant)
        if box is None:
            return None
        box = self._normalize_srid(box)
        rect = stbox_to_rect(box)
        if op_name in ("&&", "<@", "@>"):
            # Overlap search over bounding rectangles; the residual filter
            # rechecks the exact operator on the candidates.
            candidates = self._tree.search(rect)
            _count("index.trtree.probes")
            _count("index.trtree.candidates", len(candidates))
            return candidates
        return None

    def probe_batch(
        self, op_name: str, values: Sequence[Any]
    ) -> list[list[int] | None]:
        """Probe many values in one R-tree traversal (§4.3 batched).

        Entries whose value cannot be coerced to an stbox come back as
        None (no candidates); an unsupported operator probes value by
        value, like the base class.
        """
        if op_name not in ("&&", "<@", "@>"):
            return super().probe_batch(op_name, values)
        out: list[list[int] | None] = [None] * len(values)
        rects: list[tuple[float, ...]] = []
        slots: list[int] = []
        for i, value in enumerate(values):
            box = _coerce_stbox(value)
            if box is None:
                continue
            box = self._normalize_srid(box)
            rect = stbox_to_rect(box)
            if rect is None:
                continue
            rects.append(rect)
            slots.append(i)
        if rects:
            results = self._tree.search_batch(rects)
            for slot, candidates in zip(slots, results):
                out[slot] = candidates
            _count("index.trtree.batch_probes", len(rects))
            _count("index.trtree.batches")
            _count(
                "index.trtree.candidates",
                sum(len(c) for c in results),
            )
        return out

    def _normalize_srid(self, box: STBox) -> STBox:
        """SRID normalization of §4.2.2/§4.3: all entries and queries are
        brought to the SRID of the first indexed value."""
        if box.srid == 0:
            return box
        if self._srid == 0:
            self._srid = box.srid
            return box
        if box.srid != self._srid:
            return box.transform(self._srid)
        return box

    def __len__(self) -> int:
        return len(self._tree)


class RTreeModule:
    """Registration entry point (paper §4.1 ``RegisterRTreeIndex``)."""

    @staticmethod
    def register_rtree_index(database) -> None:
        index_type = IndexType(
            TYPE_NAME,
            lambda name, table, column, database=None: RTreeIndex(
                name, table, column, database
            ),
        )
        database.config.index_types.register(index_type)
