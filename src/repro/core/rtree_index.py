"""The MobilityDuck ``TRTREE`` index (paper §4).

A :class:`repro.index.BoxIndex` over the (x, y, t) rectangles of an
``stbox`` column — or of any value with a box
(:func:`repro.quack.boxes.bounding_box`: temporal values, geometries,
time spans, tboxes) — serving ``&&``, ``@>`` and ``<@``: STR bulk load
on ``CREATE INDEX`` (§4.2.2), quadratic insert on append (§4.2.1).
"""

from __future__ import annotations

from ..index import BoxIndex, BoxIndexType
from ..quack.catalog import IndexType

#: Avoid a naming conflict with DuckDB-Spatial's RTREE (paper §4.1).
TYPE_NAME = "TRTREE"

TRTREE = BoxIndexType(TYPE_NAME, ("&&", "@>", "<@"))


class RTreeIndex(BoxIndex):
    """The TRTREE index on one column."""

    def __init__(self, name: str, table, column: str):
        super().__init__(name, table, column, TRTREE)


class RTreeModule:
    """Registration entry point (paper §4.1 ``RegisterRTreeIndex``)."""

    @staticmethod
    def register_rtree_index(database) -> None:
        database.config.index_types.register(IndexType(TYPE_NAME, RTreeIndex))
