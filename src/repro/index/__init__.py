"""repro.index — the R-tree and the one box index built on it."""

from .boxindex import BoxIndex, BoxIndexType, UNBOUNDED, box_rect, value_box
from .rtree import RTree, rect_contains, rect_overlaps, rect_union, rect_volume

__all__ = [
    "BoxIndex",
    "BoxIndexType",
    "RTree",
    "UNBOUNDED",
    "box_rect",
    "rect_contains",
    "rect_overlaps",
    "rect_union",
    "rect_volume",
    "value_box",
]
