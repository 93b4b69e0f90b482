"""repro.index — the R-tree and the one box index built on it."""

from .boxindex import BoxIndex, BoxIndexType, UNBOUNDED
from .rtree import RTree, rect_contains, rect_overlaps, rect_union, rect_volume

__all__ = [
    "BoxIndex",
    "BoxIndexType",
    "RTree",
    "UNBOUNDED",
    "rect_contains",
    "rect_overlaps",
    "rect_union",
    "rect_volume",
]
