"""repro.core — the MobilityDuck extension (the paper's contribution).

Registers the MEOS temporal algebra into the quack engine (and into the
row-store baseline) as user-defined types, cast functions, scalar
functions, operators, aggregates, and the ``TRTREE`` R-tree index on
``stbox`` (paper §3–§4).

Quickstart::

    from repro import core
    con = core.connect()          # quack + MobilityDuck
    con.execute("SELECT duration('{1@2025-01-01, 2@2025-01-03}'::TINT, true)")
"""

from . import spatial
from .extension import (
    EXTENSION_NAME,
    connect,
    connect_baseline,
    load,
)
from .rtree_index import RTreeIndex, RTreeModule, TYPE_NAME
from .types import (
    ALL_TYPES,
    GSERIALIZED_TYPE,
    SET_TYPES,
    SPAN_TYPES,
    SPANSET_TYPES,
    STBOX_TYPE,
    TBOX_TYPE,
    TEMPORAL_TYPES,
    TYPE_COVERAGE,
)

__all__ = [
    "ALL_TYPES",
    "EXTENSION_NAME",
    "GSERIALIZED_TYPE",
    "RTreeIndex",
    "RTreeModule",
    "SET_TYPES",
    "SPAN_TYPES",
    "SPANSET_TYPES",
    "STBOX_TYPE",
    "TBOX_TYPE",
    "TEMPORAL_TYPES",
    "TYPE_COVERAGE",
    "TYPE_NAME",
    "connect",
    "connect_baseline",
    "load",
    "spatial",
]
