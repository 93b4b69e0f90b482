"""The MobilityDuck extension: entry point that registers everything.

``load(database)`` installs, in order: the mini-Spatial extension (unless
already present), all MEOS user types with their casts, the scalar
functions and operators of each type family, the aggregates, and the
``TRTREE`` and ``RTREE`` index types (paper §3–§4).  The same loader works
against both engines — :class:`repro.quack.Database` (columnar, where
TRTREE and RTREE are available) and :class:`repro.pgsim.RowDatabase` (the
MobilityDB baseline, which uses its built-in GiST instead).
"""

from __future__ import annotations

from functools import partial

from ..index import BoxIndex
from ..quack.catalog import IndexType
from ..quack.database import Database
from . import spatial
from .functions import boxes, sets, spans, temporal, tpoint
from .rtree_index import RTreeModule

EXTENSION_NAME = "mobilityduck"


def load(database) -> None:
    """Register MobilityDuck's types, functions, operators and index."""
    if not database.types.known("GEOMETRY"):
        spatial.load(database)
    sets.register(database)
    spans.register(database)
    boxes.register(database)
    temporal.register(database)
    tpoint.register(database)
    # TRTREE and Spatial's RTREE exist on the columnar engine only: the
    # row-store baseline models MobilityDB and PostGIS, which index
    # temporal values and geometries through GiST.
    if isinstance(database, Database):
        RTreeModule.register_rtree_index(database)
        database.config.index_types.register(IndexType(
            "RTREE", partial(BoxIndex, kind=spatial.RTREE)
        ))


def connect():
    """Create a quack database with MobilityDuck loaded; returns a
    connection (convenience for examples and tests)."""
    from ..quack import Database as _Database

    db = _Database()
    db.load_extension(_module())
    return db.connect()


def connect_baseline():
    """Create the row-store baseline (MobilityDB stand-in) with the same
    extension surface; returns a connection."""
    from ..pgsim import RowDatabase

    db = RowDatabase()
    db.load_extension(_module())
    return db.connect()


def _module():
    import sys

    return sys.modules[__name__]
