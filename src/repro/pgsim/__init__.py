"""repro.pgsim — a row-store, tuple-at-a-time SQL engine.

The PostgreSQL/MobilityDB stand-in of the reproduction: same SQL dialect
and extension surface as :mod:`repro.quack`, but heap row storage, a
Volcano executor, and GiST/B-tree indexes — the baseline architecture the
paper benchmarks MobilityDuck against.
"""

from .database import RowConnection, RowDatabase
from .indexes import BTreeIndex, GistIndex
from .table import RowTable

__all__ = [
    "BTreeIndex",
    "GistIndex",
    "RowConnection",
    "RowDatabase",
    "RowTable",
]
