"""repro.quack — an embedded, columnar, vectorized SQL engine.

The DuckDB stand-in of the reproduction: in-process execution over NumPy
column vectors, a SQL front end, an optimizer with filter pushdown and
index-scan injection, and an extension API for user types, functions,
casts, and index types (paper §2.4, §3).
"""

from .builtins import register_builtins
from .catalog import Catalog, IndexType, Table, TableIndex
from .database import Connection, Database, Result
from .errors import (
    BinderError,
    CatalogError,
    ConversionError,
    ExecutionError,
    ParserError,
    QuackError,
)
from .extension import ExtensionUtil, make_user_type
from .functions import AggregateFunction, CastFunction, ScalarFunction
from .io import format_table, read_csv, result_to_columns, write_csv
from .types import (
    ANY,
    BIGINT,
    BLOB,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    INTERVAL,
    LIST,
    TIMESTAMP,
    VARCHAR,
    LogicalType,
)
from .vector import DataChunk, Vector

__all__ = [
    "ANY",
    "AggregateFunction",
    "BIGINT",
    "BLOB",
    "BOOLEAN",
    "BinderError",
    "CastFunction",
    "Catalog",
    "CatalogError",
    "Connection",
    "ConversionError",
    "DATE",
    "DOUBLE",
    "DataChunk",
    "Database",
    "ExecutionError",
    "ExtensionUtil",
    "INTEGER",
    "INTERVAL",
    "IndexType",
    "LIST",
    "LogicalType",
    "ParserError",
    "QuackError",
    "Result",
    "ScalarFunction",
    "TIMESTAMP",
    "Table",
    "TableIndex",
    "VARCHAR",
    "Vector",
    "format_table",
    "read_csv",
    "result_to_columns",
    "write_csv",
    "make_user_type",
    "register_builtins",
]
