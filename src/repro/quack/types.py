"""Logical types of the quack engine.

Built-in types cover the SQL scalar types the paper's queries use; user
defined types (UDTs) carry a Python class and are stored in object vectors
— the engine-level equivalent of the paper's "MEOS types are represented
using the native DuckDB type BLOB … while the alias ensures that queries
can refer to the type as stbox" (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import BinderError


@dataclass(frozen=True)
class LogicalType:
    """A SQL-level type.

    ``physical`` selects the vector representation: ``bool``/``int64``/
    ``float64`` map to NumPy arrays, ``object`` to Python object arrays.
    """

    name: str
    physical: str = "object"
    #: For user-defined types: the Python class of the values.
    python_class: type | None = None
    #: Marks types registered by extensions.
    is_user: bool = False
    #: The extension's segment codec, tried before the pickle fallback
    #: (:mod:`.storage`), whose ``boxes`` are the column's box arrays
    #: (:mod:`.boxes`); ``repro.core.codecs`` shows the protocol.
    codec: Any = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        if isinstance(other, LogicalType):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)


BOOLEAN = LogicalType("BOOLEAN", "bool")
INTEGER = LogicalType("INTEGER", "int64")
BIGINT = LogicalType("BIGINT", "int64")
DOUBLE = LogicalType("DOUBLE", "float64")
VARCHAR = LogicalType("VARCHAR", "object")
BLOB = LogicalType("BLOB", "object")
TIMESTAMP = LogicalType("TIMESTAMP", "int64")  # usecs since epoch (UTC)
DATE = LogicalType("DATE", "int64")  # days since epoch
INTERVAL = LogicalType("INTERVAL", "object")
LIST = LogicalType("LIST", "object")
#: Pseudo-type used in function signatures that accept anything.
ANY = LogicalType("ANY", "object")
#: NULL literal type before binding settles it.
SQLNULL = LogicalType("NULL", "object")

_NUMERIC_ORDER = {"INTEGER": 0, "BIGINT": 1, "DOUBLE": 2}

_BUILTINS = {
    t.name: t
    for t in (
        BOOLEAN,
        INTEGER,
        BIGINT,
        DOUBLE,
        VARCHAR,
        BLOB,
        TIMESTAMP,
        DATE,
        INTERVAL,
        LIST,
    )
}
_ALIASES = {
    "INT": INTEGER,
    "INT4": INTEGER,
    "INT8": BIGINT,
    "LONG": BIGINT,
    "FLOAT": DOUBLE,
    "FLOAT8": DOUBLE,
    "REAL": DOUBLE,
    "DOUBLE PRECISION": DOUBLE,
    "NUMERIC": DOUBLE,
    "DECIMAL": DOUBLE,
    "TEXT": VARCHAR,
    "STRING": VARCHAR,
    "TIMESTAMPTZ": TIMESTAMP,
    "DATETIME": TIMESTAMP,
    "BOOL": BOOLEAN,
    "BYTEA": BLOB,
    "WKB_BLOB": BLOB,
}


class TypeRegistry:
    """Per-database registry of logical types (builtins + extension UDTs)."""

    def __init__(self):
        self._types: dict[str, LogicalType] = dict(_BUILTINS)
        for alias, target in _ALIASES.items():
            self._types[alias] = target

    def register(self, ltype: LogicalType, aliases: tuple[str, ...] = ()) -> None:
        key = ltype.name.upper()
        self._types[key] = ltype
        for alias in aliases:
            self._types[alias.upper()] = ltype

    def lookup(self, name: str) -> LogicalType:
        key = name.strip().upper()
        # 'DECIMAL(10,2)' and friends: strip type modifiers.
        if "(" in key:
            key = key[: key.index("(")].strip()
        found = self._types.get(key)
        if found is None:
            raise BinderError(f"unknown type {name!r}")
        return found

    def known(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except BinderError:
            return False


def is_numeric(ltype: LogicalType) -> bool:
    return ltype.name in _NUMERIC_ORDER


def common_numeric(a: LogicalType, b: LogicalType) -> LogicalType:
    order_a = _NUMERIC_ORDER[a.name]
    order_b = _NUMERIC_ORDER[b.name]
    return a if order_a >= order_b else b


def implicit_cast_cost(source: LogicalType, target: LogicalType) -> int | None:
    """Cost of implicitly casting ``source`` to ``target``; None if illegal."""
    if source == target:
        return 0
    if source == SQLNULL:
        return 0
    if target == ANY:
        return 3
    if is_numeric(source) and is_numeric(target):
        if _NUMERIC_ORDER[source.name] < _NUMERIC_ORDER[target.name]:
            return 1
        return 2  # narrowing allowed but disfavoured
    if source == DATE and target == TIMESTAMP:
        return 1
    # String literals implicitly parse into user types and intervals
    # (DuckDB's VARCHAR -> anything auto cast for literals).
    if source == VARCHAR and (target.is_user or target == INTERVAL
                              or target == TIMESTAMP or target == DATE):
        return 2
    if source == BLOB and target.is_user:
        return 2
    if target == BLOB and source.is_user:
        return 2
    return None
