"""Extension registration utilities mirroring the paper's §3.4 API.

The method names deliberately follow the C++ ``ExtensionUtil`` calls shown
in the paper so the MobilityDuck extension code reads like its source::

    ExtensionUtil.register_type(db, "STBOX", STBOX_TYPE)
    ExtensionUtil.register_cast_function(db, VARCHAR, STBOX_TYPE, stbox_in)
    ExtensionUtil.register_function(db, ScalarFunction("&&", …))
"""

from __future__ import annotations

from typing import Any, Callable

from .catalog import IndexType
from .database import Database
from .functions import AggregateFunction, CastFunction, ScalarFunction
from .types import LogicalType


class ExtensionUtil:
    """Static registration helpers (paper §3.4 / §4.1)."""

    @staticmethod
    def register_type(
        database: Database,
        name: str,
        ltype: LogicalType,
        aliases: tuple[str, ...] = (),
    ) -> None:
        """Register a user-defined type under ``name`` (plus aliases).

        Mirrors the paper's BLOB-backed UDT with a type alias (§3.3).
        """
        database.types.register(ltype, aliases=(name, *aliases))

    @staticmethod
    def register_function(database: Database, fn: ScalarFunction) -> None:
        database.functions.register_scalar(fn)

    @staticmethod
    def register_aggregate_function(
        database: Database, fn: AggregateFunction
    ) -> None:
        database.functions.register_aggregate(fn)

    @staticmethod
    def register_cast_function(
        database: Database,
        source: LogicalType,
        target: LogicalType,
        fn: Callable[[Any], Any],
        implicit: bool = False,
    ) -> None:
        database.functions.register_cast(
            CastFunction(source, target, fn, implicit)
        )

    @staticmethod
    def register_index_type(database: Database, index_type: IndexType) -> None:
        database.config.index_types.register(index_type)


def make_user_type(name: str, python_class: type,
                   codec: Any = None) -> LogicalType:
    """Create a BLOB-backed user-defined logical type (paper §3.3)."""
    return LogicalType(name.upper(), "object", python_class, is_user=True,
                       codec=codec)
