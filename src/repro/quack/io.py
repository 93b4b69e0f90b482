"""Lightweight data interchange: CSV import/export and result display.

The paper's §6.2 demonstrates MobilityDuck inside a Python data-science
workflow (DuckDB Python client + pandas/GeoPandas).  Without pandas
offline, this module provides the equivalent seams: results convert to
column dictionaries, pretty-print as tables, and round-trip through CSV.
"""

from __future__ import annotations

import csv
import re
from typing import Any

from . import storage
from .database import Result
from .errors import QuackError
from .types import BIGINT, BOOLEAN, DOUBLE, INTEGER, LogicalType, VARCHAR


def result_to_columns(result: Result) -> dict[str, list[Any]]:
    """Column-oriented view of a result (the DataFrame-shaped seam)."""
    columns: dict[str, list[Any]] = {
        name: [] for name in result.column_names
    }
    for row in result.rows:
        for name, value in zip(result.column_names, row):
            columns[name].append(value)
    return columns


def format_table(result: Result, max_rows: int = 20,
                 max_width: int = 28) -> str:
    """Render a result as an aligned text table (DuckDB shell style)."""
    names = result.column_names
    shown = result.rows[:max_rows]

    def render(value: Any) -> str:
        if value is None:
            return "NULL"
        text = str(value)
        if len(text) > max_width:
            return text[: max_width - 1] + "…"
        return text

    cells = [[render(v) for v in row] for row in shown]
    widths = [
        max([len(name)] + [len(row[i]) for row in cells])
        for i, name in enumerate(names)
    ]
    lines = [
        " | ".join(name.ljust(w) for name, w in zip(names, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
    if len(result.rows) > max_rows:
        lines.append(f"… ({len(result.rows)} rows total)")
    return "\n".join(lines)


def write_csv(result: Result, path: str) -> int:
    """Write a result to CSV (header + stringified values).

    TIMESTAMP and DATE columns are rendered in their textual form so the
    file round-trips through :func:`read_csv`."""
    from ..meos.timetypes import format_date, format_timestamptz

    formatters = []
    for ltype in (result.column_types or
                  [None] * len(result.column_names)):
        if ltype is not None and ltype.name == "TIMESTAMP":
            formatters.append(format_timestamptz)
        elif ltype is not None and ltype.name == "DATE":
            formatters.append(format_date)
        else:
            formatters.append(str)
    with storage.open_path(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.column_names)
        for row in result.rows:
            writer.writerow(
                [
                    "" if v is None else fmt(v)
                    for v, fmt in zip(row, formatters)
                ]
            )
    return len(result.rows)


# Strict SQL-literal shapes.  Python's int()/float() accept more than SQL
# does — underscored digit groups ("1_000"), non-finite spellings ("nan",
# "inf", "Infinity") — so sniffing gates on these patterns instead of
# try-converting, keeping such cells VARCHAR.
_INT_PATTERN = re.compile(r"[+-]?\d+\Z")
_FLOAT_PATTERN = re.compile(
    r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\Z"
)


def _sniff_type(values: list[str]) -> LogicalType:
    from ..meos.timetypes import parse_timestamptz
    from .types import TIMESTAMP

    non_empty = [v for v in values if v != ""]
    if not non_empty:
        return VARCHAR
    if all(_INT_PATTERN.match(v) for v in non_empty):
        return BIGINT
    if all(len(v) >= 10 and v[4:5] == "-" for v in non_empty):
        try:
            for v in non_empty:
                parse_timestamptz(v)
            return TIMESTAMP
        except Exception:
            pass
    if all(_FLOAT_PATTERN.match(v) for v in non_empty):
        return DOUBLE
    lowered = {v.lower() for v in non_empty}
    if lowered <= {"true", "false", "t", "f"}:
        return BOOLEAN
    return VARCHAR


def read_csv(connection, path: str, table_name: str,
             column_types: dict[str, str] | None = None) -> int:
    """Load a CSV file into a new table, sniffing column types.

    ``column_types`` overrides the sniffer per column (by name), e.g.
    ``{"trip": "TGEOMPOINT"}`` — values then go through the registered
    ``VARCHAR -> type`` cast, so extension types load from text.
    """
    with storage.open_path(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise QuackError(f"{path}: empty CSV file") from None
        raw_rows = list(reader)
    overrides = {k.lower(): v for k, v in (column_types or {}).items()}
    types: list[LogicalType] = []
    for i, name in enumerate(header):
        if name.lower() in overrides:
            types.append(
                connection.database.types.lookup(overrides[name.lower()])
            )
        else:
            types.append(_sniff_type([row[i] for row in raw_rows]))
    columns_sql = ", ".join(
        f'"{name}" {ltype.name}' for name, ltype in zip(header, types)
    )
    connection.execute(f"CREATE TABLE {table_name}({columns_sql})")
    converted = []
    for raw in raw_rows:
        row = []
        for value, ltype in zip(raw, types):
            if value == "":
                row.append(None)
            elif ltype in (BIGINT, INTEGER):
                row.append(int(value))
            elif ltype == DOUBLE:
                row.append(float(value))
            elif ltype == BOOLEAN:
                row.append(value.lower() in ("true", "t"))
            elif ltype.is_user or ltype.name in ("TIMESTAMP", "DATE",
                                                 "INTERVAL"):
                cast = connection.database.functions.find_cast(
                    VARCHAR, ltype
                )
                row.append(cast.apply(value) if cast else value)
            else:
                row.append(value)
        converted.append(tuple(row))
    connection.database.catalog.get_table(table_name).append_rows(converted)
    return len(converted)
