"""Abstract syntax tree for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of parsed expressions."""


@dataclass
class Literal(Expr):
    value: Any  # int, float, str, bool, None
    type_hint: str | None = None  # e.g. 'INTERVAL'


@dataclass
class ColumnRef(Expr):
    parts: tuple[str, ...]  # ('t', 'Trip') or ('Trip',)

    @property
    def column(self) -> str:
        return self.parts[-1]

    @property
    def qualifier(self) -> str | None:
        return self.parts[-2] if len(self.parts) > 1 else None


@dataclass
class Star(Expr):
    qualifier: str | None = None


@dataclass
class FunctionCall(Expr):
    name: str
    args: list[Expr]
    distinct: bool = False
    is_star: bool = False  # count(*)


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    op: str  # '-', '+', 'NOT'
    operand: Expr


@dataclass
class Cast(Expr):
    operand: Expr
    type_name: str


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    operand: Expr
    items: list[Expr]
    negated: bool = False


@dataclass
class InSubquery(Expr):
    operand: Expr
    query: "SelectStatement"
    negated: bool = False


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False
    case_insensitive: bool = False


@dataclass
class Exists(Expr):
    query: "SelectStatement"


@dataclass
class ScalarSubquery(Expr):
    query: "SelectStatement"


@dataclass
class QuantifiedComparison(Expr):
    op: str  # '<=', '=', ...
    operand: Expr
    quantifier: str  # 'ALL' | 'ANY'
    query: "SelectStatement"


@dataclass
class CaseExpr(Expr):
    operand: Expr | None
    branches: list[tuple[Expr, Expr]]
    else_result: Expr | None


@dataclass
class StructLiteral(Expr):
    """DuckDB struct literal ``{min_x: 1000, …}`` (used by the Fig. 2
    BOX_2D query)."""

    fields: list[tuple[str, Expr]]


@dataclass
class IntervalExpr(Expr):
    """``INTERVAL '1 day'`` or ``INTERVAL (expr)`` / ``INTERVAL (n || ' min')``."""

    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class of parsed statements."""


@dataclass
class SelectItem:
    expr: Expr
    alias: str | None = None


class TableRef:
    """Base class of FROM items."""


@dataclass
class BaseTableRef(TableRef):
    name: str
    alias: str | None = None


@dataclass
class SubqueryRef(TableRef):
    query: "SelectStatement"
    alias: str
    column_aliases: list[str] | None = None


@dataclass
class TableFunctionRef(TableRef):
    name: str
    args: list[Expr]
    alias: str | None = None
    column_aliases: list[str] | None = None


@dataclass
class JoinRef(TableRef):
    left: TableRef
    right: TableRef
    join_type: str  # 'inner' | 'left' | 'cross'
    condition: Expr | None


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True
    nulls_first: bool | None = None


@dataclass
class CommonTableExpr:
    name: str
    column_names: list[str] | None
    query: "SelectStatement"


@dataclass
class SelectStatement(Statement):
    select_items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_items: list[TableRef] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Expr | None = None
    offset: Expr | None = None
    ctes: list[CommonTableExpr] = field(default_factory=list)


@dataclass
class CompoundSelect(Statement):
    """UNION / UNION ALL / EXCEPT / INTERSECT of two selects."""

    left: "SelectStatement | CompoundSelect"
    right: "SelectStatement | CompoundSelect"
    kind: str  # 'union' | 'except' | 'intersect'
    all: bool = False
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Expr | None = None
    offset: Expr | None = None
    ctes: list[CommonTableExpr] = field(default_factory=list)


@dataclass
class ColumnDef:
    name: str
    type_name: str


@dataclass
class CreateTableStatement(Statement):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    as_query: SelectStatement | None = None
    or_replace: bool = False
    if_not_exists: bool = False


@dataclass
class CreateIndexStatement(Statement):
    name: str
    table: str
    using: str  # index type name, e.g. 'TRTREE'
    column: str


@dataclass
class DropStatement(Statement):
    kind: str  # 'table' | 'index'
    name: str
    if_exists: bool = False


@dataclass
class InsertStatement(Statement):
    table: str
    columns: list[str] | None
    query: SelectStatement | None = None
    values: list[list[Expr]] | None = None


@dataclass
class UpdateStatement(Statement):
    table: str
    assignments: list[tuple[str, Expr]] = field(default_factory=list)
    where: Expr | None = None


@dataclass
class DeleteStatement(Statement):
    table: str
    where: Expr | None = None


@dataclass
class ExplainStatement(Statement):
    inner: Statement
    analyze: bool = False


@dataclass
class AnalyzeStatement(Statement):
    """``ANALYZE [table]`` — collect per-column optimizer statistics
    (min/max, distinct count, null count, box-extent histograms) for one
    table, or for every table when no name is given."""

    table: str | None = None


@dataclass
class SetStatement(Statement):
    """``SET <name> = <value>`` / ``SET <name> TO <value>`` — session
    configuration (e.g. ``SET threads = 4``)."""

    name: str
    value: Expr


@dataclass
class ShowStatement(Statement):
    """``SHOW <name>`` — read back a session setting
    (e.g. ``SHOW threads``, ``SHOW log_min_duration``)."""

    name: str


@dataclass
class AttachStatement(Statement):
    """``ATTACH [DATABASE] '<path>'`` — bind an on-disk database file:
    an existing file loads immediately (tables decompress lazily), a
    new path becomes the ``CHECKPOINT`` target."""

    path: str


@dataclass
class CheckpointStatement(Statement):
    """``CHECKPOINT ['<path>']`` — write every table to the attached
    (or explicitly named) file in the columnar segment format."""

    path: str | None = None
