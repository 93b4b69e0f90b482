"""Bound expressions and logical plan operators.

The binder turns parsed AST into these typed structures; the optimizer
rewrites them; the executor interprets them chunk-at-a-time.  Column
references use flat indices into the operator's output column space
(left-deep join order), DuckDB-style.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Iterator

from .catalog import Table, TableIndex
from .errors import ExecutionError
from .functions import AggregateFunction, CastFunction, ScalarFunction
from .keys import row_key
from .types import BIGINT, LogicalType


# ---------------------------------------------------------------------------
# Bound expressions
# ---------------------------------------------------------------------------


class BoundExpr:
    ltype: LogicalType

    def columns_used(self) -> set[int]:
        """Flat input column indices this expression reads."""
        out: set[int] = set()
        _collect_columns(self, out)
        return out


def _collect_columns(expr: BoundExpr, out: set[int]) -> None:
    if isinstance(expr, BoundColumnRef):
        out.add(expr.index)
    elif not isinstance(expr, BoundConstant):
        for child in _children(expr):
            _collect_columns(child, out)


def _children(expr: BoundExpr) -> list[BoundExpr]:
    if isinstance(expr, (BoundFunction, BoundConjunction)):
        return list(expr.args)
    if isinstance(expr, BoundCast):
        return [expr.child]
    if isinstance(expr, BoundIsNull):
        return [expr.child]
    if isinstance(expr, BoundNot):
        return [expr.child]
    if isinstance(expr, BoundInList):
        return [expr.operand, *expr.items]
    if isinstance(expr, BoundCase):
        out = []
        for cond, result in expr.branches:
            out.extend((cond, result))
        if expr.else_result is not None:
            out.append(expr.else_result)
        return out
    if isinstance(expr, BoundSubqueryExpr):
        operand = [] if expr.operand is None else [expr.operand]
        return [*expr.outer_params_exprs, *operand]
    return []


def split_conjuncts(expr: BoundExpr) -> list[BoundExpr]:
    """The operands of a (nested) AND, or the expression itself."""
    if isinstance(expr, BoundConjunction) and expr.op == "AND":
        return [c for arg in expr.args for c in split_conjuncts(arg)]
    return [expr]


def cost_class(expr: BoundExpr) -> int:
    """Per-row cost class of an expression, read off the functions it
    calls (the most expensive node decides):

    0. native ``fn_vector`` comparisons/arithmetic, builtin numeric casts,
       column references and constants — whole-array NumPy work that
       cannot raise;
    1. functions whose ``evaluate_batch`` kernel prefilters on bounds
       (``&&``, ``@>``, …);
    2. per-row Python: scalar payload functions, extension casts, and
       anything comparing or parsing object payloads;
    3. subqueries.

    The optimizer ranks conjuncts by it, and the executor evaluates a
    leading run of class-0 conjuncts on the whole chunk before it starts
    narrowing."""
    if isinstance(expr, BoundSubqueryExpr):
        return 3
    own = 0
    if isinstance(expr, BoundFunction):
        function = expr.function
        if function.fn_vector is None:
            own = 1 if (function.evaluate_batch is not None
                        and function.batch_prefilters) else 2
        elif any(a.ltype.physical == "object" for a in expr.args):
            own = 2
    elif isinstance(expr, BoundCast):
        if expr.cast is not None or (
            expr.child.ltype.physical == "object"
            and expr.ltype.physical != "object"
        ):
            own = 2
    elif isinstance(expr, BoundInList):
        if expr.operand.ltype.physical == "object":
            own = 2
    return max([own, *(cost_class(c) for c in _children(expr))])


@dataclass
class BoundConstant(BoundExpr):
    value: Any
    ltype: LogicalType


@dataclass
class BoundColumnRef(BoundExpr):
    index: int
    ltype: LogicalType
    name: str = ""


@dataclass
class BoundFunction(BoundExpr):
    function: ScalarFunction
    args: list[BoundExpr]
    ltype: LogicalType
    name: str = ""


@dataclass
class BoundCast(BoundExpr):
    child: BoundExpr
    ltype: LogicalType
    cast: CastFunction | None  # None = builtin physical cast
    target_name: str = ""


@dataclass
class BoundConjunction(BoundExpr):
    op: str  # 'AND' | 'OR'
    args: list[BoundExpr]
    ltype: LogicalType
    #: Length of the leading run of class-0 operands, which the executor
    #: evaluates on the whole chunk before it starts narrowing.
    dense: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.dense = next(
            (k for k, arg in enumerate(self.args) if cost_class(arg)),
            len(self.args),
        )


@dataclass
class BoundNot(BoundExpr):
    child: BoundExpr
    ltype: LogicalType


@dataclass
class BoundIsNull(BoundExpr):
    child: BoundExpr
    negated: bool
    ltype: LogicalType


@dataclass
class BoundInList(BoundExpr):
    operand: BoundExpr
    items: list[BoundExpr]
    negated: bool
    eq_function: ScalarFunction
    ltype: LogicalType


def membership(found, unknown, negated):
    """``x [NOT] IN S`` in three-valued logic, as ``(truth, known)``:
    ``found`` when a member of S equals x, ``unknown`` when a comparison
    was NULL (a NULL x or member).  The verdict is NULL where ``known``
    is false.  Elementwise on NumPy boolean arrays too."""
    return found ^ negated, found | (unknown ^ True)


def quantify(comparison: ScalarFunction, operand: Any,
             values: Iterable[Any], every: bool = False,
             negated: bool = False) -> Any:
    """``operand <comparison> ANY (values)``, or ``ALL`` when ``every``,
    as TRUE, FALSE or NULL (None); ``IN`` is ``= ANY``.  ALL is FALSE as
    soon as one comparison is, ANY TRUE; ``values`` is consumed only up
    to that comparison."""
    found = unknown = False
    for value in values:
        verdict = None if operand is None or value is None else (
            comparison.evaluate_row([operand, value])
        )
        if verdict is None:
            unknown = True
        elif bool(verdict) != every:
            found = True
            break
    truth, known = membership(found, unknown, negated != every)
    return truth if known else None


@dataclass
class BoundCase(BoundExpr):
    branches: list[tuple[BoundExpr, BoundExpr]]
    else_result: BoundExpr | None
    ltype: LogicalType


@dataclass
class BoundSubqueryExpr(BoundExpr):
    """A subquery in expression position.

    ``kind``: 'scalar' | 'exists' | 'in' | 'quantified'.
    ``outer_params_exprs`` are expressions over the *outer* column space
    whose per-row values parameterize the correlated subquery plan (they
    feed the plan's :class:`BoundParameterRef` nodes by position).
    """

    kind: str
    plan: "LogicalOperator"
    ltype: LogicalType
    outer_params_exprs: list[BoundExpr] = field(default_factory=list)
    # for 'in' and 'quantified':
    operand: BoundExpr | None = None
    comparison: ScalarFunction | None = None
    quantifier: str | None = None  # 'ALL' | 'ANY'
    negated: bool = False  # NOT IN

    def result(self, operand: Any, rows: list[tuple]) -> Any:
        """The value of this subquery for one outer row, from the left
        side's value ``operand`` and the rows the plan returned for it."""
        if self.kind == "scalar":
            if len(rows) > 1:
                raise ExecutionError(
                    "scalar subquery returned more than one row"
                )
            return rows[0][0] if rows else None
        if self.kind == "exists":
            return bool(rows)
        return quantify(self.comparison, operand,
                        (row[0] for row in rows),
                        every=self.quantifier == "ALL", negated=self.negated)


@dataclass
class BoundParameterRef(BoundExpr):
    """Reference to a correlated outer value inside a subquery plan."""

    param_index: int
    ltype: LogicalType
    name: str = ""


@dataclass
class AggregateSpec:
    function: AggregateFunction
    args: list[BoundExpr]
    distinct: bool
    ltype: LogicalType
    name: str = ""


# ---------------------------------------------------------------------------
# Logical operators
# ---------------------------------------------------------------------------


class LogicalOperator:
    """Base logical/physical plan node (quack interprets these directly)."""

    #: Cost-based optimizer cardinality estimate; ``None`` on plans built
    #: without statistics, so heuristic plans print unchanged.
    estimated_rows = None

    def output_types(self) -> list[LogicalType]:
        raise NotImplementedError

    def output_names(self) -> list[str]:
        raise NotImplementedError

    def children(self) -> list["LogicalOperator"]:
        return []

    def explain(self) -> str:
        return "\n".join(
            head + op._explain_label() + (
                "" if op.estimated_rows is None
                else f" (est={op.estimated_rows})"
            )
            for head, op in plan_lines(self)
        )

    def _explain_label(self) -> str:
        return type(self).__name__.replace("Logical", "").upper()


@dataclass(frozen=True)
class PrunePredicate:
    """A pushed-down conjunct in zone-map-checkable shape.

    ``column``/``op_name``/``constant`` drive the row-group skip test
    (:func:`repro.quack.storage.zone_map_prunes`); ``expr`` keeps the
    original bound conjunct so the verification layer can re-evaluate it
    over skipped groups.  Pruning is advisory only — the full filter
    stays in the plan above the scan as the exact recheck.
    """

    column: int
    op_name: str
    constant: Any
    expr: Any = None


#: The row-id pseudo-column, a BIGINT: index ``len(table.column_types)``
#: in a scan's ``columns``.  Only UPDATE's and DELETE's plans read it.
ROW_ID = "rowid"


class _ScanColumns:
    """The table columns a scan emits: ``columns`` lists them by table
    column index (the required-columns rule sets it); ``None`` is every
    column in table order.  The row id (:data:`ROW_ID`), when listed, is
    the last column: the binder lists it last, and pruning keeps the
    order."""

    columns: tuple[int, ...] | None

    @property
    def column_ids(self) -> tuple[int, ...]:
        if self.columns is None:
            return tuple(range(len(self.table.column_types)))
        return self.columns

    @property
    def reads_row_id(self) -> bool:
        return (self.columns is not None
                and self.columns[-1] == len(self.table.column_types))

    def output_types(self) -> list[LogicalType]:
        types = self.table.column_types
        if self.columns is None:
            return list(types)
        return [types[c] if c < len(types) else BIGINT
                for c in self.columns]

    def output_names(self) -> list[str]:
        names = self.table.column_names
        if self.columns is None:
            return list(names)
        return [names[c] if c < len(names) else ROW_ID
                for c in self.columns]


@dataclass
class LogicalGet(_ScanColumns, LogicalOperator):
    table: Table
    #: zone-map prune predicates attached by the optimizer; empty tuple
    #: means plain full scan.  ``PrunePredicate.column`` is a table
    #: column index, whatever ``columns`` keeps.
    prune: tuple = ()
    columns: tuple[int, ...] | None = None

    def _explain_label(self) -> str:
        label = f"SEQ_SCAN {self.table.name}"
        if self.prune:
            ops = ", ".join(
                f"{self.table.column_names[p.column]} {p.op_name}"
                for p in self.prune
            )
            label += f" [zonemap: {ops}]"
        return label


@dataclass
class LogicalIndexScan(_ScanColumns, LogicalOperator):
    table: Table
    index: TableIndex
    op_name: str
    constant: Any
    columns: tuple[int, ...] | None = None

    def _explain_label(self) -> str:
        return (
            f"{self.index.type_name}_INDEX_SCAN {self.table.name} "
            f"({self.index.column} {self.op_name} …)"
        )


@dataclass
class LogicalTableFunction(LogicalOperator):
    name: str
    args: list[Any]  # evaluated constants
    names: list[str]
    types: list[LogicalType]

    def output_types(self) -> list[LogicalType]:
        return list(self.types)

    def output_names(self) -> list[str]:
        return list(self.names)

    def _explain_label(self) -> str:
        return f"TABLE_FUNCTION {self.name}"

    def series(self) -> range:
        """The values of the one column.  ``generate_series`` and
        ``range`` take ``([start = 1,] stop [, step = 1])``, checked by
        the binder; ``generate_series`` includes ``stop``, ``range``
        excludes it.  ``single_row`` is the one row of a FROM-less
        SELECT."""
        if self.name == "single_row":
            return range(1)
        args = [1, *self.args] if len(self.args) == 1 else list(self.args)
        start, stop, step = (args + [1])[:3]
        if self.name == "generate_series":
            stop += 1 if step > 0 else -1
        return range(start, stop, step)


@dataclass
class LogicalCTERef(LogicalOperator):
    cte_id: int
    name: str
    names: list[str]
    types: list[LogicalType]

    def output_types(self) -> list[LogicalType]:
        return list(self.types)

    def output_names(self) -> list[str]:
        return list(self.names)

    def _explain_label(self) -> str:
        return f"CTE_SCAN {self.name}"


@dataclass
class LogicalFilter(LogicalOperator):
    condition: BoundExpr
    child: LogicalOperator

    def output_types(self) -> list[LogicalType]:
        return self.child.output_types()

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def _explain_label(self) -> str:
        return "FILTER"


@dataclass
class LogicalProject(LogicalOperator):
    exprs: list[BoundExpr]
    names: list[str]
    child: LogicalOperator

    def output_types(self) -> list[LogicalType]:
        return [e.ltype for e in self.exprs]

    def output_names(self) -> list[str]:
        return list(self.names)

    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def _explain_label(self) -> str:
        return f"PROJECTION [{', '.join(self.names)}]"


@dataclass
class LogicalJoin(LogicalOperator):
    left: LogicalOperator
    right: LogicalOperator
    join_type: str  # 'cross' | 'inner' | 'left'
    #: equi-join key pairs (left expr over left cols, right expr over right
    #: cols, both rebased to their own child's column space)
    equi_keys: list[tuple[BoundExpr, BoundExpr]] = field(default_factory=list)
    #: residual condition over the combined column space
    residual: BoundExpr | None = None
    #: parameterized index probe: (index, op_name, left_expr) — per left
    #: row, probe the right base table's index with the evaluated left
    #: expression (index nested-loop join, the GiST join strategy)
    index_probe: tuple | None = None
    #: the positions of the combined (left ++ right) columns the join
    #: emits, set by the required-columns rule; ``None`` emits them all
    columns: tuple[int, ...] | None = None

    @property
    def column_ids(self) -> tuple[int, ...]:
        if self.columns is None:
            return tuple(range(len(self.left.output_types())
                               + len(self.right.output_types())))
        return self.columns

    def output_types(self) -> list[LogicalType]:
        types = self.left.output_types() + self.right.output_types()
        if self.columns is None:
            return types
        return [types[c] for c in self.columns]

    def output_names(self) -> list[str]:
        names = self.left.output_names() + self.right.output_names()
        if self.columns is None:
            return names
        return [names[c] for c in self.columns]

    def children(self) -> list[LogicalOperator]:
        return [self.left, self.right]

    def _explain_label(self) -> str:
        if self.equi_keys:
            kind = "HASH_JOIN"
        elif self.index_probe is not None:
            kind = f"INDEX_NL_JOIN [{self.index_probe[0].name}]"
        elif self.residual is not None:
            kind = "NESTED_LOOP_JOIN"
        else:
            kind = "CROSS_PRODUCT"
        return f"{kind} ({self.join_type})"


@dataclass
class LogicalAggregate(LogicalOperator):
    groups: list[BoundExpr]
    aggregates: list[AggregateSpec]
    child: LogicalOperator
    group_names: list[str] = field(default_factory=list)

    def output_types(self) -> list[LogicalType]:
        return [g.ltype for g in self.groups] + [
            a.ltype for a in self.aggregates
        ]

    def output_names(self) -> list[str]:
        names = list(self.group_names) or [
            f"group{i}" for i in range(len(self.groups))
        ]
        return names + [a.name or a.function.name for a in self.aggregates]

    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def _explain_label(self) -> str:
        aggs = ", ".join(a.function.name for a in self.aggregates)
        return f"HASH_GROUP_BY [{aggs}]"


@dataclass
class LogicalSort(LogicalOperator):
    keys: list[tuple[BoundExpr, bool, bool | None]]  # expr, asc, nulls_first
    child: LogicalOperator

    def output_types(self) -> list[LogicalType]:
        return self.child.output_types()

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def _explain_label(self) -> str:
        return "ORDER_BY"


@dataclass
class LogicalLimit(LogicalOperator):
    limit: int | None
    offset: int
    child: LogicalOperator

    def output_types(self) -> list[LogicalType]:
        return self.child.output_types()

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def _explain_label(self) -> str:
        return f"LIMIT {self.limit}"


@dataclass
class LogicalDistinct(LogicalOperator):
    child: LogicalOperator

    def output_types(self) -> list[LogicalType]:
        return self.child.output_types()

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def _explain_label(self) -> str:
        return "DISTINCT"


@dataclass
class LogicalSetOp(LogicalOperator):
    """UNION / UNION ALL / EXCEPT / INTERSECT."""

    kind: str  # 'union' | 'except' | 'intersect'
    all: bool
    left: LogicalOperator
    right: LogicalOperator

    def output_types(self) -> list[LogicalType]:
        return self.left.output_types()

    def output_names(self) -> list[str]:
        return self.left.output_names()

    def children(self) -> list[LogicalOperator]:
        return [self.left, self.right]

    def _explain_label(self) -> str:
        suffix = " ALL" if self.all else ""
        return f"{self.kind.upper()}{suffix}"

    @property
    def concatenates(self) -> bool:
        """UNION ALL: the left rows, then the right ones, compared with
        nothing."""
        return self.kind == "union" and self.all

    def combine(self, left: Iterable[tuple],
                right: Iterable[tuple]) -> Iterator[tuple]:
        """The rows of this set operation over its inputs' rows, in left
        input order.  Rows compare by :func:`keys.row_key` (NULL equals
        NULL, one NaN, ``-0.0`` equals ``0.0``).  UNION, EXCEPT and
        INTERSECT keep a row once; a row with m copies on the left and n
        on the right is kept max(m - n, 0) times by EXCEPT ALL and
        min(m, n) times by INTERSECT ALL."""
        if self.kind == "union":
            if self.concatenates:
                yield from chain(left, right)
                return
            left, right = chain(left, right), ()
        budget = Counter(map(row_key, right))
        keep_matched = self.kind == "intersect"
        emitted: set[tuple] = set()
        for row in left:
            key = row_key(row)
            matched = budget[key] > 0
            if not self.all:
                if key in emitted:
                    continue
                emitted.add(key)
            elif matched:
                budget[key] -= 1
            if matched == keep_matched:
                yield row


@dataclass
class LogicalMaterializedCTE(LogicalOperator):
    """Wraps the main plan with CTE definitions materialized on demand."""

    ctes: list[tuple[int, str, LogicalOperator]]  # (id, name, plan)
    child: LogicalOperator

    def output_types(self) -> list[LogicalType]:
        return self.child.output_types()

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def children(self) -> list[LogicalOperator]:
        return [plan for _, _, plan in self.ctes] + [self.child]

    def _explain_label(self) -> str:
        return f"CTE [{', '.join(name for _, name, _ in self.ctes)}]"


def operator_exprs(op: LogicalOperator):
    """Yield ``(expr, input_width)`` for the operator's own expressions,
    each over its input column space (a join's right keys over the right
    child's, its residual over the combined one)."""
    if isinstance(op, LogicalFilter):
        yield op.condition, len(op.child.output_types())
    elif isinstance(op, LogicalProject):
        width = len(op.child.output_types())
        for expr in op.exprs:
            yield expr, width
    elif isinstance(op, LogicalJoin):
        left_width = len(op.left.output_types())
        right_width = len(op.right.output_types())
        for left_key, right_key in op.equi_keys:
            yield left_key, left_width
            yield right_key, right_width
        if op.residual is not None:
            yield op.residual, left_width + right_width
        if op.index_probe is not None:
            yield op.index_probe[2], left_width
    elif isinstance(op, LogicalAggregate):
        width = len(op.child.output_types())
        for group in op.groups:
            yield group, width
        for spec in op.aggregates:
            for arg in spec.args:
                yield arg, width
    elif isinstance(op, LogicalSort):
        width = len(op.child.output_types())
        for key, _, _ in op.keys:
            yield key, width


def plan_lines(op: LogicalOperator, indent: int = 0,
               prefix: str = "") -> Iterator[tuple[str, LogicalOperator]]:
    """``(head, operator)`` per line of a printed plan: the operator,
    then the plans of the subqueries in its expressions (their roots
    marked ``SUBQUERY``), then its children, each two spaces in."""
    yield " " * indent + prefix, op
    for plan in subquery_plans(op):
        yield from plan_lines(plan, indent + 2, "SUBQUERY ")
    for child in op.children():
        yield from plan_lines(child, indent + 2)


def subquery_plans(op: LogicalOperator) -> list[LogicalOperator]:
    """The plans of the subqueries in ``op``'s own expressions, in
    expression order (a subquery nested in one of them belongs to its
    plan)."""
    plans: list[LogicalOperator] = []

    def visit(expr: BoundExpr) -> None:
        if isinstance(expr, BoundSubqueryExpr):
            plans.append(expr.plan)
        for child in _children(expr):
            visit(child)

    for expr, _ in operator_exprs(op):
        visit(expr)
    return plans
