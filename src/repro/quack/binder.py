"""Binder: resolves names and types, producing a logical plan.

Handles scopes with correlation (subqueries reference outer columns through
positional parameters), CTEs, implicit casts via the function registry, and
aggregate extraction for GROUP BY queries.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any

from .catalog import Catalog
from .errors import BinderError
from .functions import FunctionRegistry, ScalarFunction
from .plan import (
    ROW_ID,
    AggregateSpec,
    BoundCase,
    BoundCast,
    BoundColumnRef,
    BoundConjunction,
    BoundConstant,
    BoundExpr,
    BoundFunction,
    BoundInList,
    BoundIsNull,
    BoundNot,
    BoundParameterRef,
    BoundSubqueryExpr,
    LogicalAggregate,
    LogicalCTERef,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalOperator,
    LogicalProject,
    LogicalSetOp,
    LogicalSort,
    LogicalTableFunction,
)
from .sql import ast
from .types import (
    ANY,
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    INTERVAL,
    SQLNULL,
    TypeRegistry,
    VARCHAR,
    LogicalType,
    common_numeric,
    implicit_cast_cost,
    is_numeric,
)

_CTE_COUNTER = itertools.count(1)


@dataclass
class ScopeColumn:
    alias: str | None  # table alias (lower case)
    name: str  # column name (original case)
    ltype: LogicalType


@dataclass
class CTEInfo:
    cte_id: int
    name: str
    column_names: list[str]
    column_types: list[LogicalType]
    plan: LogicalOperator


class Scope:
    """Name-resolution scope over a flat column space."""

    def __init__(self, parent: "Scope | None" = None):
        self.columns: list[ScopeColumn] = []
        self.parent = parent

    def add(self, alias: str | None, name: str, ltype: LogicalType) -> None:
        self.columns.append(
            ScopeColumn(alias.lower() if alias else None, name, ltype)
        )

    def resolve(self, qualifier: str | None, name: str) -> tuple[int, LogicalType] | None:
        lowered = name.lower()
        qual = qualifier.lower() if qualifier else None
        matches = [
            (i, col.ltype)
            for i, col in enumerate(self.columns)
            if col.name.lower() == lowered
            and (qual is None or col.alias == qual)
        ]
        if len(matches) > 1:
            raise BinderError(f"ambiguous column reference {name!r}")
        return matches[0] if matches else None


class BinderContext:
    """Shared immutable context: catalog + registries + collected CTEs."""

    def __init__(self, catalog: Catalog, functions: FunctionRegistry,
                 types: TypeRegistry):
        self.catalog = catalog
        self.functions = functions
        self.types = types
        #: CTE plans collected across the whole statement, in definition
        #: order, materialized once per execution.
        self.all_ctes: list[tuple[int, str, LogicalOperator]] = []


class Binder:
    """Binds one SELECT statement (and recursively its subqueries)."""

    def __init__(
        self,
        context: BinderContext,
        outer: "Binder | None" = None,
        cte_scope: dict[str, CTEInfo] | None = None,
    ):
        self.context = context
        self.outer = outer
        self.ctes: dict[str, CTEInfo] = dict(cte_scope or {})
        self.scope = Scope()
        #: Correlated parameters this (sub)query requires:
        #: (owning binder, expression bound in that binder's scope) pairs.
        self.correlated_params: list[tuple["Binder", BoundExpr]] = []

    # -- statement binding -------------------------------------------------------

    def bind_select(
        self, stmt: "ast.SelectStatement | ast.CompoundSelect"
    ) -> LogicalOperator:
        for cte in stmt.ctes:
            cte_binder = Binder(self.context, self.outer, self.ctes)
            plan = cte_binder.bind_select(cte.query)
            if cte_binder.correlated_params:
                raise BinderError("correlated CTEs are not supported")
            names = cte.column_names or plan.output_names()
            if len(names) != len(plan.output_types()):
                raise BinderError(
                    f"CTE {cte.name!r} column alias count mismatch"
                )
            cte_id = next(_CTE_COUNTER)
            info = CTEInfo(cte_id, cte.name, names, plan.output_types(), plan)
            self.ctes[cte.name.lower()] = info
            self.context.all_ctes.append((cte_id, cte.name, plan))
        if isinstance(stmt, ast.CompoundSelect):
            return self._bind_compound(stmt)
        return self._bind_select_body(stmt)

    def bind_dml(
        self, stmt: "ast.UpdateStatement | ast.DeleteStatement"
    ) -> LogicalOperator:
        """An UPDATE's or DELETE's read plan, ``PROJECTION [rowid, CAST(e
        AS type of c) …] / FILTER w / SEQ_SCAN t``: a row per row written,
        its row id and an UPDATE's new values in SET order."""
        table = self.context.catalog.get_table(stmt.table)
        for name, ltype in zip(table.column_names, table.column_types):
            self.scope.add(table.name, name, ltype)
        row_id = len(table.column_types)
        plan: LogicalOperator = LogicalGet(
            table, columns=tuple(range(row_id + 1))
        )
        if stmt.where is not None:
            condition = self._coerce_boolean(self.bind_expr(stmt.where))
            plan = LogicalFilter(condition, plan)
        exprs: list[BoundExpr] = [BoundColumnRef(row_id, BIGINT, ROW_ID)]
        names = [ROW_ID]
        for column, expr in getattr(stmt, "assignments", ()):
            target = table.column_types[table.column_index(column)]
            exprs.append(self.bind_cast(self.bind_expr(expr), target.name))
            names.append(column)
        return LogicalProject(exprs, names, plan)

    def _bind_compound(self, stmt: ast.CompoundSelect) -> LogicalOperator:
        left_binder = Binder(self.context, self.outer, self.ctes)
        left = left_binder.bind_select(stmt.left)
        right_binder = Binder(self.context, self.outer, self.ctes)
        right = right_binder.bind_select(stmt.right)
        if left_binder.correlated_params or right_binder.correlated_params:
            raise BinderError("correlated compound selects are unsupported")
        if len(left.output_types()) != len(right.output_types()):
            raise BinderError(
                f"{stmt.kind.upper()} inputs have different column counts"
            )
        plan: LogicalOperator = LogicalSetOp(stmt.kind, stmt.all, left,
                                             right)
        if stmt.order_by:
            keys = []
            names = [n.lower() for n in plan.output_names()]
            for item in stmt.order_by:
                index = None
                if isinstance(item.expr, ast.Literal) and isinstance(
                    item.expr.value, int
                ):
                    index = item.expr.value - 1
                elif isinstance(item.expr, ast.ColumnRef) and len(
                    item.expr.parts
                ) == 1:
                    target = item.expr.parts[0].lower()
                    if target in names:
                        index = names.index(target)
                if index is None or not 0 <= index < len(names):
                    raise BinderError(
                        "compound ORDER BY must name an output column"
                    )
                keys.append(
                    (
                        BoundColumnRef(index, plan.output_types()[index]),
                        item.ascending,
                        item.nulls_first,
                    )
                )
            plan = LogicalSort(keys, plan)
        if stmt.limit is not None or stmt.offset is not None:
            limit = self._constant_int(stmt.limit) if stmt.limit else None
            offset = self._constant_int(stmt.offset) if stmt.offset else 0
            plan = LogicalLimit(limit, offset, plan)
        return plan

    def _bind_select_body(self, stmt: ast.SelectStatement) -> LogicalOperator:
        # FROM clause
        if stmt.from_items:
            plan = self._bind_table_ref(stmt.from_items[0])
            for item in stmt.from_items[1:]:
                right_plan = self._bind_table_ref(item)
                plan = LogicalJoin(plan, right_plan, "cross")
        else:
            plan = LogicalTableFunction(
                "single_row", [], ["__dummy"], [INTEGER]
            )
            self.scope.add(None, "__dummy", INTEGER)

        # WHERE
        if stmt.where is not None:
            condition = self._coerce_boolean(self.bind_expr(stmt.where))
            plan = LogicalFilter(condition, plan)

        # Aggregation analysis
        has_aggregates = any(
            self._contains_aggregate(item.expr) for item in stmt.select_items
        ) or (stmt.having is not None) or bool(stmt.group_by)

        agg_output_scope: Scope | None = None
        agg_map: dict[int, BoundColumnRef] = {}
        if has_aggregates:
            plan, agg_output_scope, agg_map = self._bind_aggregate(
                stmt, plan
            )
            working_scope = agg_output_scope
        else:
            working_scope = self.scope

        # HAVING
        if stmt.having is not None:
            having = self._coerce_boolean(
                self._bind_in_scope(stmt.having, working_scope, agg_map)
            )
            plan = LogicalFilter(having, plan)

        # SELECT list
        select_exprs: list[BoundExpr] = []
        select_names: list[str] = []
        select_asts: list[ast.Expr | None] = []
        for item in stmt.select_items:
            if isinstance(item.expr, ast.Star):
                for i, col in enumerate(working_scope.columns):
                    if col.name.startswith("__"):
                        continue
                    if (
                        item.expr.qualifier is not None
                        and col.alias != item.expr.qualifier.lower()
                    ):
                        continue
                    select_exprs.append(
                        BoundColumnRef(i, col.ltype, col.name)
                    )
                    select_names.append(col.name)
                    select_asts.append(None)
                continue
            bound = self._bind_in_scope(item.expr, working_scope, agg_map)
            select_exprs.append(bound)
            select_names.append(item.alias or _default_name(item.expr))
            select_asts.append(item.expr)
        if not select_exprs:
            raise BinderError("empty select list")

        # ORDER BY binding strategy: match select aliases/expressions first,
        # otherwise bind against the pre-projection scope as hidden columns.
        order_specs: list[tuple[int, bool, bool | None]] = []
        hidden: list[BoundExpr] = []
        for item in stmt.order_by:
            index = self._match_order_target(
                item.expr, stmt.select_items, select_asts
            )
            if index is None:
                bound = self._bind_in_scope(item.expr, working_scope, agg_map)
                index = len(select_exprs) + len(hidden)
                hidden.append(bound)
            order_specs.append((index, item.ascending, item.nulls_first))

        if stmt.distinct and hidden:
            raise BinderError(
                "ORDER BY expressions must appear in the select list "
                "when DISTINCT is used"
            )

        plan = LogicalProject(select_exprs + hidden,
                              select_names + [f"__order{i}" for i in
                                              range(len(hidden))],
                              plan)

        if stmt.distinct:
            plan = LogicalDistinct(plan)

        if order_specs:
            keys = [
                (
                    BoundColumnRef(idx, plan.output_types()[idx]),
                    asc,
                    nulls_first,
                )
                for idx, asc, nulls_first in order_specs
            ]
            plan = LogicalSort(keys, plan)

        if hidden:
            trimmed = [
                BoundColumnRef(i, t, n)
                for i, (t, n) in enumerate(
                    zip(plan.output_types(), plan.output_names())
                )
                if i < len(select_exprs)
            ]
            plan = LogicalProject(trimmed, select_names, plan)

        if stmt.limit is not None or stmt.offset is not None:
            limit = self._constant_int(stmt.limit) if stmt.limit else None
            offset = self._constant_int(stmt.offset) if stmt.offset else 0
            plan = LogicalLimit(limit, offset, plan)

        return plan

    # -- FROM binding ---------------------------------------------------------------

    def _bind_table_ref(self, ref: ast.TableRef) -> LogicalOperator:
        if isinstance(ref, ast.BaseTableRef):
            alias = ref.alias or ref.name
            info = self.ctes.get(ref.name.lower())
            if info is not None:
                for name, ltype in zip(info.column_names, info.column_types):
                    self.scope.add(alias, name, ltype)
                return LogicalCTERef(
                    info.cte_id, info.name, info.column_names,
                    info.column_types,
                )
            table = self.context.catalog.get_table(ref.name)
            for name, ltype in zip(table.column_names, table.column_types):
                self.scope.add(alias, name, ltype)
            return LogicalGet(table)
        if isinstance(ref, ast.SubqueryRef):
            sub_binder = Binder(self.context, self.outer, self.ctes)
            plan = sub_binder.bind_select(ref.query)
            if sub_binder.correlated_params:
                raise BinderError("lateral subqueries are not supported")
            names = ref.column_aliases or plan.output_names()
            for name, ltype in zip(names, plan.output_types()):
                self.scope.add(ref.alias, name, ltype)
            return plan
        if isinstance(ref, ast.TableFunctionRef):
            return self._bind_table_function(ref)
        if isinstance(ref, ast.JoinRef):
            start = len(self.scope.columns)
            left = self._bind_table_ref(ref.left)
            right = self._bind_table_ref(ref.right)
            condition = None
            if ref.condition is not None:
                # ON sees the join's own inputs, in the join's column space
                own = Scope(self.scope.parent)
                own.columns = self.scope.columns[start:]
                condition = self._coerce_boolean(
                    self._bind_in_scope(ref.condition, own, {})
                )
            return LogicalJoin(
                left, right, ref.join_type, residual=condition
            )
        raise BinderError(f"unsupported FROM item {type(ref).__name__}")

    def _bind_table_function(
        self, ref: ast.TableFunctionRef
    ) -> LogicalOperator:
        name = ref.name.lower()
        if name not in ("generate_series", "range"):
            raise BinderError(f"unknown table function {ref.name!r}")
        if not 1 <= len(ref.args) <= 3:
            raise BinderError(
                f"{name} takes 1 to 3 arguments, got {len(ref.args)}"
            )
        args = [fold_constant(self.bind_expr(arg)) for arg in ref.args]
        if any(isinstance(a, bool) or not isinstance(a, int) for a in args):
            raise BinderError(
                f"{name} arguments must be constant integers"
            )
        if len(args) == 3 and args[2] == 0:
            raise BinderError(f"{name} step cannot be zero")
        alias = ref.alias or name
        column = (ref.column_aliases or [name])[0]
        self.scope.add(alias, column, BIGINT)
        return LogicalTableFunction(name, args, [column], [BIGINT])

    # -- aggregation ------------------------------------------------------------------

    def _contains_aggregate(self, expr: ast.Expr) -> bool:
        # Names like min/max/count/sum/list are aggregates even where a
        # scalar of the same name exists.
        if isinstance(expr, ast.FunctionCall) and (
            self.context.functions.has_aggregate(expr.name)
        ):
            return True
        return any(self._contains_aggregate(child)
                   for child in _ast_children(expr))

    def _bind_aggregate(
        self, stmt: ast.SelectStatement, plan: LogicalOperator
    ) -> tuple[LogicalOperator, Scope, dict[int, BoundColumnRef]]:
        group_exprs: list[BoundExpr] = []
        group_names: list[str] = []
        group_asts: list[ast.Expr] = []
        for g in stmt.group_by:
            resolved = self._resolve_group_target(g, stmt)
            bound = self.bind_expr(resolved)
            group_exprs.append(bound)
            group_names.append(_default_name(resolved))
            group_asts.append(resolved)

        aggregates: list[AggregateSpec] = []
        agg_map: dict[int, BoundColumnRef] = {}

        def collect(expr: ast.Expr) -> None:
            if isinstance(expr, ast.FunctionCall) and (
                self.context.functions.has_aggregate(expr.name)
            ):
                if id(expr) in agg_map:
                    return
                if expr.is_star:
                    fn = self.context.functions.resolve_aggregate(
                        "count_star", ()
                    )
                    args: list[BoundExpr] = []
                else:
                    args = [self.bind_expr(a) for a in expr.args]
                    fn = self.context.functions.resolve_aggregate(
                        expr.name, tuple(a.ltype for a in args)
                    )
                result_type = fn.result_type_for(
                    tuple(a.ltype for a in args)
                )
                index = len(group_exprs) + len(aggregates)
                aggregates.append(
                    AggregateSpec(fn, args, expr.distinct, result_type,
                                  expr.name)
                )
                agg_map[id(expr)] = BoundColumnRef(
                    index, result_type, expr.name
                )
                return
            for child in _ast_children(expr):
                collect(child)

        for item in stmt.select_items:
            if not isinstance(item.expr, ast.Star):
                collect(item.expr)
        if stmt.having is not None:
            collect(stmt.having)
        for order in stmt.order_by:
            collect(order.expr)

        agg_plan = LogicalAggregate(group_exprs, aggregates, plan,
                                    group_names)

        # Build the post-aggregation scope: group columns then aggregates.
        out_scope = Scope(self.scope.parent)
        for g_ast, g_bound, g_name in zip(group_asts, group_exprs,
                                          group_names):
            alias = None
            if isinstance(g_ast, ast.ColumnRef):
                alias = g_ast.qualifier
            out_scope.add(alias, g_name, g_bound.ltype)
        for spec in aggregates:
            out_scope.add(None, f"__agg_{spec.name}", spec.ltype)
        self._agg_group_asts = group_asts
        return agg_plan, out_scope, agg_map

    def _resolve_group_target(
        self, expr: ast.Expr, stmt: ast.SelectStatement
    ) -> ast.Expr:
        """GROUP BY may name a select alias or a 1-based ordinal."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(stmt.select_items):
                raise BinderError(f"GROUP BY position {expr.value} invalid")
            return stmt.select_items[index].expr
        if isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
            # A real input column shadows a select alias (SQL scoping).
            if self.scope.resolve(None, expr.parts[0]) is not None:
                return expr
            for item in stmt.select_items:
                if item.alias and item.alias.lower() == expr.parts[0].lower():
                    return item.expr
        return expr

    def _match_order_target(
        self,
        expr: ast.Expr,
        select_items: list[ast.SelectItem],
        select_asts: list[ast.Expr | None],
    ) -> int | None:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if 0 <= index < len(select_asts):
                return index
            raise BinderError(f"ORDER BY position {expr.value} invalid")
        if isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
            target = expr.parts[0].lower()
            for i, item in enumerate(select_items):
                if item.alias and item.alias.lower() == target:
                    return i
        for i, candidate in enumerate(select_asts):
            if candidate is not None and ast_equal(candidate, expr):
                return i
        return None

    # -- expression binding ----------------------------------------------------------

    def _bind_in_scope(
        self,
        expr: ast.Expr,
        scope: Scope,
        agg_map: dict[int, BoundColumnRef],
    ) -> BoundExpr:
        saved = self.scope
        self.scope = scope
        self._active_agg_map = agg_map
        try:
            return self.bind_expr(expr)
        finally:
            self.scope = saved
            self._active_agg_map = {}

    _active_agg_map: dict[int, BoundColumnRef] = {}
    _agg_group_asts: list[ast.Expr] = []

    def bind_expr(self, expr: ast.Expr) -> BoundExpr:
        agg_ref = self._active_agg_map.get(id(expr))
        if agg_ref is not None:
            return agg_ref
        # Inside a post-aggregation scope, a group-by expression may appear
        # verbatim (e.g. SELECT round(x) ... GROUP BY round(x)).
        if self._active_agg_map or self._agg_group_asts:
            for i, g_ast in enumerate(self._agg_group_asts):
                if ast_equal(g_ast, expr):
                    col = self.scope.columns[i]
                    return BoundColumnRef(i, col.ltype, col.name)

        if isinstance(expr, ast.Literal):
            return _bind_literal(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._bind_column(expr)
        if isinstance(expr, ast.FunctionCall):
            return self._bind_function(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._bind_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._bind_unary(expr)
        if isinstance(expr, ast.Cast):
            return self.bind_cast(self.bind_expr(expr.operand), expr.type_name)
        if isinstance(expr, ast.IsNull):
            return BoundIsNull(self.bind_expr(expr.operand), expr.negated,
                               BOOLEAN)
        if isinstance(expr, ast.InList):
            operand = self.bind_expr(expr.operand)
            items = [self.bind_expr(item) for item in expr.items]
            eq_fn, _ = self.context.functions.resolve_scalar(
                "=", (operand.ltype, items[0].ltype if items else ANY)
            )
            return BoundInList(operand, items, expr.negated, eq_fn, BOOLEAN)
        if isinstance(expr, ast.Between):
            lowered = ast.BinaryOp(
                "AND",
                ast.BinaryOp(">=", expr.operand, expr.low),
                ast.BinaryOp("<=", expr.operand, expr.high),
            )
            bound = self.bind_expr(lowered)
            if expr.negated:
                return BoundNot(bound, BOOLEAN)
            return bound
        if isinstance(expr, ast.Like):
            fn_name = "ilike" if expr.case_insensitive else "like"
            bound = self._resolve_call(
                fn_name,
                [self.bind_expr(expr.operand), self.bind_expr(expr.pattern)],
            )
            if expr.negated:
                return BoundNot(bound, BOOLEAN)
            return bound
        if isinstance(expr, ast.CaseExpr):
            return self._bind_case(expr)
        if isinstance(expr, ast.IntervalExpr):
            operand = self.bind_expr(expr.operand)
            if operand.ltype == INTERVAL:
                return operand
            operand = self._implicit_cast(operand, VARCHAR)
            return self._resolve_call("to_interval", [operand])
        if isinstance(expr, ast.StructLiteral):
            return self._bind_struct(expr)
        if isinstance(expr, ast.ScalarSubquery):
            return self._bind_subquery("scalar", expr.query)
        if isinstance(expr, ast.Exists):
            return self._bind_subquery("exists", expr.query)
        if isinstance(expr, ast.InSubquery):
            operand = self.bind_expr(expr.operand)
            sub = self._bind_subquery("in", expr.query)
            sub.operand = operand
            sub.negated = expr.negated
            eq_fn, _ = self.context.functions.resolve_scalar(
                "=", (operand.ltype, sub.plan.output_types()[0])
            )
            sub.comparison = eq_fn
            return sub
        if isinstance(expr, ast.QuantifiedComparison):
            operand = self.bind_expr(expr.operand)
            sub = self._bind_subquery("quantified", expr.query)
            sub.operand = operand
            sub.quantifier = expr.quantifier
            cmp_fn, _ = self.context.functions.resolve_scalar(
                expr.op, (operand.ltype, sub.plan.output_types()[0])
            )
            sub.comparison = cmp_fn
            return sub
        if isinstance(expr, ast.Star):
            raise BinderError("'*' is only valid in the select list")
        raise BinderError(f"cannot bind expression {type(expr).__name__}")

    def _bind_column(self, expr: ast.ColumnRef) -> BoundExpr:
        resolved = self.scope.resolve(expr.qualifier, expr.column)
        if resolved is not None:
            index, ltype = resolved
            return BoundColumnRef(index, ltype, expr.column)
        # Try outer scopes: correlation.
        binder: Binder | None = self.outer
        while binder is not None:
            outer_resolved = binder.scope.resolve(expr.qualifier, expr.column)
            if outer_resolved is not None:
                outer_index, ltype = outer_resolved
                outer_expr = BoundColumnRef(outer_index, ltype, expr.column)
                param_index = len(self.correlated_params)
                self.correlated_params.append((binder, outer_expr))
                return BoundParameterRef(param_index, ltype, expr.column)
            binder = binder.outer
        raise BinderError(
            f"column {'.'.join(expr.parts)!r} not found in scope"
        )

    def _bind_function(self, expr: ast.FunctionCall) -> BoundExpr:
        if self.context.functions.has_aggregate(expr.name) and not (
            self.context.functions.has_scalar(expr.name)
        ):
            raise BinderError(
                f"aggregate {expr.name}() is not allowed here"
            )
        args = [self.bind_expr(a) for a in expr.args]
        return self._resolve_call(expr.name, args)

    def _resolve_call(self, name: str, args: list[BoundExpr]) -> BoundFunction:
        fn, target_types = self.context.functions.resolve_scalar(
            name, tuple(a.ltype for a in args)
        )
        coerced = [
            self._implicit_cast(a, t) for a, t in zip(args, target_types)
        ]
        return_type = fn.return_type
        if return_type == ANY:
            return_type = coerced[0].ltype if coerced else ANY
        return BoundFunction(fn, coerced, return_type, name)

    def _bind_binary(self, expr: ast.BinaryOp) -> BoundExpr:
        if expr.op in ("AND", "OR"):
            left = self._coerce_boolean(self.bind_expr(expr.left))
            right = self._coerce_boolean(self.bind_expr(expr.right))
            args: list[BoundExpr] = []
            for part in (left, right):
                if isinstance(part, BoundConjunction) and part.op == expr.op:
                    args.extend(part.args)
                else:
                    args.append(part)
            return BoundConjunction(expr.op, args, BOOLEAN)
        left = self.bind_expr(expr.left)
        right = self.bind_expr(expr.right)
        # Numeric '||' means string concat only; leave to registry overloads.
        return self._resolve_call(expr.op, [left, right])

    def _bind_unary(self, expr: ast.UnaryOp) -> BoundExpr:
        if expr.op == "NOT":
            return BoundNot(
                self._coerce_boolean(self.bind_expr(expr.operand)), BOOLEAN
            )
        literal = expr.operand
        if (expr.op == "-" and isinstance(literal, ast.Literal)
                and literal.type_hint is None
                and type(literal.value) in (int, float)):
            # A negative number is one literal: -2**63 is a BIGINT.
            return _bind_literal(-literal.value)
        operand = self.bind_expr(expr.operand)
        if expr.op == "-":
            if isinstance(operand, BoundConstant) and isinstance(
                operand.value, (int, float)
            ):
                return BoundConstant(-operand.value, operand.ltype)
            return self._resolve_call("-", [operand])
        return operand

    def _bind_case(self, expr: ast.CaseExpr) -> BoundExpr:
        """The CASE takes its first non-NULL arm's type, or -- when the
        arms are numeric -- their widest type, each narrower arm cast
        inside its own branch so it still runs only on the rows the
        branch selects."""
        conditions: list[BoundExpr] = []
        results: list[BoundExpr] = []
        for cond_ast, result_ast in expr.branches:
            if expr.operand is not None:
                cond_ast = ast.BinaryOp("=", expr.operand, cond_ast)
            conditions.append(self._coerce_boolean(self.bind_expr(cond_ast)))
            results.append(self.bind_expr(result_ast))
        if expr.else_result is not None:
            results.append(self.bind_expr(expr.else_result))
        types = [r.ltype for r in results if r.ltype != SQLNULL]
        result_type = types[0] if types else SQLNULL
        if types and all(is_numeric(t) for t in types):
            result_type = functools.reduce(common_numeric, types)
            results = [
                self._implicit_cast(r, result_type) if is_numeric(r.ltype)
                else r
                for r in results
            ]
        else_result = (
            results.pop() if expr.else_result is not None else None
        )
        return BoundCase(list(zip(conditions, results)), else_result,
                         result_type)

    def _bind_struct(self, expr: ast.StructLiteral) -> BoundExpr:
        field_names = [name for name, _ in expr.fields]
        args = [self.bind_expr(value) for _, value in expr.fields]

        def make_struct(*values):
            return dict(zip(field_names, values))

        fn = ScalarFunction(
            "struct_pack",
            tuple(a.ltype for a in args),
            LogicalType("STRUCT", "object"),
            fn_scalar=make_struct,
        )
        return BoundFunction(fn, args, fn.return_type, "struct_pack")

    def _bind_subquery(
        self, kind: str, query: ast.SelectStatement
    ) -> BoundSubqueryExpr:
        sub_binder = Binder(self.context, self, self.ctes)
        plan = sub_binder.bind_select(query)
        params: list[BoundExpr] = []
        for owner, outer_expr in sub_binder.correlated_params:
            if owner is not self:
                # Parameter belongs to a further-out scope: re-export it.
                param_index = len(self.correlated_params)
                self.correlated_params.append((owner, outer_expr))
                params.append(
                    BoundParameterRef(param_index, outer_expr.ltype)
                )
            else:
                params.append(outer_expr)
        out_types = plan.output_types()
        if kind == "scalar":
            ltype = out_types[0]
        else:
            ltype = BOOLEAN
        return BoundSubqueryExpr(
            kind, plan, ltype, outer_params_exprs=params
        )

    # -- casts & coercions ---------------------------------------------------------------

    def bind_cast(self, child: BoundExpr, type_name: str) -> BoundExpr:
        target = self.context.types.lookup(type_name)
        if child.ltype == target:
            return child
        if child.ltype == SQLNULL:
            return BoundConstant(None, target)
        cost = implicit_cast_cost(child.ltype, target)
        cast_fn = self.context.functions.find_cast(child.ltype, target)
        if cast_fn is None and cost is None:
            raise BinderError(
                f"no cast from {child.ltype.name} to {target.name}"
            )
        return BoundCast(child, target, cast_fn, target.name)

    def _implicit_cast(
        self, expr: BoundExpr, target: LogicalType
    ) -> BoundExpr:
        if target == ANY or expr.ltype == target:
            return expr
        if expr.ltype == SQLNULL:
            return BoundConstant(None, target)
        cast_fn = self.context.functions.find_cast(expr.ltype, target)
        return BoundCast(expr, target, cast_fn, target.name)

    def _coerce_boolean(self, expr: BoundExpr) -> BoundExpr:
        if expr.ltype == BOOLEAN or expr.ltype == SQLNULL:
            return expr
        raise BinderError(
            f"expected a BOOLEAN expression, got {expr.ltype.name}"
        )

    def _constant_int(self, expr: ast.Expr) -> int:
        bound = self.bind_expr(expr)
        value = fold_constant(bound)
        if value is _NOT_CONSTANT or not isinstance(value, int):
            raise BinderError("LIMIT/OFFSET must be constant integers")
        return value


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _bind_literal(value: Any) -> BoundConstant:
    """A literal's constant; an integer takes the narrowest integer type
    that holds it, and one past int64 has no type (there is no wider
    integer, and a DOUBLE would round it)."""
    if value is None:
        return BoundConstant(None, SQLNULL)
    if isinstance(value, bool):
        return BoundConstant(value, BOOLEAN)
    if isinstance(value, int):
        if -(2**31) <= value < 2**31:
            return BoundConstant(value, INTEGER)
        if -(2**63) <= value < 2**63:
            return BoundConstant(value, BIGINT)
        raise BinderError(f"integer literal {value} is out of range "
                          f"for BIGINT")
    if isinstance(value, float):
        return BoundConstant(value, DOUBLE)
    return BoundConstant(str(value), VARCHAR)


def _default_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FunctionCall):
        return expr.name
    if isinstance(expr, ast.Cast):
        return _default_name(expr.operand)
    if isinstance(expr, ast.Literal):
        return str(expr.value)
    return "expr"


def _ast_children(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.FunctionCall):
        return list(expr.args)
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.Cast):
        return [expr.operand]
    if isinstance(expr, ast.IsNull):
        return [expr.operand]
    if isinstance(expr, ast.InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, ast.Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.Like):
        return [expr.operand, expr.pattern]
    if isinstance(expr, ast.CaseExpr):
        out = []
        if expr.operand is not None:
            out.append(expr.operand)
        for cond, result in expr.branches:
            out.extend((cond, result))
        if expr.else_result is not None:
            out.append(expr.else_result)
        return out
    if isinstance(expr, ast.IntervalExpr):
        return [expr.operand]
    if isinstance(expr, ast.StructLiteral):
        return [value for _, value in expr.fields]
    if isinstance(expr, (ast.InSubquery, ast.QuantifiedComparison)):
        return [expr.operand]
    return []


def ast_equal(a: ast.Expr, b: ast.Expr) -> bool:
    """Structural equality of parsed expressions (case-insensitive names)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.Literal):
        return a.value == b.value
    if isinstance(a, ast.ColumnRef):
        return [p.lower() for p in a.parts] == [p.lower() for p in b.parts] or (
            a.parts[-1].lower() == b.parts[-1].lower()
            and (len(a.parts) == 1 or len(b.parts) == 1)
        )
    if isinstance(a, ast.FunctionCall):
        return (
            a.name.lower() == b.name.lower()
            and a.distinct == b.distinct
            and a.is_star == b.is_star
            and len(a.args) == len(b.args)
            and all(ast_equal(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, ast.BinaryOp):
        return (
            a.op == b.op
            and ast_equal(a.left, b.left)
            and ast_equal(a.right, b.right)
        )
    if isinstance(a, ast.UnaryOp):
        return a.op == b.op and ast_equal(a.operand, b.operand)
    if isinstance(a, ast.Cast):
        return (
            a.type_name.lower() == b.type_name.lower()
            and ast_equal(a.operand, b.operand)
        )
    return False


class _NotConstant:
    def __repr__(self):
        return "<not constant>"


_NOT_CONSTANT = _NotConstant()


def fold_constant(expr: BoundExpr) -> Any:
    """Evaluate an expression tree that references no columns; returns
    ``_NOT_CONSTANT`` when impossible."""
    if isinstance(expr, BoundConstant):
        return expr.value
    if isinstance(expr, BoundCast):
        value = fold_constant(expr.child)
        if value is _NOT_CONSTANT:
            return _NOT_CONSTANT
        if expr.cast is not None:
            return expr.cast.apply(value)
        return _builtin_cast_value(value, expr.ltype)
    if isinstance(expr, BoundFunction):
        values = [fold_constant(a) for a in expr.args]
        if any(v is _NOT_CONSTANT for v in values):
            return _NOT_CONSTANT
        return expr.function.evaluate_row(values)
    if isinstance(expr, BoundNot):
        value = fold_constant(expr.child)
        if value is _NOT_CONSTANT:
            return _NOT_CONSTANT
        return None if value is None else not value
    return _NOT_CONSTANT


def _builtin_cast_value(value: Any, target: LogicalType) -> Any:
    if value is None:
        return None
    if target.physical == "int64":
        return int(value)
    if target.physical == "float64":
        return float(value)
    if target.physical == "bool":
        return bool(value)
    return value
