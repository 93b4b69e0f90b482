"""Tuple-at-a-time (Volcano) executor for the row-store baseline.

Interprets the same bound plans as :mod:`repro.quack.executor`, but one row
at a time through a tree-walking expression interpreter — the execution
model of PostgreSQL that the paper measures MobilityDB against.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from ..observability import count as _count
from ..quack.errors import ExecutionError
from ..quack.keys import row_key, sort_comparator
from .table import Varlena
from ..quack.plan import (
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
    LogicalIndexScan,
    LogicalJoin,
    LogicalLimit,
    LogicalMaterializedCTE,
    LogicalOperator,
    LogicalProject,
    LogicalSetOp,
    LogicalSort,
    LogicalTableFunction,
    quantify,
)
from ..quack.profiler import ExecutionContext, _execute_profiled


# ---------------------------------------------------------------------------
# Row expression interpreter
# ---------------------------------------------------------------------------


def eval_row(expr: BoundExpr, row: tuple, ctx: ExecutionContext) -> Any:
    if isinstance(expr, BoundConstant):
        return expr.value
    if isinstance(expr, BoundColumnRef):
        value = row[expr.index]
        if isinstance(value, Varlena):
            # An out-of-line datum detoasts on every access, like
            # PostgreSQL; inline ones are read in place (see pgsim.table).
            return value.load()
        return value
    if isinstance(expr, BoundParameterRef):
        return ctx.params[expr.param_index]
    if isinstance(expr, BoundFunction):
        args = [eval_row(a, row, ctx) for a in expr.args]
        return expr.function.evaluate_row(args)
    if isinstance(expr, BoundCast):
        value = eval_row(expr.child, row, ctx)
        if value is None:
            return None
        if expr.cast is not None:
            return expr.cast.apply(value)
        physical = expr.ltype.physical
        if physical == "int64":
            return int(round(value)) if isinstance(value, float) else int(value)
        if physical == "float64":
            return float(value)
        if physical == "bool":
            return bool(value)
        return value
    if isinstance(expr, BoundConjunction):
        if expr.op == "AND":
            saw_null = False
            for arg in expr.args:
                value = eval_row(arg, row, ctx)
                if value is None:
                    saw_null = True
                elif not value:
                    return False
            return None if saw_null else True
        saw_null = False
        for arg in expr.args:
            value = eval_row(arg, row, ctx)
            if value is None:
                saw_null = True
            elif value:
                return True
        return None if saw_null else False
    if isinstance(expr, BoundNot):
        value = eval_row(expr.child, row, ctx)
        return None if value is None else (not value)
    if isinstance(expr, BoundIsNull):
        value = eval_row(expr.child, row, ctx)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, BoundInList):
        return quantify(
            expr.eq_function, eval_row(expr.operand, row, ctx),
            (eval_row(item, row, ctx) for item in expr.items),
            negated=expr.negated,
        )
    if isinstance(expr, BoundCase):
        for cond, result in expr.branches:
            if eval_row(cond, row, ctx):
                return eval_row(result, row, ctx)
        if expr.else_result is not None:
            return eval_row(expr.else_result, row, ctx)
        return None
    if isinstance(expr, BoundSubqueryExpr):
        params = tuple(
            eval_row(p, row, ctx) for p in expr.outer_params_exprs
        )
        operand = None if expr.operand is None else (
            eval_row(expr.operand, row, ctx)
        )
        return expr.result(
            operand, ctx.subquery_rows(expr.plan, params, _plan_rows)
        )
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _plan_rows(plan: LogicalOperator, ctx: ExecutionContext) -> list[tuple]:
    return list(execute_rows(plan, ctx))


# ---------------------------------------------------------------------------
# Volcano operators
# ---------------------------------------------------------------------------


def execute_rows(op: LogicalOperator,
                 ctx: ExecutionContext) -> Iterator[tuple]:
    """Execute one operator; instrumented when the context carries a
    profiler."""
    rows = _execute_operator(op, ctx)
    if ctx.profiler is None:
        return rows
    return _execute_profiled(op, ctx, rows, _row_width)


def _row_width(row: tuple) -> int:
    return 1


def _execute_operator(op: LogicalOperator,
                      ctx: ExecutionContext) -> Iterator[tuple]:
    if isinstance(op, LogicalMaterializedCTE):
        ctx.define_ctes(op)
        yield from execute_rows(op.child, ctx)
        return
    if isinstance(op, LogicalGet):
        pairs = op.table.scan()
        if op.reads_row_id:
            rows = (row + (rid,) for rid, row in pairs)
        else:
            rows = (row for _, row in pairs)
        project = _projector(op)
        yield from rows if project is None else map(project, rows)
        return
    if isinstance(op, LogicalIndexScan):
        project = _projector(op)
        fetch = _fetcher(op)
        for rid in ctx.index_scan_row_ids(op):
            row = fetch(rid)
            if row is not None:
                yield row if project is None else project(row)
        return
    if isinstance(op, LogicalTableFunction):
        yield from ((value,) for value in op.series())
        return
    if isinstance(op, LogicalCTERef):
        yield from ctx.cte_items(op, execute_rows)
        return
    if isinstance(op, LogicalFilter):
        for row in execute_rows(op.child, ctx):
            if eval_row(op.condition, row, ctx):
                yield row
        return
    if isinstance(op, LogicalProject):
        for row in execute_rows(op.child, ctx):
            yield tuple(eval_row(e, row, ctx) for e in op.exprs)
        return
    if isinstance(op, LogicalJoin):
        yield from _execute_join(op, ctx)
        return
    if isinstance(op, LogicalAggregate):
        yield from _execute_aggregate(op, ctx)
        return
    if isinstance(op, LogicalSort):
        yield from _execute_sort(op, ctx)
        return
    if isinstance(op, LogicalDistinct):
        seen: set = set()
        for row in execute_rows(op.child, ctx):
            key = row_key(row)
            if key not in seen:
                seen.add(key)
                yield row
        return
    if isinstance(op, LogicalSetOp):
        yield from op.combine(_plan_rows(op.left, ctx),
                              _plan_rows(op.right, ctx))
        return
    if isinstance(op, LogicalLimit):
        remaining = op.limit
        to_skip = op.offset
        for row in execute_rows(op.child, ctx):
            if to_skip:
                to_skip -= 1
                continue
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            yield row
        return
    raise ExecutionError(f"cannot execute {type(op).__name__}")


def _fetcher(op: LogicalIndexScan) -> Callable[[int], tuple | None]:
    """Row id → the live heap row an index scan emits (None when
    deleted), the row id appended when the scan emits it."""
    fetch = op.table.fetch
    if not op.reads_row_id:
        return fetch
    return lambda rid: None if (row := fetch(rid)) is None else row + (rid,)


def _projector(op: LogicalGet | LogicalIndexScan | LogicalJoin
               ) -> Callable[[tuple], tuple] | None:
    """The tuple projection of a narrowed scan or join: one C-level
    ``itemgetter`` that picks the columns the plan reads.  On a heap
    tuple it is the analogue of PostgreSQL's ``slot_getsomeattrs``,
    which deforms only the attributes a plan needs (out-of-line values
    still detoast at the column reference).  ``None`` when every column
    is read."""
    columns = op.columns
    if columns is None:
        return None
    if len(columns) == 1:
        # itemgetter of one index returns the bare value, of a slice a
        # tuple
        return itemgetter(slice(columns[0], columns[0] + 1))
    return itemgetter(*columns)


def _execute_join(op: LogicalJoin, ctx: ExecutionContext) -> Iterator[tuple]:
    """Every join method runs one loop over the right rows each left row
    pairs with, keeping the pairs ``op.residual`` passes; a LEFT join
    pads a left row none of them kept."""
    candidates = _join_candidates(op, ctx)
    project = _projector(op)
    null_pad = (None,) * len(op.right.output_types())
    for l_row in execute_rows(op.left, ctx):
        matched = False
        for r_row in candidates(l_row):
            combined = l_row + r_row
            if op.residual is not None and not eval_row(
                op.residual, combined, ctx
            ):
                continue
            matched = True
            yield combined if project is None else project(combined)
        if op.join_type == "left" and not matched:
            padded = l_row + null_pad
            yield padded if project is None else project(padded)


def _join_candidates(op: LogicalJoin, ctx: ExecutionContext
                     ) -> Callable[[tuple], Iterable[tuple]]:
    """Left row → its candidate right rows.  The index nested loop
    probes the right table's index with the evaluated left expression
    per row (GiST join strategy); the hash join builds its table, and the
    nested loop its rows, before the first left row."""
    if op.index_probe is not None and not op.equi_keys:
        index, op_name, left_expr = op.index_probe
        project = _projector(op.right)

        def probe(l_row: tuple) -> list[tuple]:
            value = eval_row(left_expr, l_row, ctx)
            if value is None:
                return []
            _count("executor.join_index_probes")
            ctx.annotate(op, "index_probes")
            rows = map(index.table.fetch,
                       sorted(index.probe(op_name, value) or ()))
            return [row if project is None else project(row)
                    for row in rows if row is not None]

        return probe
    right_rows = list(execute_rows(op.right, ctx))
    if not op.equi_keys:
        return lambda l_row: right_rows
    # Hash join, one probe per row (PostgreSQL-style).  Keys go through
    # the shared ``hashable_key`` canonicalization so NaN and -0.0 keys
    # match exactly like the columnar engine.
    table: dict[tuple, list[tuple]] = {}
    for r_row in right_rows:
        key = tuple(eval_row(rk, r_row, ctx) for _, rk in op.equi_keys)
        if not any(k is None for k in key):
            table.setdefault(row_key(key), []).append(r_row)

    def lookup(l_row: tuple) -> list[tuple]:
        key = tuple(eval_row(lk, l_row, ctx) for lk, _ in op.equi_keys)
        if any(k is None for k in key):
            return []
        return table.get(row_key(key), [])

    return lookup


def _execute_aggregate(op: LogicalAggregate,
                       ctx: ExecutionContext) -> Iterator[tuple]:
    groups: dict[tuple, list] = {}
    group_values: dict[tuple, tuple] = {}
    distinct_seen: dict[tuple, list[set]] = {}
    for row in execute_rows(op.child, ctx):
        key_values = tuple(eval_row(g, row, ctx) for g in op.groups)
        key = row_key(key_values)
        state = groups.get(key)
        if state is None:
            state = [spec.function.init() for spec in op.aggregates]
            groups[key] = state
            group_values[key] = key_values
            distinct_seen[key] = [set() for _ in op.aggregates]
        for a, spec in enumerate(op.aggregates):
            values = [eval_row(arg, row, ctx) for arg in spec.args]
            if values and not spec.function.accepts_null and any(
                v is None for v in values
            ):
                continue
            if spec.distinct:
                marker = row_key(values)
                if marker in distinct_seen[key][a]:
                    continue
                distinct_seen[key][a].add(marker)
            state[a] = spec.function.step(state[a], *values)
    if not groups and not op.groups:
        groups[()] = [spec.function.init() for spec in op.aggregates]
        group_values[()] = ()
    for key, state in groups.items():
        finals = tuple(
            spec.function.final(s) for spec, s in zip(op.aggregates, state)
        )
        yield group_values[key] + finals


def _execute_sort(op: LogicalSort, ctx: ExecutionContext) -> Iterator[tuple]:
    rows = []
    for row in execute_rows(op.child, ctx):
        keys = tuple(eval_row(k, row, ctx) for k, _, _ in op.keys)
        rows.append((row, keys))
    # Shared with quack's sort fallback so both engines agree on NULL
    # placement and NaN-sorts-greatest semantics.
    comparator = sort_comparator([(asc, nf) for _, asc, nf in op.keys])
    for row, _ in sorted(rows, key=comparator):
        yield row
