"""Per-query execution state and EXPLAIN ANALYZE instrumentation.

An :class:`ExecutionContext` is one query's state — CTE plans and
results, correlated parameters, the subquery memo — plus its optional
profiler.  It carries no statistics: the query's counters, gauges and
timeline are reached through the ambient
:mod:`repro.observability` recorder.  Both engines' executors run on
it, and it owns the rules that do not depend on how a plan runs: the
memo, CTE materialization and the index-scan probe.  Only quack reads
its spill watermark.

A :class:`PlanProfiler` collects per-operator row counts and inclusive
timings, plus one store of per-operator annotations: the
kernel-vs-fallback triple (:data:`KERNEL_KEYS`) and free-form metrics
(index probe counts, candidate counts).  Both executors drive it
through the context and the one operator wrapper here,
:func:`_execute_profiled` — profiling is a property of the context, not
of module state, so profiled executions nest and interleave safely.
This module imports neither executor, so both can import it.

Rendered text, DuckDB-style::

    PHASES parse=0.03ms bind=0.21ms optimize=0.05ms execute=1.80ms total=2.09ms
    PROJECTION [a, b]            (rows=120, 0.8ms)
      FILTER                     (rows=120, 2.1ms)
        SEQ_SCAN trips           (rows=5000, 0.4ms)

The plan of a subquery prints under the operator whose expression holds
it, its root marked ``SUBQUERY``, before the operator's input.

Timing is inclusive of children (each operator's clock runs while it
waits on its input), so the root time is the query's total.
:meth:`PlanProfiler.to_dict` is the ``format="json"`` structured tree.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..observability import QueryStatistics, current_stats
from ..observability import count as _count
from .errors import ExecutionError
from .keys import exact_key
from .plan import (
    LogicalCTERef,
    LogicalIndexScan,
    LogicalMaterializedCTE,
    LogicalOperator,
    plan_lines,
    subquery_plans,
)


#: The annotations of an operator's kernel-or-fallback dispatches (its
#: input rows, kernel runs, row-loop runs): rendered first, in this
#: order, and as the JSON ``"kernel"`` object.
KERNEL_KEYS = ("rows_in", "kernel", "fallback")


@dataclass
class OperatorStats:
    rows: int = 0
    seconds: float = 0.0
    invocations: int = 0


class PlanProfiler:
    """Collects per-operator statistics during one (or more) executions."""

    def __init__(self):
        self.stats: dict[int, OperatorStats] = {}
        #: per-operator annotations keyed by ``id(op)``: the
        #: :data:`KERNEL_KEYS` and free-form counters (probes, ...)
        self.op_metrics: dict[int, dict[str, int]] = {}

    def stats_for(self, op: LogicalOperator) -> OperatorStats:
        return self.stats.setdefault(id(op), OperatorStats())

    def annotate(self, op: LogicalOperator, key: str, n: int = 1) -> None:
        """Add ``n`` to ``op``'s annotation ``key`` (``n=0`` shows it)."""
        metrics = self.op_metrics.setdefault(id(op), {})
        metrics[key] = metrics.get(key, 0) + n

    def _annotations(self, op: LogicalOperator
                     ) -> tuple[dict[str, int] | None, dict[str, int]]:
        """``op``'s kernel-or-fallback triple (None when it recorded
        none of it) and its other annotations."""
        metrics = dict(self.op_metrics.get(id(op), {}))
        if not any(key in metrics for key in KERNEL_KEYS):
            return None, metrics
        return {key: metrics.pop(key, 0) for key in KERNEL_KEYS}, metrics

    # -- rendering ------------------------------------------------------------

    def _annotation(self, op: LogicalOperator) -> str:
        stats = self.stats.get(id(op))
        estimated = getattr(op, "estimated_rows", None)
        if stats is None:
            if estimated is not None:
                return f"(est={estimated}, not executed)"
            return "(not executed)"
        parts = [f"rows={stats.rows}"]
        if estimated is not None:
            parts.append(f"est={estimated}")
        kernel, metrics = self._annotations(op)
        for key, value in [*(kernel or {}).items(), *sorted(metrics.items())]:
            parts.append(f"{key}={value}")
        parts.append(f"{stats.seconds * 1000:.2f}ms")
        return f"({', '.join(parts)})"

    def render(self, plan: LogicalOperator,
               query_stats: QueryStatistics | None = None) -> str:
        lines: list[str] = []
        if query_stats is not None:
            lines.append(f"PHASES {query_stats.format_phases()}")
            counters = query_stats.format_counters()
            if counters:
                lines.append(f"COUNTERS {counters}")

        lines.extend(
            f"{head}{op._explain_label()}  {self._annotation(op)}"
            for head, op in plan_lines(plan)
        )
        return "\n".join(lines)

    def trace_dict(self, plan: LogicalOperator,
                   query_stats: QueryStatistics,
                   engine: str = "quack") -> dict[str, Any]:
        """The ``format="trace"`` output: the query's timeline (phase
        spans + operator events on one lane) as Chrome trace-event JSON,
        with the plan text riding along in ``otherData`` so the viewer tab
        is self-describing."""
        from ..observability.trace import chrome_trace

        return chrome_trace(
            query_stats, meta={"engine": engine, "plan": plan.explain()}
        )

    def to_dict(self, plan: LogicalOperator,
                query_stats: QueryStatistics | None = None
                ) -> dict[str, Any]:
        """The structured (``format="json"``) EXPLAIN ANALYZE tree."""

        def visit(op: LogicalOperator) -> dict[str, Any]:
            node: dict[str, Any] = {"operator": op._explain_label()}
            estimated = getattr(op, "estimated_rows", None)
            if estimated is not None:
                node["estimated_rows"] = estimated
            stats = self.stats.get(id(op))
            if stats is not None:
                node["rows"] = stats.rows
                node["seconds"] = stats.seconds
                node["invocations"] = stats.invocations
            kernel, metrics = self._annotations(op)
            if kernel is not None:
                node["kernel"] = kernel
            if metrics:
                node["metrics"] = metrics
            subqueries = subquery_plans(op)
            if subqueries:
                node["subqueries"] = [visit(plan) for plan in subqueries]
            node["children"] = [visit(child) for child in op.children()]
            return node

        out: dict[str, Any] = {"plan": visit(plan)}
        if query_stats is not None:
            out["phases"] = query_stats.phase_seconds()
            out["total_seconds"] = query_stats.total_seconds()
            out["counters"] = dict(query_stats.counters)
            out["gauges"] = dict(query_stats.gauges)
        return out


class ExecutionContext:
    """Per-query state: CTE materializations, correlated parameters, the
    subquery memo, and the optional plan profiler.  Both engines reach
    that state through the methods below, passing the one
    engine-specific step — how a plan runs — as ``run(plan, ctx)``.

    Profiling is context-scoped: a subquery runs on a copy of its
    query's context that differs only in ``params``, so subquery and CTE
    execution is captured too, and two queries' contexts never share
    mutable profiling state."""

    def __init__(self, profiler=None,
                 memory_limit_bytes: int | None = None):
        #: materialized CTEs: chunks under quack, tuples under pgsim
        self._cte_results: dict[int, list] = {}
        self._cte_plans: dict[int, LogicalOperator] = {}
        #: the correlated values a subquery plan's parameters read
        self.params: tuple = ()
        #: correlated subquery results: (id(plan), exact params) -> rows
        self._subquery_rows: dict[tuple, list[tuple]] = {}
        #: PlanProfiler driving per-operator instrumentation (EXPLAIN
        #: ANALYZE); None for regular execution
        self.profiler = profiler
        #: ``SET memory_limit = <MB>`` watermark in bytes; None = no
        #: limit.  Blocking sinks (sort / hash-join build / aggregation)
        #: that materialize past it spill to disk and merge back.
        self.memory_limit_bytes = memory_limit_bytes

    def annotate(self, op: LogicalOperator, key: str, n: int = 1) -> None:
        """Add ``n`` to ``op``'s profiler annotation ``key``; a no-op
        without a profiler."""
        if self.profiler is not None:
            self.profiler.annotate(op, key, n)

    def subquery_rows(self, plan: LogicalOperator, params: tuple,
                      run: Callable) -> list[tuple]:
        """The rows of a subquery ``plan`` under the correlated values
        ``params``: ``run(plan, ctx)`` once per distinct ``params`` of
        the query, the memo after (keyed on the exact values: ``-0.0``
        is not ``0.0`` here, and a LIST keys by its items)."""
        key = (id(plan), tuple(map(exact_key, params)))
        rows = self._subquery_rows.get(key)
        if rows is None:
            child = copy.copy(self)
            child.params = params
            rows = self._subquery_rows[key] = run(plan, child)
        return rows

    def define_ctes(self, op: LogicalMaterializedCTE) -> None:
        """Make ``op``'s CTEs known; each runs at its first reference."""
        for cte_id, _, plan in op.ctes:
            self._cte_plans[cte_id] = plan

    def cte_items(self, op: LogicalCTERef, run: Callable) -> list:
        """The materialized output of the CTE ``op`` reads: the items of
        ``run(plan, ctx)`` (chunks or tuples), run at the first
        reference."""
        items = self._cte_results.get(op.cte_id)
        if items is None:
            plan = self._cte_plans.get(op.cte_id)
            if plan is None:
                raise ExecutionError(f"CTE {op.name!r} was not materialized")
            items = self._cte_results[op.cte_id] = list(run(plan, self))
        return items

    def index_scan_row_ids(self, op: LogicalIndexScan) -> list[int]:
        """The candidate row ids of an index scan in ascending order (the
        table's physical order), counted per query and per operator."""
        row_ids = op.index.probe(op.op_name, op.constant)
        if row_ids is None:
            raise ExecutionError(
                f"index {op.index.name} cannot serve {op.op_name}"
            )
        _count("executor.index_scans")
        _count("executor.index_candidates", len(row_ids))
        self.annotate(op, "probes")
        self.annotate(op, "candidates", len(row_ids))
        return sorted(row_ids)


def _execute_profiled(op: LogicalOperator, ctx: ExecutionContext,
                      items: Iterator,
                      width: Callable[[Any], int]) -> Iterator:
    """Stream ``items`` — ``op``'s output under either engine — through
    ``ctx.profiler``.  ``width(item)`` is the number of rows one
    item carries: a chunk's count, or 1 for a tuple."""
    query = current_stats()
    trace = query.trace if query is not None else None
    stats = ctx.profiler.stats_for(op)
    stats.invocations += 1
    rows_before = stats.rows
    opened = time.perf_counter()
    start = opened
    try:
        for item in items:
            stats.rows += width(item)
            stats.seconds += time.perf_counter() - start
            yield item
            start = time.perf_counter()
        stats.seconds += time.perf_counter() - start
    except GeneratorExit:
        stats.seconds += time.perf_counter() - start
        raise
    finally:
        # One timeline event per invocation lifetime (first pull to
        # exhaustion, consumer time included — matching the inclusive
        # profiler clock), so nested operators nest on the lane and the
        # Volcano loop does not emit an event per row.
        if trace is not None:
            trace.emit(
                op._explain_label(), "operator", opened,
                time.perf_counter() - opened,
                rows=stats.rows - rows_before,
            )
