"""The PostgreSQL-like baseline database (the MobilityDB stand-in).

Shares the SQL front end, binder, plan and optimizer with quack but stores
rows in heaps and executes tuple-at-a-time (see :mod:`.executor`).  GiST
and B-tree index types are built in, mirroring PostgreSQL; without
``CREATE INDEX`` every predicate is a sequential scan.
"""

from __future__ import annotations

import time
from typing import Any

from ..analysis.config import verification_enabled
from ..observability import (
    REGISTRY,
    QueryLog,
    QueryRecord,
    QueryStatistics,
    TraceCollector,
    activate,
    collection_enabled,
    current_stats,
    maybe_span,
)
from ..observability.trace import write_trace
from ..quack.binder import Binder, BinderContext, _NOT_CONSTANT, fold_constant
from ..quack.builtins import register_builtins
from ..quack.catalog import IndexType
from ..quack.database import DatabaseConfig, Result
from ..quack.errors import BinderError, CatalogError, ExecutionError, QuackError
from ..quack.functions import FunctionRegistry
from ..quack.optimizer import optimize
from ..quack.plan import LogicalMaterializedCTE, LogicalOperator
from ..quack.sql import ast, parse_sql
from ..quack.types import LogicalType, TypeRegistry
from .executor import RowContext, eval_row, execute_rows
from .indexes import BTreeIndex, GistIndex
from .table import RowCatalog, RowTable


class RowDatabase:
    """An in-process row-store database instance."""

    def __init__(self):
        self.types = TypeRegistry()
        self.functions = FunctionRegistry()
        self.catalog = RowCatalog()
        self.config = DatabaseConfig()
        self.loaded_extensions: list[str] = []
        register_builtins(self.functions)
        self._register_builtin_indexes()

    def _register_builtin_indexes(self) -> None:
        self.config.index_types.register(
            IndexType(
                "GIST",
                lambda name, table, column, database: GistIndex(
                    name, table, column
                ),
            )
        )
        self.config.index_types.register(
            IndexType(
                "BTREE",
                lambda name, table, column, database: BTreeIndex(
                    name, table, column
                ),
            )
        )

    def connect(self) -> "RowConnection":
        return RowConnection(self)

    def load_extension(self, extension) -> None:
        extension.load(self)
        name = getattr(extension, "EXTENSION_NAME", None) or getattr(
            extension, "__name__", type(extension).__name__
        )
        self.loaded_extensions.append(name)


class RowConnection:
    """A connection to a row database; executes SQL statements."""

    def __init__(self, database: RowDatabase):
        self.database = database
        #: statistics of the most recent :meth:`execute` call
        self.last_query_stats: QueryStatistics | None = None
        #: rolling log of completed queries (``SET log_min_duration``
        #: tunes the slow-query threshold)
        self._query_log = QueryLog()
        #: cost-based optimizer kill switch (``SET cbo = on|off``)
        self._cbo = True

    def execute(self, sql: str) -> Result:
        if not collection_enabled():
            return self._execute_script(sql, None)
        stats = QueryStatistics()
        stats.trace = TraceCollector()
        self.last_query_stats = stats
        start = time.perf_counter()
        error: str | None = None
        result = Result()
        try:
            with activate(stats):
                result = self._execute_script(sql, stats)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self._finish_query(
                sql, stats, time.perf_counter() - start, result, error
            )
        result.query_stats = stats
        return result

    def _finish_query(self, sql: str, stats: QueryStatistics,
                      seconds: float, result: Result,
                      error: str | None) -> None:
        """Record the finished query in the log and the global registry."""
        if stats.trace is not None and len(stats.trace):
            stats.bump("trace.events", len(stats.trace))
        record = QueryRecord(
            sql=sql,
            seconds=seconds,
            rows=len(result.rows) if error is None else None,
            engine="pgsim",
            error=error,
            phases=stats.phase_seconds(),
            counters=dict(stats.counters),
        )
        if self._query_log.record(record):
            stats.bump("querylog.records")
        else:
            stats.bump("querylog.suppressed")
        REGISTRY.absorb(stats)

    def query_log(self, n: int | None = None,
                  format: str = "records"):
        """The connection's rolling log of completed queries.

        ``format="records"`` returns :class:`QueryRecord` objects
        (oldest first), ``"text"`` a rendered log, ``"json"`` a JSON
        string.  ``n`` limits to the most recent n queries."""
        if format == "records":
            return self._query_log.records(n)
        if format == "text":
            return self._query_log.format_text(n)
        if format == "json":
            return self._query_log.to_json(n)
        raise QuackError(f"unsupported query_log format {format!r}")

    def export_trace(self, path: str) -> dict:
        """Write the last executed query's timeline to ``path`` as
        Chrome trace-event JSON (Perfetto-loadable); returns the dict."""
        if self.last_query_stats is None:
            raise QuackError(
                "no traced query: execute one with collection enabled "
                "before export_trace"
            )
        return write_trace(self.last_query_stats, path,
                           meta={"engine": "pgsim"})

    def _execute_script(self, sql: str,
                        stats: QueryStatistics | None) -> Result:
        with maybe_span(stats, "parse"):
            statements = parse_sql(sql)
        result = Result()
        for stmt in statements:
            result = self._execute_statement(stmt)
        return result

    def sql(self, sql: str) -> Result:
        return self.execute(sql)

    def explain(self, sql: str) -> str:
        result = self.execute(f"EXPLAIN {sql}")
        return result.plan_text or ""

    def explain_analyze(self, sql: str, format: str = "text"):
        """Profile one SELECT; ``format="json"`` returns the structured
        tree (same schema as the columnar engine's), ``format="trace"``
        the execution timeline as Chrome trace-event JSON."""
        if format not in ("text", "json", "trace"):
            raise QuackError(f"unsupported explain format {format!r}")
        from ..quack.profiler import PlanProfiler

        stats = QueryStatistics()
        stats.trace = TraceCollector()
        self.last_query_stats = stats
        profiler = PlanProfiler()
        with activate(stats):
            with stats.tracer.span("parse"):
                statements = parse_sql(sql)
            if len(statements) != 1:
                raise BinderError(
                    "explain_analyze expects exactly one statement"
                )
            stmt = statements[0]
            if isinstance(stmt, ast.ExplainStatement):
                stmt = stmt.inner
            if not isinstance(stmt, (ast.SelectStatement,
                                     ast.CompoundSelect)):
                raise BinderError("EXPLAIN supports SELECT statements")
            plan = self._plan_select(stmt)
            ctx = RowContext(stats=stats, profiler=profiler)
            with stats.tracer.span("execute"):
                for _ in execute_rows(plan, ctx):
                    stats.bump("executor.rows_returned")
        if stats.trace is not None and len(stats.trace):
            stats.bump("trace.events", len(stats.trace))
        REGISTRY.absorb(stats)
        if format == "json":
            out = profiler.to_dict(plan, stats)
            out["engine"] = "pgsim"
            return out
        if format == "trace":
            return profiler.trace_dict(plan, stats, engine="pgsim")
        return profiler.render(plan, stats)

    # -- statement dispatch -------------------------------------------------------

    def _execute_statement(self, stmt: ast.Statement) -> Result:
        if isinstance(stmt, (ast.SelectStatement, ast.CompoundSelect)):
            plan = self._plan_select(stmt)
            return self._run_plan(plan)
        if isinstance(stmt, ast.ExplainStatement):
            inner = stmt.inner
            if not isinstance(inner, (ast.SelectStatement,
                                      ast.CompoundSelect)):
                raise BinderError("EXPLAIN supports SELECT statements")
            plan = self._plan_select(inner)
            if stmt.analyze:
                from ..quack.profiler import PlanProfiler

                profiler = PlanProfiler()
                stats = current_stats()
                ctx = RowContext(stats=stats, profiler=profiler)
                with maybe_span(stats, "execute"):
                    for _ in execute_rows(plan, ctx):
                        pass
                text = profiler.render(plan, stats)
            else:
                text = plan.explain()
            return Result(["explain"], [], [(text,)], plan_text=text)
        if isinstance(stmt, ast.CreateTableStatement):
            return self._execute_create_table(stmt)
        if isinstance(stmt, ast.CreateIndexStatement):
            table = self.database.catalog.get_table(stmt.table)
            index_type = self.database.config.index_types.lookup(stmt.using)
            index = index_type.create_instance(
                name=stmt.name,
                table=table,
                column=stmt.column,
                database=self.database,
            )
            self.database.catalog.add_index(index)
            return Result()
        if isinstance(stmt, ast.InsertStatement):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.UpdateStatement):
            return self._execute_update(stmt)
        if isinstance(stmt, ast.DeleteStatement):
            return self._execute_delete(stmt)
        if isinstance(stmt, ast.DropStatement):
            if stmt.kind == "table":
                self.database.catalog.drop_table(stmt.name, stmt.if_exists)
                return Result()
            index = self.database.catalog.indexes.pop(stmt.name.lower(), None)
            if index is None and not stmt.if_exists:
                raise CatalogError(f"index {stmt.name!r} does not exist")
            if index is not None:
                index.table.indexes.remove(index)
            return Result()
        if isinstance(stmt, ast.AnalyzeStatement):
            return self._execute_analyze(stmt)
        if isinstance(stmt, ast.SetStatement):
            return self._execute_set(stmt)
        if isinstance(stmt, ast.ShowStatement):
            return self._execute_show(stmt)
        raise QuackError(f"unsupported statement {type(stmt).__name__}")

    def _execute_analyze(self, stmt: ast.AnalyzeStatement) -> Result:
        """Collect optimizer statistics for one table (or all tables)."""
        from ..quack.stats import analyze_table

        catalog = self.database.catalog
        if stmt.table is not None:
            tables = [catalog.get_table(stmt.table)]
        else:
            tables = list(catalog.tables.values())
        rows = []
        for table in tables:
            table.stats = analyze_table(table)
            rows.append(
                (table.name, table.stats.row_count,
                 len(table.stats.columns))
            )
        return Result(["table", "rows", "columns"], [], rows)

    def _execute_set(self, stmt: ast.SetStatement) -> Result:
        name = stmt.name.lower()
        if name == "cbo":
            from ..quack.database import _parse_on_off

            self._cbo = _parse_on_off(stmt.value, "cbo")
            return Result()
        if name != "log_min_duration":
            raise QuackError(f"unknown setting {stmt.name!r}")
        context = BinderContext(
            self.database.catalog, self.database.functions,
            self.database.types,
        )
        value = fold_constant(Binder(context).bind_expr(stmt.value))
        if (
            value is _NOT_CONSTANT
            or isinstance(value, bool)
            or not isinstance(value, (int, float))
        ):
            raise QuackError(
                "SET log_min_duration expects a number of milliseconds"
            )
        self._query_log.min_duration_ms = float(value)
        return Result()

    def _execute_show(self, stmt: ast.ShowStatement) -> Result:
        name = stmt.name.lower()
        if name == "cbo":
            return Result([name], [], [("on" if self._cbo else "off",)])
        if name != "log_min_duration":
            raise QuackError(f"unknown setting {stmt.name!r}")
        return Result(
            [name], [], [(self._query_log.min_duration_ms,)]
        )

    def _plan_select(self, stmt: ast.SelectStatement) -> LogicalOperator:
        stats = current_stats()
        context = BinderContext(
            self.database.catalog, self.database.functions,
            self.database.types,
        )
        binder = Binder(context)
        with maybe_span(stats, "bind"):
            plan = binder.bind_select(stmt)
            if context.all_ctes:
                plan = LogicalMaterializedCTE(context.all_ctes, plan)
        if verification_enabled():
            from ..analysis.verifier import verify_planned

            verify_planned(plan, self.database.functions, stats, "bind")
        with maybe_span(stats, "optimize"):
            plan = optimize(plan, stats, cbo=self._cbo)
        if verification_enabled():
            from ..analysis.verifier import verify_planned

            verify_planned(plan, self.database.functions, stats, "optimize")
        return plan

    def _run_plan(self, plan: LogicalOperator) -> Result:
        stats = current_stats()
        ctx = RowContext(stats=stats)
        with maybe_span(stats, "execute"):
            rows = list(execute_rows(plan, ctx))
        if stats is not None:
            stats.bump("executor.rows_returned", len(rows))
        return Result(plan.output_names(), plan.output_types(), rows)

    # -- DDL / DML ----------------------------------------------------------------

    def _execute_create_table(self, stmt: ast.CreateTableStatement) -> Result:
        if stmt.if_not_exists and self.database.catalog.has_table(stmt.name):
            return Result()
        if stmt.as_query is not None:
            plan = self._plan_select(stmt.as_query)
            result = self._run_plan(plan)
            table = RowTable(
                stmt.name,
                list(zip(result.column_names, result.column_types)),
            )
            table.append_rows(result.rows)
            self.database.catalog.create_table(table, stmt.or_replace)
            return Result()
        columns = [
            (col.name, self.database.types.lookup(col.type_name))
            for col in stmt.columns
        ]
        if stmt.or_replace:
            self.database.catalog.drop_table(stmt.name, if_exists=True)
        self.database.catalog.create_table(
            RowTable(stmt.name, columns), stmt.or_replace
        )
        return Result()

    def _execute_insert(self, stmt: ast.InsertStatement) -> Result:
        table = self.database.catalog.get_table(stmt.table)
        if stmt.query is not None:
            plan = self._plan_select(stmt.query)
            source_rows = self._run_plan(plan).rows
        else:
            source_rows = []
            context = BinderContext(
                self.database.catalog, self.database.functions,
                self.database.types,
            )
            binder = Binder(context)
            for value_row in stmt.values or []:
                row = []
                for expr in value_row:
                    bound = binder.bind_expr(expr)
                    value = fold_constant(bound)
                    if value is _NOT_CONSTANT:
                        raise BinderError(
                            "INSERT VALUES must be constant expressions"
                        )
                    row.append(value)
                source_rows.append(tuple(row))
        if stmt.columns is not None:
            positions = [table.column_index(c) for c in stmt.columns]
        else:
            positions = list(range(table.num_columns))
        full_rows = []
        for row in source_rows:
            if len(row) != len(positions):
                raise ExecutionError(
                    f"INSERT expected {len(positions)} values, got {len(row)}"
                )
            full = [None] * table.num_columns
            for pos, value in zip(positions, row):
                full[pos] = self._coerce_for_storage(
                    value, table.column_types[pos]
                )
            full_rows.append(tuple(full))
        table.append_rows(full_rows)
        return Result(["Count"], [], [(len(full_rows),)])

    def _coerce_for_storage(self, value: Any, ltype: LogicalType) -> Any:
        if value is None:
            return None
        if isinstance(value, str) and (ltype.is_user or
                                       ltype.physical == "int64"):
            cast = self.database.functions.find_cast(
                self.database.types.lookup("VARCHAR"), ltype
            )
            if cast is not None:
                return cast.apply(value)
        if ltype.physical == "float64" and isinstance(value, int):
            return float(value)
        return value

    def _bind_over_table(self, table: RowTable, expr: ast.Expr):
        context = BinderContext(
            self.database.catalog, self.database.functions,
            self.database.types,
        )
        binder = Binder(context)
        for name, ltype in zip(table.column_names, table.column_types):
            binder.scope.add(table.name, name, ltype)
        return binder.bind_expr(expr), binder

    def _execute_update(self, stmt: ast.UpdateStatement) -> Result:
        table = self.database.catalog.get_table(stmt.table)
        bound_assignments = []
        for column, expr in stmt.assignments:
            bound, binder = self._bind_over_table(table, expr)
            target_type = table.column_types[table.column_index(column)]
            if bound.ltype != target_type:
                bound = binder.bind_cast(bound, target_type.name)
            bound_assignments.append((table.column_index(column), bound))
        where_bound = None
        if stmt.where is not None:
            where_bound, _ = self._bind_over_table(table, stmt.where)
        ctx = RowContext()
        updated = 0
        for rid, row in list(table.scan()):
            if where_bound is not None and not eval_row(where_bound, row, ctx):
                continue
            new_row = list(row)
            for col_idx, bound in bound_assignments:
                new_row[col_idx] = eval_row(bound, row, ctx)
            table.update_row(rid, tuple(new_row))
            updated += 1
        if updated:
            table.rebuild_indexes()
        return Result(["Count"], [], [(updated,)])

    def _execute_delete(self, stmt: ast.DeleteStatement) -> Result:
        table = self.database.catalog.get_table(stmt.table)
        where_bound = None
        if stmt.where is not None:
            where_bound, _ = self._bind_over_table(table, stmt.where)
        ctx = RowContext()
        to_delete = [
            rid
            for rid, row in table.scan()
            if where_bound is None or eval_row(where_bound, row, ctx)
        ]
        deleted = table.delete_rows(to_delete)
        return Result(["Count"], [], [(deleted,)])
