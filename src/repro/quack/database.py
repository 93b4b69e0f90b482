"""Database and connection objects: the embedded, in-process entry point.

Usage mirrors DuckDB's Python API::

    from repro import quack
    db = quack.Database()
    con = db.connect()
    con.execute("CREATE TABLE t(a INTEGER, b VARCHAR)")
    con.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    rows = con.execute("SELECT a, b FROM t ORDER BY a").fetchall()

Extensions (e.g. :mod:`repro.core`, the MobilityDuck reproduction) load
into a :class:`Database` and register their types, functions, casts, and
index types.

:class:`BaseDatabase` and :class:`BaseConnection` are the engine-neutral
layer both engines share — registries, statement lifecycle, query log,
EXPLAIN ANALYZE, settings, DDL and ``INSERT … VALUES`` binding.  The
row-store baseline (:mod:`repro.pgsim`) subclasses them and supplies
only its storage and execution, the same way :class:`Connection` does
for quack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..analysis.config import verification_enabled
from ..observability import (
    QueryLog,
    QueryRecord,
    QueryStatistics,
    TraceCollector,
    activate,
    collection_enabled,
    current_stats,
    maybe_span,
)
from ..observability.trace import chrome_trace, write_trace
from . import storage
from .binder import _NOT_CONSTANT, Binder, BinderContext, fold_constant
from .builtins import register_builtins
from .catalog import Catalog, IndexTypeRegistry, Table
from .errors import BinderError, CatalogError, ExecutionError, QuackError
from .executor import ExecutionContext, evaluate, execute_plan
from .functions import FunctionRegistry
from .optimizer import join_tables, optimize
from .plan import BoundExpr, LogicalMaterializedCTE, LogicalOperator
from .profiler import PlanProfiler
from .sql import ast, parse_sql
from .stats import analyze_table, needs_analyze
from .types import LogicalType, TypeRegistry
from .vector import (
    STANDARD_VECTOR_SIZE,
    DataChunk,
    Vector,
    boolean_selection,
    concat_chunks,
)

_SELECTS = (ast.SelectStatement, ast.CompoundSelect)


@dataclass
class Result:
    """A materialized query result."""

    column_names: list[str] = field(default_factory=list)
    column_types: list[LogicalType] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    plan_text: str | None = None
    #: the QueryStatistics of the execution that produced this result
    query_stats: QueryStatistics | None = None

    def stats(self) -> QueryStatistics | None:
        """Observability snapshot: phase timings, counters, gauges."""
        return self.query_stats

    def trace(self) -> dict | None:
        """The execution timeline as a Chrome trace-event JSON object
        (load in Perfetto / ``chrome://tracing``); None when collection
        was disabled for the query."""
        if self.query_stats is None:
            return None
        return chrome_trace(self.query_stats)

    def fetchall(self) -> list[tuple]:
        return list(self.rows)

    def fetchone(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """First column of the first row (raises when empty)."""
        if not self.rows:
            raise ExecutionError("result is empty")
        return self.rows[0][0]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def columns(self) -> dict:
        """Column-oriented dict of the result (DataFrame-shaped seam)."""
        from .io import result_to_columns

        return result_to_columns(self)

    def show(self, max_rows: int = 20) -> None:
        """Pretty-print the result as an aligned table."""
        from .io import format_table

        print(format_table(self, max_rows=max_rows))


@dataclass
class DatabaseConfig:
    """Engine configuration; extensions register index types here
    (paper §4.1: ``db.config.GetIndexTypes().RegisterIndexType(...)``)."""

    index_types: IndexTypeRegistry = field(default_factory=IndexTypeRegistry)


class BaseDatabase:
    """What both engines' databases share: type and function registries
    (builtins registered), the engine's catalog, and extension loading."""

    def __init__(self, catalog):
        self.types = TypeRegistry()
        self.functions = FunctionRegistry()
        self.catalog = catalog
        self.config = DatabaseConfig()
        self.loaded_extensions: list[str] = []
        register_builtins(self.functions)

    def load_extension(self, extension) -> None:
        """Load an extension: an object (or module) with a ``load(db)``."""
        extension.load(self)
        name = getattr(extension, "EXTENSION_NAME", None) or getattr(
            extension, "__name__", type(extension).__name__
        )
        self.loaded_extensions.append(name)


class Database(BaseDatabase):
    """An in-process analytical database instance."""

    def __init__(self):
        super().__init__(Catalog())
        #: on-disk file bound by ``ATTACH``; ``CHECKPOINT`` without an
        #: explicit path writes here
        self.attached_path: str | None = None

    def connect(self) -> "Connection":
        """Open a connection; statements execute serially on the
        calling thread."""
        return Connection(self)

    def save(self, path: str) -> int:
        """Persist all tables (and index definitions) to one file in the
        columnar segment format; returns the table count."""
        return storage.write_database(self, path)

    def load(self, path: str) -> int:
        """Load tables saved with :meth:`save`; indexes are rebuilt.  The
        extensions the tables' types need must already be loaded."""
        return storage.read_database(self, path)


def _analyze(table: Any) -> None:
    """Gather ``table``'s optimizer statistics in one column-wise pass,
    attached or not (an attached column keeps the segments the pass
    decodes for the scans that follow); the change count starts again
    from zero."""
    table.stats = analyze_table(table)
    table.changes_since_analyze = 0


def _parse_on_off(value: ast.Expr, setting: str) -> bool:
    """Interpret a ``SET <setting> = on|off`` value straight from the AST
    (``on``/``off`` parse as bare column references, which constant
    folding cannot resolve)."""
    if isinstance(value, ast.Literal) and isinstance(value.value, bool):
        return value.value
    word = None
    if isinstance(value, ast.ColumnRef) and len(value.parts) == 1:
        word = value.parts[0].lower()
    elif isinstance(value, ast.Literal) and isinstance(value.value, str):
        word = value.value.lower()
    if word in ("on", "true", "1"):
        return True
    if word in ("off", "false", "0"):
        return False
    raise QuackError(f"SET {setting} expects on or off")


class BaseConnection:
    """The statement lifecycle both engines share.

    Parsing, binding, optimizing, statistics, the query log, traces,
    EXPLAIN [ANALYZE], ANALYZE, SET/SHOW, DDL and ``INSERT … VALUES``
    live here.  A subclass supplies its engine: how a plan runs into
    result rows (:meth:`_run_plan`) and under a profiler
    (:meth:`_run_profiled`), ``INSERT … SELECT`` into its table type
    (:meth:`_insert_select`, which CTAS also uses), and ``UPDATE`` /
    ``DELETE`` over bound expressions (:meth:`_update`, :meth:`_delete`).
    """

    #: engine tag on query-log records, traces and JSON plans
    ENGINE = ""
    #: the engine's table type, built by ``CREATE TABLE``
    TABLE: type
    #: the settings ``SET`` / ``SHOW`` accept on this engine
    SETTINGS: tuple[str, ...] = ("cbo", "log_min_duration")

    def __init__(self, database: BaseDatabase):
        self.database = database
        #: statistics of the most recent :meth:`execute` call
        self.last_query_stats: QueryStatistics | None = None
        #: rolling log of completed queries (``SET log_min_duration``
        #: tunes the slow-query threshold)
        self._query_log = QueryLog()
        #: cost-based optimizer kill switch (``SET cbo = on|off``); off
        #: plans every join in FROM order and gathers no statistics
        self._cbo = True
        #: zone-map scan skipping kill switch (``SET zone_maps = on|off``,
        #: quack only: heap tables have no zone maps)
        self._zone_maps = True

    # -- public API ----------------------------------------------------------------

    def execute(self, sql: str) -> Result:
        """Execute a SQL script; returns the result of the last statement."""
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
        """Record the finished query in the connection's query log."""
        if stats.trace is not None and len(stats.trace):
            stats.bump("trace.events", len(stats.trace))
        record = QueryRecord(
            sql=sql,
            seconds=seconds,
            rows=len(result.rows) if error is None else None,
            engine=self.ENGINE,
            error=error,
            phases=stats.phase_seconds(),
            counters=dict(stats.counters),
        )
        if self._query_log.record(record):
            stats.bump("querylog.records")
        else:
            stats.bump("querylog.suppressed")

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
                           meta={"engine": self.ENGINE})

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
        """Profile one SELECT statement with full instrumentation.

        ``format="text"`` returns the annotated plan with a phase
        header; ``format="json"`` returns the structured tree (phases,
        counters, gauges, recursive per-operator stats, the ``engine``
        tag); ``format="trace"`` returns the execution timeline as Chrome
        trace-event JSON (phase and operator events — load in
        Perfetto)."""
        if format not in ("text", "json", "trace"):
            raise QuackError(f"unsupported explain format {format!r}")
        stats = QueryStatistics()
        stats.trace = TraceCollector()
        self.last_query_stats = stats
        with activate(stats):
            with maybe_span(stats, "parse"):
                statements = parse_sql(sql)
            if len(statements) != 1:
                raise BinderError(
                    "explain_analyze expects exactly one statement"
                )
            stmt = statements[0]
            if isinstance(stmt, ast.ExplainStatement):
                stmt = stmt.inner
            plan, profiler = self._profile_select(stmt, stats)
        if len(stats.trace):
            stats.bump("trace.events", len(stats.trace))
        if format == "json":
            return {**profiler.to_dict(plan, stats), "engine": self.ENGINE}
        if format == "trace":
            return profiler.trace_dict(plan, stats, engine=self.ENGINE)
        return profiler.render(plan, stats)

    def _profile_select(self, stmt: ast.Statement,
                        stats: QueryStatistics | None
                        ) -> tuple[LogicalOperator, PlanProfiler]:
        """Plan one SELECT and run it with every operator instrumented —
        EXPLAIN ANALYZE in both its forms."""
        plan = self._plan_explained(stmt)
        profiler = PlanProfiler()
        with maybe_span(stats, "execute"):
            rows = self._run_profiled(plan, stats, profiler)
        if stats is not None:
            stats.bump("executor.rows_returned", rows)
        return plan, profiler

    def _plan_explained(self, stmt: ast.Statement) -> LogicalOperator:
        if not isinstance(stmt, _SELECTS):
            raise BinderError("EXPLAIN supports SELECT statements")
        return self._plan_select(stmt)

    # -- engine hooks -----------------------------------------------------------------

    def _run_plan(self, plan: LogicalOperator) -> Result:
        """Execute a planned SELECT into a materialized :class:`Result`."""
        raise NotImplementedError

    def _run_profiled(self, plan: LogicalOperator,
                      stats: QueryStatistics | None,
                      profiler: PlanProfiler) -> int:
        """Execute a plan under ``profiler``, discarding the rows;
        returns how many there were."""
        raise NotImplementedError

    def _insert_select(self, table: Any, positions: list[int],
                       plan: LogicalOperator) -> int:
        """Append a plan's rows to ``table`` (source column i lands in
        ``positions[i]``, the rest NULL); returns the row count."""
        raise NotImplementedError

    def _update(self, table: Any, assignments: list[tuple[int, BoundExpr]],
                where: BoundExpr | None) -> int:
        """Set each ``(column index, expression)`` on the rows ``where``
        selects (all rows when None); returns the updated count."""
        raise NotImplementedError

    def _delete(self, table: Any, where: BoundExpr | None) -> int:
        """Delete the rows ``where`` selects; returns the deleted count."""
        raise NotImplementedError

    # -- statement dispatch -----------------------------------------------------------

    def _execute_statement(self, stmt: ast.Statement) -> Result:
        if isinstance(stmt, _SELECTS):
            return self._run_plan(self._plan_select(stmt))
        if isinstance(stmt, ast.ExplainStatement):
            return self._execute_explain(stmt)
        if isinstance(stmt, ast.CreateTableStatement):
            return self._execute_create_table(stmt)
        if isinstance(stmt, ast.CreateIndexStatement):
            return self._execute_create_index(stmt)
        if isinstance(stmt, ast.InsertStatement):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.UpdateStatement):
            return self._execute_update(stmt)
        if isinstance(stmt, ast.DeleteStatement):
            return self._execute_delete(stmt)
        if isinstance(stmt, ast.DropStatement):
            return self._execute_drop(stmt)
        if isinstance(stmt, ast.AnalyzeStatement):
            return self._execute_analyze(stmt)
        if isinstance(stmt, ast.SetStatement):
            return self._execute_set(stmt)
        if isinstance(stmt, ast.ShowStatement):
            return self._execute_show(stmt)
        raise QuackError(f"unsupported statement {type(stmt).__name__}")

    def _execute_explain(self, stmt: ast.ExplainStatement) -> Result:
        if stmt.analyze:
            stats = current_stats()
            plan, profiler = self._profile_select(stmt.inner, stats)
            text = profiler.render(plan, stats)
        else:
            text = self._plan_explained(stmt.inner).explain()
        return Result(["explain"], [], [(text,)], plan_text=text)

    def _execute_analyze(self, stmt: ast.AnalyzeStatement) -> Result:
        """Collect optimizer statistics for one table (or all tables).

        Attached tables whose zone maps cover every segment skip the
        full scan: the footer statistics are exact for row counts and
        min/max and close enough for histograms, so ANALYZE on a
        freshly attached database touches no segment payloads."""
        catalog = self.database.catalog
        if stmt.table is not None:
            tables = [catalog.get_table(stmt.table)]
        else:
            tables = list(catalog.tables.values())
        rows = []
        for table in tables:
            _analyze(table)
            rows.append(
                (table.name, table.stats.row_count,
                 len(table.stats.columns))
            )
        return Result(["table", "rows", "columns"], [], rows)

    # -- settings ---------------------------------------------------------------------

    def _setting(self, stmt: ast.SetStatement | ast.ShowStatement) -> str:
        name = stmt.name.lower()
        if name not in self.SETTINGS:
            raise QuackError(f"unknown setting {stmt.name!r}")
        return name

    def _execute_set(self, stmt: ast.SetStatement) -> Result:
        name = self._setting(stmt)
        if name == "cbo":
            self._cbo = _parse_on_off(stmt.value, "cbo")
        elif name == "zone_maps":
            self._zone_maps = _parse_on_off(stmt.value, "zone_maps")
        elif name == "log_min_duration":
            # milliseconds; 0 logs everything, negative disables logging
            self._query_log.min_duration_ms = self._setting_number(
                stmt, "milliseconds"
            )
        elif name == "memory_limit":
            # megabytes; zero or negative disables the spill watermark
            limit = self._setting_number(stmt, "megabytes")
            self._memory_limit_mb = limit if limit > 0 else None
        else:
            # DuckDB's spelling, kept for scripts that pin it: one legal
            # value
            value = fold_constant(self._binder().bind_expr(stmt.value))
            if isinstance(value, bool) or value != 1:
                raise QuackError(
                    "quack executes serially: threads must be 1"
                )
        return Result()

    def _setting_number(self, stmt: ast.SetStatement, unit: str) -> float:
        value = fold_constant(self._binder().bind_expr(stmt.value))
        if (
            value is _NOT_CONSTANT
            or isinstance(value, bool)
            or not isinstance(value, (int, float))
        ):
            raise QuackError(f"SET {stmt.name.lower()} expects a number "
                             f"of {unit}")
        return float(value)

    def _execute_show(self, stmt: ast.ShowStatement) -> Result:
        name = self._setting(stmt)
        if name == "cbo":
            value: Any = "on" if self._cbo else "off"
        elif name == "zone_maps":
            value = "on" if self._zone_maps else "off"
        elif name == "log_min_duration":
            value = self._query_log.min_duration_ms
        elif name == "memory_limit":
            value = self._memory_limit_mb
        else:
            value = 1
        return Result([name], [], [(value,)])

    # -- SELECT -------------------------------------------------------------------------

    def _binder(self) -> Binder:
        return Binder(BinderContext(
            self.database.catalog,
            self.database.functions,
            self.database.types,
        ))

    def _plan_select(self, stmt: ast.SelectStatement) -> LogicalOperator:
        stats = current_stats()
        binder = self._binder()
        with maybe_span(stats, "bind"):
            plan = binder.bind_select(stmt)
            if binder.context.all_ctes:
                plan = LogicalMaterializedCTE(binder.context.all_ctes, plan)
        if verification_enabled():
            from ..analysis.verifier import verify_planned

            verify_planned(plan, self.database.functions, stats, "bind")
        if self._cbo:
            self._refresh_statistics(plan, stats)
        with maybe_span(stats, "optimize"):
            plan = optimize(plan, stats, cbo=self._cbo,
                            zone_maps=self._zone_maps)
        if verification_enabled():
            from ..analysis.verifier import verify_planned

            verify_planned(plan, self.database.functions, stats, "optimize")
        return plan

    def _refresh_statistics(self, plan: LogicalOperator,
                            stats: QueryStatistics | None) -> None:
        """What autovacuum does for PostgreSQL and append-time statistics
        for DuckDB: every table a join of ``plan`` reads gets statistics
        before the optimizer orders the join, unless it has fresh ones."""
        stale = [t for t in join_tables(plan) if needs_analyze(t)]
        if not stale:
            return
        with maybe_span(stats, "analyze"):
            for table in stale:
                _analyze(table)
        if stats is not None:
            stats.bump("optimizer.cbo.tables_analyzed", len(stale))

    # -- DDL ---------------------------------------------------------------------------

    def _execute_create_table(
        self, stmt: ast.CreateTableStatement
    ) -> Result:
        catalog = self.database.catalog
        if stmt.if_not_exists and catalog.has_table(stmt.name):
            return Result()
        if stmt.as_query is not None:
            plan = self._plan_select(stmt.as_query)
            table = self.TABLE(
                stmt.name,
                list(zip(plan.output_names(), plan.output_types())),
            )
            self._insert_select(table, list(range(table.num_columns)), plan)
            catalog.create_table(table, stmt.or_replace)
            return Result()
        columns = [
            (col.name, self.database.types.lookup(col.type_name))
            for col in stmt.columns
        ]
        if stmt.or_replace:
            catalog.drop_table(stmt.name, if_exists=True)
        catalog.create_table(self.TABLE(stmt.name, columns), stmt.or_replace)
        return Result()

    def _execute_create_index(
        self, stmt: ast.CreateIndexStatement
    ) -> Result:
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

    def _execute_drop(self, stmt: ast.DropStatement) -> Result:
        if stmt.kind == "table":
            self.database.catalog.drop_table(stmt.name, stmt.if_exists)
            return Result()
        index = self.database.catalog.indexes.pop(stmt.name.lower(), None)
        if index is None and not stmt.if_exists:
            raise CatalogError(f"index {stmt.name!r} does not exist")
        if index is not None:
            index.table.indexes.remove(index)
        return Result()

    # -- DML ---------------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.InsertStatement) -> Result:
        table = self.database.catalog.get_table(stmt.table)
        if stmt.columns is not None:
            positions = [table.column_index(c) for c in stmt.columns]
        else:
            positions = list(range(table.num_columns))
        if stmt.query is not None:
            count = self._insert_select(table, positions,
                                        self._plan_select(stmt.query))
            return Result(["Count"], [], [(count,)])
        binder = self._binder()
        rows = []
        for value_row in stmt.values or []:
            row = []
            for expr in value_row:
                value = fold_constant(binder.bind_expr(expr))
                if value is _NOT_CONSTANT:
                    raise BinderError(
                        "INSERT VALUES must be constant expressions"
                    )
                row.append(value)
            rows.append(row)
        count = self._insert_rows(table, positions, rows)
        return Result(["Count"], [], [(count,)])

    def _insert_rows(self, table: Any, positions: list[int],
                     rows: list) -> int:
        """Map value rows into the table's column order, applying the
        storage coercions, and append them; returns the row count."""
        full_rows = []
        for row in rows:
            if len(row) != len(positions):
                raise ExecutionError(
                    f"INSERT expected {len(positions)} values, "
                    f"got {len(row)}"
                )
            full = [None] * table.num_columns
            for pos, value in zip(positions, row):
                full[pos] = self._coerce_for_storage(
                    value, table.column_types[pos]
                )
            full_rows.append(tuple(full))
        table.append_rows(full_rows)
        return len(full_rows)

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

    def _bind_over_table(self, table: Any, expr: ast.Expr):
        binder = self._binder()
        for name, ltype in zip(table.column_names, table.column_types):
            binder.scope.add(table.name, name, ltype)
        return binder.bind_expr(expr), binder

    def _bind_where(self, table: Any,
                    where: ast.Expr | None) -> BoundExpr | None:
        if where is None:
            return None
        return self._bind_over_table(table, where)[0]

    def _execute_update(self, stmt: ast.UpdateStatement) -> Result:
        table = self.database.catalog.get_table(stmt.table)
        assignments = []
        for column, expr in stmt.assignments:
            bound, binder = self._bind_over_table(table, expr)
            index = table.column_index(column)
            target_type = table.column_types[index]
            if bound.ltype != target_type:
                bound = binder.bind_cast(bound, target_type.name)
            assignments.append((index, bound))
        updated = self._update(table, assignments,
                               self._bind_where(table, stmt.where))
        table.changes_since_analyze += updated
        return Result(["Count"], [], [(updated,)])

    def _execute_delete(self, stmt: ast.DeleteStatement) -> Result:
        table = self.database.catalog.get_table(stmt.table)
        deleted = self._delete(table, self._bind_where(table, stmt.where))
        return Result(["Count"], [], [(deleted,)])


class Connection(BaseConnection):
    """A connection to a quack database: chunk-at-a-time execution over
    columnar tables, ``ATTACH``/``CHECKPOINT`` of an on-disk file, and
    the ``zone_maps``/``memory_limit``/``threads`` settings."""

    ENGINE = "quack"
    TABLE = Table
    SETTINGS = (*BaseConnection.SETTINGS, "zone_maps", "memory_limit",
                "threads")

    def __init__(self, database: Database):
        super().__init__(database)
        #: spill watermark in MB (``SET memory_limit = <MB>``); None
        #: leaves the blocking sinks fully in-memory
        self._memory_limit_mb: float | None = None

    def close(self) -> None:
        """DuckDB API parity: a connection holds no resources."""

    def _execute_statement(self, stmt: ast.Statement) -> Result:
        if isinstance(stmt, ast.AttachStatement):
            return self._execute_attach(stmt)
        if isinstance(stmt, ast.CheckpointStatement):
            return self._execute_checkpoint(stmt)
        return super()._execute_statement(stmt)

    def _execute_attach(self, stmt: ast.AttachStatement) -> Result:
        """Bind an on-disk database file to this Database.

        An existing file loads immediately — tables come back over
        memory-mapped :class:`~.storage.StorageColumn`\\ s whose segments
        decompress lazily on first scan.  A new path just arms
        ``CHECKPOINT`` to write there."""
        import os

        self.database.attached_path = stmt.path
        if os.path.exists(stmt.path):
            tables = storage.read_database(self.database, stmt.path)
        else:
            tables = 0
        return Result(["tables"], [], [(tables,)])

    def _execute_checkpoint(self, stmt: ast.CheckpointStatement) -> Result:
        """Write every table to the attached (or explicitly named) file
        in the columnar segment format and make it the attached path;
        the catalog's tables stay as they are."""
        path = stmt.path or self.database.attached_path
        if path is None:
            raise QuackError(
                "CHECKPOINT needs an attached database: run "
                "ATTACH '<path>' first or name a path"
            )
        tables = storage.write_database(self.database, path)
        self.database.attached_path = path
        return Result(["tables"], [], [(tables,)])

    # -- execution ---------------------------------------------------------------------

    def _execution_context(self, stats,
                           profiler=None) -> ExecutionContext:
        """The root context of one statement, carrying the connection's
        spill watermark."""
        limit = None
        if self._memory_limit_mb is not None:
            limit = int(self._memory_limit_mb * 1024 * 1024)
        return ExecutionContext(stats=stats, profiler=profiler,
                                memory_limit_bytes=limit)

    def _run_plan(self, plan: LogicalOperator) -> Result:
        stats = current_stats()
        ctx = self._execution_context(stats)
        rows: list[tuple] = []
        chunks = 0
        with maybe_span(stats, "execute"):
            for chunk in execute_plan(plan, ctx):
                chunks += 1
                rows.extend(chunk.rows())
        if stats is not None:
            stats.bump("executor.result_chunks", chunks)
            stats.bump("executor.rows_returned", len(rows))
        return Result(plan.output_names(), plan.output_types(), rows)

    def _run_profiled(self, plan: LogicalOperator,
                      stats: QueryStatistics | None,
                      profiler: PlanProfiler) -> int:
        ctx = self._execution_context(stats, profiler)
        return sum(chunk.count for chunk in execute_plan(plan, ctx))

    def _insert_select(self, table: Table, positions: list[int],
                       plan: LogicalOperator) -> int:
        """INSERT … SELECT, column-wise: a source column of the target
        column's own type is appended as arrays; any other goes through
        the VALUES coercion value by value.  Unlisted columns are NULL."""
        stats = current_stats()
        ctx = self._execution_context(stats)
        with maybe_span(stats, "execute"):
            # Drained before the first append: the target may be a source.
            chunks = [c for c in execute_plan(plan, ctx) if c.count]
        if not chunks:
            return 0
        if len(chunks[0].vectors) != len(positions):
            raise ExecutionError(
                f"INSERT expected {len(positions)} values, "
                f"got {len(chunks[0].vectors)}"
            )
        source = concat_chunks(chunks).vectors
        count = len(source[0])
        columns = [Vector.constant(t, None, count)
                   for t in table.column_types]
        for pos, vector in zip(positions, source):
            target = table.column_types[pos]
            if vector.ltype != target:
                vector = Vector.from_values(target, [
                    self._coerce_for_storage(value, target)
                    for value in vector.to_list()
                ])
            columns[pos] = vector
        full = DataChunk(columns)
        for start in range(0, count, STANDARD_VECTOR_SIZE):
            table.append_chunk(
                full.slice(slice(start, start + STANDARD_VECTOR_SIZE))
            )
        if stats is not None:
            stats.bump("executor.result_chunks", len(chunks))
            stats.bump("executor.rows_returned", count)
        return count

    def _update(self, table: Table, assignments: list[tuple[int, BoundExpr]],
                where: BoundExpr | None) -> int:
        # Compute new full-column value lists.
        total = table.total_rows()
        new_values: dict[int, list] = {
            index: table._columns[index]
            .gather(np.arange(total, dtype=np.int64))
            .to_list()
            for index, _ in assignments
        }
        ctx = ExecutionContext()
        updated = 0
        for chunk, row_ids in table.scan():
            if where is not None:
                mask = boolean_selection(evaluate(where, chunk, ctx))
            else:
                mask = np.ones(chunk.count, dtype=np.bool_)
            if not mask.any():
                continue
            targets = row_ids[mask].tolist()
            for index, bound in assignments:
                values = evaluate(bound, chunk, ctx).slice(mask).to_list()
                column_values = new_values[index]
                for row_id, value in zip(targets, values):
                    column_values[row_id] = value
            updated += int(mask.sum())
        for index, values in new_values.items():
            table.update_column(table.column_names[index], values)
        return updated

    def _delete(self, table: Table, where: BoundExpr | None) -> int:
        ctx = ExecutionContext()
        to_delete: list[int] = []
        for chunk, row_ids in table.scan():
            if where is None:
                to_delete.extend(int(r) for r in row_ids)
                continue
            mask = boolean_selection(evaluate(where, chunk, ctx))
            to_delete.extend(int(row_ids[i]) for i in np.nonzero(mask)[0])
        return table.delete_rows(to_delete)
