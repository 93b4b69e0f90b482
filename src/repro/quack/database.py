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
EXPLAIN ANALYZE, settings, DDL, ``INSERT … VALUES``, and UPDATE and
DELETE as plans.  The
row-store baseline (:mod:`repro.pgsim`) subclasses them and supplies
only its storage and execution, the same way :class:`Connection` does
for quack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..analysis.config import verification_enabled
from ..observability import (
    QueryLog,
    QueryRecord,
    QueryStatistics,
    TraceCollector,
    activate,
    collection_enabled,
    current_stats,
    span,
)
from ..observability import count as _count
from ..observability.trace import chrome_trace, write_trace
from . import storage
from .binder import _NOT_CONSTANT, Binder, BinderContext, fold_constant
from .builtins import register_builtins
from .catalog import Catalog, IndexTypeRegistry, Table
from .errors import BinderError, CatalogError, ExecutionError, QuackError
from .executor import ExecutionContext, execute_plan
from .functions import FunctionRegistry
from .optimizer import join_tables, optimize
from .plan import (
    BoundColumnRef,
    LogicalMaterializedCTE,
    LogicalOperator,
    LogicalProject,
)
from .profiler import PlanProfiler
from .sql import ast, parse_sql
from .stats import analyze_table, needs_analyze
from .types import LogicalType, TypeRegistry
from .vector import (
    STANDARD_VECTOR_SIZE,
    DataChunk,
    Vector,
    concat_chunks,
)

_SELECTS = (ast.SelectStatement, ast.CompoundSelect)
_DML = (ast.UpdateStatement, ast.DeleteStatement)


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


def _check_width(positions: list[int], values: list) -> None:
    """An INSERT row or source must give one value per target column."""
    if len(values) != len(positions):
        raise ExecutionError(
            f"INSERT expected {len(positions)} values, got {len(values)}"
        )


class BaseConnection:
    """The statement lifecycle both engines share.

    Parsing, binding, optimizing, statistics, the query log, traces,
    EXPLAIN [ANALYZE], ANALYZE, SET/SHOW, DDL, ``INSERT … VALUES``,
    ``UPDATE`` and ``DELETE`` live here.  A subclass supplies its engine:
    how a plan runs into result rows (:meth:`_run_plan`) and under a
    profiler (:meth:`_run_profiled`), and ``INSERT … SELECT`` into its
    table type (:meth:`_insert_select`, which CTAS also uses).  Its table
    type applies an UPDATE's or DELETE's rows (``update_rows``,
    ``delete_rows``).
    """

    #: engine tag on query-log records, traces and JSON plans
    ENGINE = ""
    #: the engine's table type, built by ``CREATE TABLE``
    TABLE: type
    #: the settings ``SET`` / ``SHOW`` accept on this engine
    SETTINGS: tuple[str, ...] = ("log_min_duration",)

    def __init__(self, database: BaseDatabase):
        self.database = database
        #: statistics of the most recent :meth:`execute` call
        self.last_query_stats: QueryStatistics | None = None
        #: rolling log of completed queries (``SET log_min_duration``
        #: tunes the slow-query threshold)
        self._query_log = QueryLog()

    # -- public API ----------------------------------------------------------------

    def execute(self, sql: str) -> Result:
        """Execute a SQL script; returns the result of the last statement."""
        if not collection_enabled():
            return self._execute_script(sql)
        stats = QueryStatistics()
        stats.trace = TraceCollector()
        self.last_query_stats = stats
        start = time.perf_counter()
        error: str | None = None
        result = Result()
        try:
            with activate(stats):
                result = self._execute_script(sql)
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

    def _execute_script(self, sql: str) -> Result:
        with span("parse"):
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
            with span("parse"):
                statements = parse_sql(sql)
            if len(statements) != 1:
                raise BinderError(
                    "explain_analyze expects exactly one statement"
                )
            stmt = statements[0]
            if isinstance(stmt, ast.ExplainStatement):
                stmt = stmt.inner
            plan, profiler = self._profile_select(stmt)
        if len(stats.trace):
            stats.bump("trace.events", len(stats.trace))
        if format == "json":
            return {**profiler.to_dict(plan, stats), "engine": self.ENGINE}
        if format == "trace":
            return profiler.trace_dict(plan, stats, engine=self.ENGINE)
        return profiler.render(plan, stats)

    def _profile_select(self, stmt: ast.Statement
                        ) -> tuple[LogicalOperator, PlanProfiler]:
        """Plan one SELECT and run it with every operator instrumented —
        EXPLAIN ANALYZE in both its forms."""
        if not isinstance(stmt, _SELECTS):
            raise BinderError("EXPLAIN ANALYZE supports SELECT statements")
        plan = self._plan(stmt)
        profiler = PlanProfiler()
        with span("execute"):
            rows = self._run_profiled(plan, profiler)
        _count("executor.rows_returned", rows)
        return plan, profiler

    # -- engine hooks -----------------------------------------------------------------

    def _run_plan(self, plan: LogicalOperator) -> Result:
        """Execute a plan to its end into a materialized :class:`Result`."""
        raise NotImplementedError

    def _run_profiled(self, plan: LogicalOperator,
                      profiler: PlanProfiler) -> int:
        """Execute a plan under ``profiler``, discarding the rows;
        returns how many there were."""
        raise NotImplementedError

    def _insert_select(self, table: Any, positions: list[int],
                       plan: LogicalOperator) -> int:
        """Append a plan's rows to ``table`` (source column i lands in
        ``positions[i]``, the rest NULL); returns the row count."""
        raise NotImplementedError

    # -- statement dispatch -----------------------------------------------------------

    def _execute_statement(self, stmt: ast.Statement) -> Result:
        if isinstance(stmt, _SELECTS):
            return self._run_plan(self._plan(stmt))
        if isinstance(stmt, ast.ExplainStatement):
            return self._execute_explain(stmt)
        if isinstance(stmt, ast.CreateTableStatement):
            return self._execute_create_table(stmt)
        if isinstance(stmt, ast.CreateIndexStatement):
            return self._execute_create_index(stmt)
        if isinstance(stmt, ast.InsertStatement):
            return self._execute_insert(stmt)
        if isinstance(stmt, _DML):
            return self._execute_dml(stmt)
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
            plan, profiler = self._profile_select(stmt.inner)
            text = profiler.render(plan, current_stats())
        elif isinstance(stmt.inner, (*_SELECTS, *_DML)):
            text = self._plan(stmt.inner).explain()
        else:
            raise BinderError(
                "EXPLAIN supports SELECT, UPDATE and DELETE statements"
            )
        return Result(["explain"], [], [(text,)], plan_text=text)

    def _execute_analyze(self, stmt: ast.AnalyzeStatement) -> Result:
        """Collect optimizer statistics for one table (or all tables).

        Every table, attached or in memory, is read in full:
        ``stats.analyze_table`` scans every live row (an attached
        table decodes each segment it has not decoded yet) and replaces
        ``table.stats``; the zone maps are not consulted."""
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
        if name == "log_min_duration":
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
        if name == "log_min_duration":
            value: Any = self._query_log.min_duration_ms
        elif name == "memory_limit":
            value = self._memory_limit_mb
        else:
            value = 1
        return Result([name], [], [(value,)])

    # -- planning -----------------------------------------------------------------------

    def _binder(self) -> Binder:
        return Binder(BinderContext(
            self.database.catalog,
            self.database.functions,
            self.database.types,
        ))

    def _plan(self, stmt: ast.Statement) -> LogicalOperator:
        """The optimized plan of a SELECT, or the read plan of an UPDATE
        or DELETE (:meth:`Binder.bind_dml`): both take the same binder,
        verification, statistics refresh and optimizer."""
        binder = self._binder()
        with span("bind"):
            if isinstance(stmt, _SELECTS):
                plan = binder.bind_select(stmt)
            else:
                plan = binder.bind_dml(stmt)
            if binder.context.all_ctes:
                plan = LogicalMaterializedCTE(binder.context.all_ctes, plan)
        if verification_enabled():
            from ..analysis.verifier import verify_planned

            verify_planned(plan, self.database.functions, "bind")
        self._refresh_statistics(plan)
        with span("optimize"):
            plan = optimize(plan)
        if verification_enabled():
            from ..analysis.verifier import verify_planned

            verify_planned(plan, self.database.functions, "optimize")
        return plan

    def _refresh_statistics(self, plan: LogicalOperator) -> None:
        """What autovacuum does for PostgreSQL and append-time statistics
        for DuckDB: every table a join of ``plan`` reads gets statistics
        before the optimizer orders the join, unless it has fresh ones."""
        stale = [t for t in join_tables(plan) if needs_analyze(t)]
        if not stale:
            return
        with span("analyze"):
            for table in stale:
                _analyze(table)
        _count("optimizer.cbo.tables_analyzed", len(stale))

    # -- DDL ---------------------------------------------------------------------------

    def _execute_create_table(
        self, stmt: ast.CreateTableStatement
    ) -> Result:
        catalog = self.database.catalog
        if stmt.if_not_exists and catalog.has_table(stmt.name):
            return Result()
        if stmt.as_query is not None:
            plan = self._plan(stmt.as_query)
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
        index = index_type.create_instance(stmt.name, table, stmt.column)
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
        """INSERT VALUES and INSERT … SELECT convert every value whose
        type differs from its column's with the cast ``CAST`` and
        ``UPDATE … SET`` bind, before anything is appended: a value that
        does not convert fails the statement and leaves the table as it
        was."""
        table = self.database.catalog.get_table(stmt.table)
        if stmt.columns is not None:
            positions = [table.column_index(c) for c in stmt.columns]
        else:
            positions = list(range(table.num_columns))
        targets = [table.column_types[pos] for pos in positions]
        binder = self._binder()
        if stmt.query is not None:
            plan = self._plan(stmt.query)
            _check_width(positions, plan.output_types())
            exprs = [
                binder.bind_cast(BoundColumnRef(i, ltype, name), target.name)
                for i, (ltype, name, target) in enumerate(zip(
                    plan.output_types(), plan.output_names(), targets
                ))
            ]
            if any(not isinstance(e, BoundColumnRef) for e in exprs):
                plan = LogicalProject(exprs, plan.output_names(), plan)
            count = self._insert_select(table, positions, plan)
            return Result(["Count"], [], [(count,)])
        rows = []
        for value_row in stmt.values or []:
            _check_width(positions, value_row)
            row = []
            for expr, target in zip(value_row, targets):
                value = fold_constant(
                    binder.bind_cast(binder.bind_expr(expr), target.name)
                )
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
        """Map value rows, already of the columns' types, into the
        table's column order and append them; returns the row count."""
        full_rows = []
        for row in rows:
            full = [None] * table.num_columns
            for pos, value in zip(positions, row):
                full[pos] = value
            full_rows.append(tuple(full))
        table.append_rows(full_rows)
        return len(full_rows)

    def _execute_dml(
        self, stmt: ast.UpdateStatement | ast.DeleteStatement
    ) -> Result:
        """UPDATE and DELETE run their read plan to its end before the
        first write, so no statement reads what it wrote (Halloween-safe);
        the table then applies the row ids and, for an UPDATE, the new
        values."""
        table = self.database.catalog.get_table(stmt.table)
        rows = self._run_plan(self._plan(stmt)).rows
        if isinstance(stmt, ast.DeleteStatement):
            count = table.delete_rows([row[0] for row in rows])
            return Result(["Count"], [], [(count,)])
        if rows:
            row_ids, *values = zip(*rows)
            positions = [table.column_index(c) for c, _ in stmt.assignments]
            table.update_rows(row_ids, positions, values)
        table.changes_since_analyze += len(rows)
        return Result(["Count"], [], [(len(rows),)])


class Connection(BaseConnection):
    """A connection to a quack database: chunk-at-a-time execution over
    columnar tables, ``ATTACH``/``CHECKPOINT`` of an on-disk file, and
    the ``memory_limit``/``threads`` settings."""

    ENGINE = "quack"
    TABLE = Table
    SETTINGS = (*BaseConnection.SETTINGS, "memory_limit", "threads")

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

        An existing file loads immediately — tables come back as columns
        of stored segments in the memory-mapped file, each decompressed
        on first touch.  A new path just arms ``CHECKPOINT`` to write
        there."""
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

    def _execution_context(self, profiler=None) -> ExecutionContext:
        """The root context of one statement, carrying the connection's
        spill watermark."""
        limit = None
        if self._memory_limit_mb is not None:
            limit = int(self._memory_limit_mb * 1024 * 1024)
        return ExecutionContext(profiler=profiler, memory_limit_bytes=limit)

    def _run_plan(self, plan: LogicalOperator) -> Result:
        ctx = self._execution_context()
        rows: list[tuple] = []
        chunks = 0
        with span("execute"):
            for chunk in execute_plan(plan, ctx):
                chunks += 1
                rows.extend(chunk.rows())
        _count("executor.result_chunks", chunks)
        _count("executor.rows_returned", len(rows))
        return Result(plan.output_names(), plan.output_types(), rows)

    def _run_profiled(self, plan: LogicalOperator,
                      profiler: PlanProfiler) -> int:
        ctx = self._execution_context(profiler)
        return sum(chunk.count for chunk in execute_plan(plan, ctx))

    def _insert_select(self, table: Table, positions: list[int],
                       plan: LogicalOperator) -> int:
        """INSERT … SELECT, column-wise: each source column, of its
        target column's type, is appended as arrays.  Unlisted columns
        are NULL."""
        ctx = self._execution_context()
        with span("execute"):
            # Drained before the first append: the target may be a source.
            chunks = [c for c in execute_plan(plan, ctx) if c.count]
        if not chunks:
            return 0
        source = concat_chunks(chunks).vectors
        count = len(source[0])
        columns = [Vector.constant(t, None, count)
                   for t in table.column_types]
        for pos, vector in zip(positions, source):
            columns[pos] = vector
        full = DataChunk(columns)
        for start in range(0, count, STANDARD_VECTOR_SIZE):
            table.append_chunk(
                full.slice(slice(start, start + STANDARD_VECTOR_SIZE))
            )
        _count("executor.result_chunks", len(chunks))
        _count("executor.rows_returned", count)
        return count
