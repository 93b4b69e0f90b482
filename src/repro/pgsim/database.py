"""The PostgreSQL-like baseline database (the MobilityDB stand-in).

Shares the connection layer of :mod:`repro.quack.database` — SQL front
end, binder, optimizer, statement lifecycle, query log, EXPLAIN ANALYZE,
settings, DDL, UPDATE and DELETE — and supplies only what is row-store specific: heap
tables and tuple-at-a-time execution (see :mod:`.executor`).  GiST and
B-tree index types are built in, mirroring PostgreSQL; without ``CREATE
INDEX`` every predicate is a sequential scan.
"""

from __future__ import annotations

from ..observability import count as _count
from ..observability import span
from ..quack.catalog import Catalog, IndexType
from ..quack.database import BaseConnection, BaseDatabase, Result
from ..quack.plan import LogicalOperator
from ..quack.profiler import ExecutionContext, PlanProfiler
from .executor import execute_rows
from .indexes import BTreeIndex, GistIndex
from .table import RowTable


class RowDatabase(BaseDatabase):
    """An in-process row-store database instance."""

    def __init__(self):
        super().__init__(Catalog())
        self.config.index_types.register(IndexType("GIST", GistIndex))
        self.config.index_types.register(IndexType("BTREE", BTreeIndex))

    def connect(self) -> "RowConnection":
        return RowConnection(self)


class RowConnection(BaseConnection):
    """A connection to a row database: the shared statement lifecycle
    over heap tables and the Volcano executor.  ``ATTACH``,
    ``CHECKPOINT`` and the ``memory_limit``/``threads`` settings are
    quack's and rejected here."""

    ENGINE = "pgsim"
    TABLE = RowTable

    def _run_plan(self, plan: LogicalOperator) -> Result:
        with span("execute"):
            rows = list(execute_rows(plan, ExecutionContext()))
        _count("executor.rows_returned", len(rows))
        return Result(plan.output_names(), plan.output_types(), rows)

    def _run_profiled(self, plan: LogicalOperator,
                      profiler: PlanProfiler) -> int:
        ctx = ExecutionContext(profiler=profiler)
        return sum(1 for _ in execute_rows(plan, ctx))

    def _insert_select(self, table: RowTable, positions: list[int],
                       plan: LogicalOperator) -> int:
        return self._insert_rows(table, positions, self._run_plan(plan).rows)
