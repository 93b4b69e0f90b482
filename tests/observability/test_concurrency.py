"""Regression tests for the profiler concurrency hazard.

The original profiler monkey-patched the module-level ``execute_plan`` /
``execute_rows`` functions; two overlapping profiled executions corrupted
each other's statistics (and un-patching mid-flight broke the survivor).
Profiling is now carried by the execution context, so these tests drive
interleaved generators in one thread and parallel queries across threads
and assert complete isolation.
"""

import sys
import threading

import pytest

from repro.observability import QueryStatistics, set_collection_enabled
from repro.pgsim import RowDatabase
from repro.pgsim.executor import execute_rows
from repro.quack import Database
from repro.quack.executor import ExecutionContext, execute_plan
from repro.quack.profiler import PlanProfiler
from repro.quack.sql import parse_sql


def _quack_plan(con, sql):
    (stmt,) = parse_sql(sql)
    return con._plan(stmt)


class TestInterleavedGenerators:
    def test_two_profiled_plans_interleaved(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute(
            "INSERT INTO t SELECT i FROM generate_series(1, 5000) AS g(i)"
        )
        plan_a = _quack_plan(con, "SELECT a FROM t WHERE a <= 2000")
        plan_b = _quack_plan(con, "SELECT a FROM t WHERE a <= 100")

        prof_a, prof_b = PlanProfiler(), PlanProfiler()
        gen_a = execute_plan(plan_a, ExecutionContext(profiler=prof_a))
        gen_b = execute_plan(plan_b, ExecutionContext(profiler=prof_b))

        rows_a = rows_b = 0
        done_a = done_b = False
        # Alternate pulls: both instrumented generators are live at once.
        while not (done_a and done_b):
            if not done_a:
                try:
                    rows_a += next(gen_a).count
                except StopIteration:
                    done_a = True
            if not done_b:
                try:
                    rows_b += next(gen_b).count
                except StopIteration:
                    done_b = True

        assert rows_a == 2000
        assert rows_b == 100
        assert prof_a.stats_for(plan_a).rows == 2000
        assert prof_b.stats_for(plan_b).rows == 100
        # No cross-talk: each profiler only saw its own plan's operators.
        assert id(plan_b) not in prof_a.stats
        assert id(plan_a) not in prof_b.stats

    def test_row_engine_interleaved(self):
        db = RowDatabase()
        con = db.connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute(
            "INSERT INTO t SELECT i FROM generate_series(1, 500) AS g(i)"
        )
        (stmt_a,) = parse_sql("SELECT a FROM t WHERE a <= 200")
        (stmt_b,) = parse_sql("SELECT a FROM t WHERE a <= 10")
        plan_a = con._plan(stmt_a)
        plan_b = con._plan(stmt_b)

        prof_a, prof_b = PlanProfiler(), PlanProfiler()
        gen_a = execute_rows(plan_a, ExecutionContext(profiler=prof_a))
        gen_b = execute_rows(plan_b, ExecutionContext(profiler=prof_b))
        rows_a = list(gen_a)  # fully drain A after starting both
        rows_b = list(gen_b)

        assert len(rows_a) == 200
        assert len(rows_b) == 10
        assert prof_a.stats_for(plan_a).rows == 200
        assert prof_b.stats_for(plan_b).rows == 10

    def test_nested_profiled_execution(self):
        """A profiled run inside another profiled run keeps both sane."""
        con = Database().connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute(
            "INSERT INTO t SELECT i FROM generate_series(1, 100) AS g(i)"
        )
        plan_outer = _quack_plan(con, "SELECT a FROM t")
        plan_inner = _quack_plan(con, "SELECT a FROM t WHERE a < 5")
        prof_outer, prof_inner = PlanProfiler(), PlanProfiler()

        outer_rows = 0
        for chunk in execute_plan(
            plan_outer, ExecutionContext(profiler=prof_outer)
        ):
            outer_rows += chunk.count
            inner_rows = sum(
                c.count
                for c in execute_plan(
                    plan_inner, ExecutionContext(profiler=prof_inner)
                )
            )
            assert inner_rows == 4
        assert outer_rows == 100
        assert prof_outer.stats_for(plan_outer).rows == 100


class TestThreads:
    def test_parallel_profiled_queries_are_isolated(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute(
            "INSERT INTO t SELECT i FROM generate_series(1, 1000) AS g(i)"
        )
        results = {}
        errors = []

        def worker(limit):
            try:
                for _ in range(10):
                    stats = con.execute(
                        f"SELECT a FROM t WHERE a <= {limit}"
                    ).stats()
                    assert stats.counter("executor.rows_returned") == limit
                results[limit] = True
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in (100, 250, 500, 750)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 4


class TestThreadCounters:
    def test_two_threads_get_separate_counters(self):
        """Counters recorded deep below the connection (conjunct
        narrowing, materialization, kernel dispatch) land on the query
        that ran them, never on another thread's: four workers, two per
        query, with a short switch interval so statements interleave."""
        sql = {
            100: "SELECT a % 5, count(*) FROM t WHERE a % 3 = 0 AND "
                 "(a > 100 OR a < 0) GROUP BY a % 5 ORDER BY 1",
            900: "SELECT DISTINCT a % 11 FROM t WHERE a % 2 = 1 AND "
                 "a > 900 ORDER BY 1",
        }

        def connect():
            con = Database().connect()
            con.execute("CREATE TABLE t(a INTEGER)")
            con.execute(
                "INSERT INTO t SELECT i FROM generate_series(1, 20000) "
                "AS g(i)"
            )
            return con

        alone = {
            key: dict(connect().execute(text).stats().counters)
            for key, text in sql.items()
        }
        assert alone[100] != alone[900]
        keys = [100, 900, 100, 900]
        cons = [connect() for _ in keys]
        barrier = threading.Barrier(len(keys))
        seen: list[list[dict]] = [[] for _ in keys]
        errors = []

        def worker(slot):
            try:
                barrier.wait(timeout=30)
                for _ in range(10):
                    stats = cons[slot].execute(sql[keys[slot]]).stats()
                    seen[slot].append(dict(stats.counters))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(len(keys))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for slot, key in enumerate(keys):
            assert seen[slot] == [alone[key]] * 10


class TestDifferential:
    @pytest.mark.parametrize("make", [
        lambda: Database().connect(),
        lambda: RowDatabase().connect(),
    ], ids=["quack", "pgsim"])
    def test_profiled_rows_equal_unprofiled(self, make):
        sql = (
            "SELECT a % 7 AS k, count(*) AS n FROM t "
            "GROUP BY a % 7 ORDER BY k"
        )
        con = make()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute(
            "INSERT INTO t SELECT i FROM generate_series(1, 999) AS g(i)"
        )
        profiled = con.execute(sql).rows
        con.explain_analyze(sql)  # instrumented run in between
        previous = set_collection_enabled(False)
        try:
            unprofiled = con.execute(sql).rows
        finally:
            set_collection_enabled(previous)
        assert profiled == unprofiled

    def test_stats_objects_are_per_query(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        first = con.execute("SELECT * FROM t").stats()
        second = con.execute("SELECT * FROM t WHERE a = 1").stats()
        assert first is not second
        assert first.counter("executor.rows_returned") == 3
        assert second.counter("executor.rows_returned") == 1
