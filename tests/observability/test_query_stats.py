"""End-to-end query statistics on both engines.

Every ``execute`` captures a :class:`QueryStatistics` reachable via
``Result.stats()`` / ``Connection.last_query_stats``; these tests assert
the counters the hot subsystems report — index probes, optimizer rule
fires, kernel dispatches, TOAST detoasting — and the phase trace.
"""

import pytest

from repro import core
from repro.observability import (
    QueryStatistics,
    Tracer,
    activate,
    count,
    current_stats,
    gauge_max,
    set_collection_enabled,
    span,
)
from repro.pgsim import RowDatabase
from repro.quack import Database


@pytest.fixture
def con():
    con = Database().connect()
    con.execute("CREATE TABLE t(a INTEGER, b VARCHAR)")
    con.execute(
        "INSERT INTO t SELECT i, 'r' || i FROM "
        "generate_series(1, 1000) AS g(i)"
    )
    return con


@pytest.fixture
def spatial_con():
    con = core.connect()
    con.execute("CREATE TABLE g(box STBOX)")
    con.execute("CREATE INDEX rt ON g USING TRTREE(box)")
    con.execute(
        "INSERT INTO g SELECT ('STBOX X((' || i || ',' || i || '),("
        " ' || (i + 1) || ',' || (i + 1) || '))') "
        "FROM generate_series(1, 100) AS t(i)"
    )
    return con


class TestQuackStats:
    def test_result_carries_stats(self, con):
        result = con.execute("SELECT count(*) FROM t")
        stats = result.stats()
        assert stats is not None
        assert stats is con.last_query_stats
        assert stats.counter("executor.rows_returned") == 1
        assert stats.counter("executor.result_chunks") == 1

    def test_materialization_counters(self, con):
        # The aggregate drains its 1000-row input into whole columns.
        stats = con.execute("SELECT count(*) FROM t").stats()
        assert stats.counter("executor.materializations") == 1
        assert stats.counter("executor.materialized_chunks") >= 1
        assert stats.gauges["executor.peak_materialized_rows"] == 1000
        streamed = con.execute("SELECT a FROM t WHERE a < 10").stats()
        assert streamed.counter("executor.materializations") == 0

    def test_phases_recorded_and_sum_to_total(self, con):
        stats = con.execute("SELECT a FROM t WHERE a < 10").stats()
        phases = stats.phase_seconds()
        for name in ("parse", "bind", "optimize", "execute"):
            assert name in phases, f"missing phase {name}"
            assert phases[name] >= 0.0
        assert stats.total_seconds() == pytest.approx(
            sum(phases.values())
        )

    def test_optimizer_rule_fires(self, con):
        con.execute("CREATE TABLE s(a INTEGER)")
        con.execute("INSERT INTO s VALUES (1), (2)")
        stats = con.execute(
            "SELECT * FROM t, s WHERE t.a = s.a AND t.a < 10"
        ).stats()
        # `t.a < 10` touches one leaf; `t.a = s.a` becomes a hash key.
        assert stats.counter("optimizer.rule.filter_pushdown") >= 1
        assert stats.counter("optimizer.rule.hash_join_extraction") >= 1

    def test_kernel_counters(self, con):
        stats = con.execute(
            "SELECT b, sum(a) FROM t GROUP BY b ORDER BY b"
        ).stats()
        assert stats.counter("quack.kernel_ops") >= 1

    def test_trtree_probe_counters(self, spatial_con):
        stats = spatial_con.execute(
            "SELECT count(*) FROM g WHERE box && "
            "stbox('STBOX X((10,10),(20,20))')"
        ).stats()
        assert stats.counter("index.trtree.probes") == 1
        assert stats.counter("index.trtree.candidates") >= 1
        assert stats.counter("rtree.searches") == 1
        assert stats.counter("rtree.nodes_visited") >= 1
        assert stats.counter("rtree.leaf_hits") >= 1
        assert stats.counter("executor.index_scans") == 1

    def test_collection_kill_switch(self, con):
        previous = set_collection_enabled(False)
        try:
            result = con.execute("SELECT count(*) FROM t")
            assert result.stats() is None
            assert result.scalar() == 1000
        finally:
            set_collection_enabled(previous)

    def test_stats_to_dict_is_json_shaped(self, con):
        import json

        snapshot = con.execute("SELECT a FROM t LIMIT 3").stats().to_dict()
        round_tripped = json.loads(json.dumps(snapshot))
        assert set(round_tripped) == {
            "phases", "total_seconds", "counters", "gauges", "spans",
        }


class TestPgsimStats:
    @pytest.fixture
    def row_con(self):
        con = core.connect_baseline()
        con.execute("CREATE TABLE r(id INTEGER, box STBOX)")
        con.execute(
            "INSERT INTO r SELECT i, ('STBOX X((' || i || ',' || i ||"
            " '),(' || (i + 1) || ',' || (i + 1) || '))') "
            "FROM generate_series(1, 50) AS t(i)"
        )
        return con

    def test_result_carries_stats(self, row_con):
        result = row_con.execute("SELECT count(*) FROM r")
        stats = result.stats()
        assert stats is not None
        assert stats is row_con.last_query_stats
        assert stats.counter("executor.rows_returned") == 1

    def test_gist_probe_counters(self, row_con):
        row_con.execute("CREATE INDEX gx ON r USING GIST(box)")
        stats = row_con.execute(
            "SELECT count(*) FROM r WHERE box && "
            "stbox('STBOX X((10,10),(20,20))')"
        ).stats()
        assert stats.counter("index.gist.probes") == 1
        assert stats.counter("index.gist.candidates") >= 1
        assert stats.counter("executor.index_scans") == 1
        assert stats.counter("executor.index_candidates") == \
            stats.counter("index.gist.candidates")

    def test_gist_index_join_counters(self, row_con):
        row_con.execute("CREATE INDEX gx ON r USING GIST(box)")
        row_con.execute("CREATE TABLE q(box STBOX)")
        row_con.execute(
            "INSERT INTO q SELECT ('STBOX X((' || i || ',' || i ||"
            " '),(' || (i + 1) || ',' || (i + 1) || '))') "
            "FROM generate_series(1, 5) AS t(i)"
        )
        stats = row_con.execute(
            "SELECT count(*) FROM q, r WHERE q.box && r.box"
        ).stats()
        # One GiST probe per outer row.
        assert stats.counter("executor.join_index_probes") == 5
        assert stats.counter("index.gist.probes") == 5

    def test_btree_probe_counters(self, row_con):
        row_con.execute("CREATE INDEX bx ON r USING BTREE(id)")
        stats = row_con.execute(
            "SELECT count(*) FROM r WHERE id = 7"
        ).stats()
        assert stats.counter("index.btree.probes") == 1
        assert stats.counter("index.btree.candidates") == 1

    def test_detoast_counter(self, row_con):
        stats = row_con.execute(
            "SELECT count(*) FROM r WHERE box && "
            "stbox('STBOX X((0,0),(100,100))')"
        ).stats()
        # An STBOX has no flat layout to TOAST: read in place.
        assert stats.counter("pgsim.detoast") == 0

    def test_toast_counters(self):
        con = core.connect_baseline()
        con.execute("CREATE TABLE long_trips(trip TGEOMPOINT)")
        # 400 instants: a flat layout past the 2032-byte threshold
        trip = "[" + ", ".join(
            f"Point({i} {i * i % 13})@2025-01-01 00:{i // 60:02d}:{i % 60:02d}"
            for i in range(400)
        ) + "]"
        stats = con.execute(
            f"INSERT INTO long_trips VALUES ('{trip}'), ('{trip}')"
        ).stats()
        assert stats.counter("pgsim.toast_out_of_line") == 2
        stats = con.execute(
            "SELECT numInstants(trip) FROM long_trips"
        ).stats()
        # one out-of-line fetch per row, each its compressed bytes
        rows = con.database.catalog.get_table("long_trips").rows
        assert stats.counter("pgsim.detoast") == 2
        assert stats.counter("pgsim.detoast_bytes") == sum(
            len(row[0].blob) for row in rows
        )

    def test_phases_recorded(self, row_con):
        stats = row_con.execute("SELECT id FROM r WHERE id < 5").stats()
        phases = stats.phase_seconds()
        for name in ("parse", "bind", "optimize", "execute"):
            assert name in phases
        assert stats.total_seconds() == pytest.approx(
            sum(phases.values())
        )


class TestPerQueryOnly:
    """Statistics describe one statement: nothing accumulates across
    statements on either engine."""

    @pytest.fixture(params=["quack", "pgsim"])
    def engine_con(self, request):
        database = Database() if request.param == "quack" else RowDatabase()
        con = database.connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        return con

    def test_each_statement_gets_fresh_stats(self, engine_con):
        first = engine_con.execute("SELECT a FROM t")
        second = engine_con.execute("SELECT a FROM t WHERE a = 1")
        assert first.stats() is not second.stats()
        assert second.stats() is engine_con.last_query_stats
        assert second.stats().counter("executor.rows_returned") == 1
        # a finished statement's numbers stay its own
        assert first.stats().counter("executor.rows_returned") == 3

    def test_log_record_counters_are_the_statements_own(self, engine_con):
        engine_con.execute("SELECT a FROM t")
        engine_con.execute("SELECT a FROM t WHERE a = 1")
        first, second = engine_con.query_log()[-2:]
        assert first.counters["executor.rows_returned"] == 3
        assert second.counters["executor.rows_returned"] == 1
        assert second.rows == 1


class TestPublicSurface:
    def test_span_and_tracer_live_in_stats(self):
        from repro import observability
        from repro.observability import stats

        assert observability.Span is stats.Span
        assert observability.Tracer is stats.Tracer
        assert isinstance(QueryStatistics().tracer, Tracer)

    def test_no_process_wide_tier(self):
        import importlib

        from repro import observability

        for name in ("REGISTRY", "MetricsRegistry", "MetricsServer",
                     "serve_metrics", "expose_text"):
            assert not hasattr(observability, name), name
        assert not hasattr(core, "serve_metrics")
        for module in ("metrics", "tracer"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.observability.{module}")


class TestTracer:
    def test_nesting_and_phase_rollup(self):
        tracer = Tracer()
        with tracer.span("execute"):
            with tracer.span("scan"):
                pass
            with tracer.span("scan"):
                pass
        with tracer.span("execute"):
            pass
        assert len(tracer.spans) == 2
        assert [c.name for c in tracer.spans[0].children] == ["scan", "scan"]
        phases = tracer.phase_seconds()
        # Nested spans roll up into their parent, not the phase total.
        assert set(phases) == {"execute"}
        assert tracer.total_seconds() == pytest.approx(sum(phases.values()))

    def test_span_to_dict(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        node = tracer.to_list()[0]
        assert node["name"] == "a"
        assert node["seconds"] >= node["children"][0]["seconds"]


class TestAmbientContext:
    def test_count_is_noop_without_active_stats(self):
        assert current_stats() is None
        count("anything")  # must not raise
        gauge_max("anything", 1.0)

    def test_activate_scopes_stats(self):
        stats = QueryStatistics()
        with activate(stats):
            count("rtree.searches", 3)
            assert current_stats() is stats
        assert current_stats() is None
        assert stats.counter("rtree.searches") == 3

    def test_span_is_noop_without_active_stats(self):
        assert current_stats() is None
        with span("parse"):
            assert current_stats() is None

    def test_recorders_are_noops_with_collection_disabled(self, con):
        last = con.last_query_stats
        before = (dict(last.counters), dict(last.gauges),
                  len(last.tracer.spans))
        previous = set_collection_enabled(False)
        try:
            result = con.execute("SELECT count(*) FROM t WHERE a > 10")
            assert current_stats() is None
            count("executor.rows_returned")
            gauge_max("executor.peak_materialized_rows", 1.0)
            with span("execute"):
                pass
        finally:
            set_collection_enabled(previous)
        assert result.fetchall() == [(990,)]
        assert result.stats() is None
        assert con.last_query_stats is last
        assert (dict(last.counters), dict(last.gauges),
                len(last.tracer.spans)) == before

    def test_span_records_on_active_stats(self):
        stats = QueryStatistics()
        with activate(stats):
            with span("execute"):
                with span("scan"):
                    pass
        (top,) = stats.tracer.spans
        assert top.name == "execute"
        assert [c.name for c in top.children] == ["scan"]

    def test_phase_sum_equals_total(self):
        stats = QueryStatistics()
        with activate(stats):
            for phase in ("parse", "bind", "optimize", "execute"):
                with span(phase):
                    pass
        phases = stats.phase_seconds()
        assert set(phases) == {"parse", "bind", "optimize", "execute"}
        assert stats.total_seconds() == pytest.approx(sum(phases.values()))


class TestDmlRecordsLikeSelect:
    """UPDATE and DELETE evaluate their WHERE through the same executor
    as SELECT, so they record the same executor counters for it."""

    WHERE = ("b = 3 AND (a + 1 > 5 OR a < 0) AND "
             "p && tstzspan '[2020-01-01, 2020-01-03]'")

    @staticmethod
    def make():
        con = core.connect()
        con.execute("CREATE TABLE t(a BIGINT, b BIGINT, p TGEOMPOINT)")
        con.execute(
            "INSERT INTO t SELECT i, i % 7, CAST('[Point(' || i || ' 0)"
            "@2020-01-0' || (1 + i % 5) || ', Point(' || i || ' 1)"
            "@2020-01-0' || (2 + i % 5) || ']' AS TGEOMPOINT) "
            "FROM generate_series(1, 6000) AS g(i)"
        )
        return con

    def skipped_by_select(self) -> int:
        stats = self.make().execute(
            f"SELECT count(*) FROM t WHERE {self.WHERE}"
        ).stats()
        skipped = stats.counter("executor.conjunct_rows_skipped")
        assert skipped > 0
        return skipped

    def test_update(self):
        con = self.make()
        stats = con.execute(f"UPDATE t SET b = 0 WHERE {self.WHERE}").stats()
        assert stats.counter("executor.conjunct_rows_skipped") == \
            self.skipped_by_select()
        assert con.execute("SELECT count(*) FROM t WHERE b = 0").scalar() \
            == 857 + 514

    def test_delete(self):
        con = self.make()
        stats = con.execute(f"DELETE FROM t WHERE {self.WHERE}").stats()
        assert stats.counter("executor.conjunct_rows_skipped") == \
            self.skipped_by_select()
        assert con.execute("SELECT count(*) FROM t").scalar() == 6000 - 514
