"""Execution-timeline tracing: collector, Chrome export, engine wiring.

A query exports valid Chrome trace-event JSON on one lane: every ``B``
has a matching ``E``, children nest inside their parents, and operator
row counts match what the operators produced.
"""

import json
import time

import pytest

from repro import core
from repro.observability import (
    QueryStatistics,
    TraceCollector,
    chrome_trace,
    set_collection_enabled,
)
from repro.quack import Database
from repro.quack.database import QuackError

# ---------------------------------------------------------------------------
# Trace-shape helpers
# ---------------------------------------------------------------------------


def lane_names(trace):
    """Lane display names from the thread_name metadata events."""
    return {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }


def begin_events(trace, category=None):
    return [
        e for e in trace["traceEvents"]
        if e["ph"] == "B" and (category is None or e["cat"] == category)
    ]


def assert_well_formed(trace):
    """Per lane: every B is closed by an E, E never precedes its B, and
    a child opens no earlier than its parent (proper nesting)."""
    assert json.loads(json.dumps(trace)) == trace  # JSON-serializable
    by_tid = {}
    for e in trace["traceEvents"]:
        if e["ph"] in ("B", "E"):
            by_tid.setdefault(e["tid"], []).append(e)
    assert by_tid, "trace has no interval events"
    for tid, events in by_tid.items():
        stack = []
        for e in events:
            assert e["ts"] >= 0.0
            if e["ph"] == "B":
                if stack:
                    assert e["ts"] >= stack[-1], (
                        f"tid {tid}: child opens before its parent"
                    )
                stack.append(e["ts"])
            else:
                assert stack, f"tid {tid}: E without an open B"
                assert e["ts"] >= stack.pop()
        assert not stack, f"tid {tid}: {len(stack)} unclosed B events"


# ---------------------------------------------------------------------------
# Collector + export units
# ---------------------------------------------------------------------------


class TestTraceCollector:
    def test_emit_records_intervals_in_order(self):
        collector = TraceCollector()
        t = time.perf_counter()
        collector.emit("scan", "operator", t, 0.001, rows=10)
        collector.emit("filter", "operator", t + 0.002, 0.001, rows=5)
        assert len(collector) == 2
        assert [(e.name, e.rows) for e in collector.events] == [
            ("scan", 10), ("filter", 5),
        ]

    def test_export_pairs_and_relative_timestamps(self):
        stats = QueryStatistics()
        stats.trace = TraceCollector()
        base = time.perf_counter()
        with stats.tracer.span("execute"):
            pass
        # nested pair on one lane: outer enclosing inner
        stats.trace.emit("outer", "operator", base, 0.010)
        stats.trace.emit("inner", "operator", base + 0.002, 0.003, rows=7)
        trace = chrome_trace(stats, meta={"engine": "unit"})
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"] == {"engine": "unit"}
        assert_well_formed(trace)
        begins = begin_events(trace)
        assert {e["name"] for e in begins} >= {"execute", "outer", "inner"}
        # earliest interval anchors the clock
        assert min(e["ts"] for e in begins) == 0.0
        inner = next(e for e in begins if e["name"] == "inner")
        assert inner["args"]["rows"] == 7
        outer = next(e for e in begins if e["name"] == "outer")
        # inner opens after outer on the query's one flame track
        assert inner["tid"] == outer["tid"]
        assert inner["ts"] > outer["ts"]
        assert lane_names(trace) == {"query"}

    def test_empty_stats_exports_empty_trace(self):
        trace = chrome_trace(QueryStatistics())
        assert trace["traceEvents"] == []


# ---------------------------------------------------------------------------
# Engine integration (quack)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_con():
    con = Database().connect()
    con.execute("CREATE TABLE big(g INTEGER, v INTEGER)")
    con.execute(
        "INSERT INTO big SELECT i % 13, i FROM "
        "generate_series(1, 5000) AS t(i)"
    )
    return con


N_BIG = 5000
AGG_SQL = "SELECT g, sum(v) FROM big GROUP BY g ORDER BY g"


class TestQuackTrace:
    def test_result_trace_has_phases(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        trace = con.execute("SELECT * FROM t").trace()
        assert_well_formed(trace)
        phases = {e["name"] for e in begin_events(trace, "phase")}
        assert {"parse", "bind", "optimize", "execute"} <= phases

    def test_trace_has_one_lane(self, big_con):
        trace = big_con.execute(AGG_SQL).trace()
        assert_well_formed(trace)
        assert lane_names(trace) == {"query"}
        assert {e["tid"] for e in trace["traceEvents"]} == {1}

    def test_operator_rows_match_the_source(self, big_con):
        trace = big_con.explain_analyze(AGG_SQL, format="trace")
        scans = [e for e in begin_events(trace, "operator")
                 if e["name"].startswith("SEQ_SCAN")]
        assert [e["args"]["rows"] for e in scans] == [N_BIG]

    def test_explain_analyze_trace_carries_plan(self, big_con):
        trace = big_con.explain_analyze(AGG_SQL, format="trace")
        assert_well_formed(trace)
        assert trace["otherData"]["engine"] == "quack"
        assert "HASH_GROUP_BY" in trace["otherData"]["plan"]
        # under the profiler, operator lifetimes nest under the phases
        operators = begin_events(trace, "operator")
        assert operators
        assert big_con.last_query_stats.counter("trace.events") == \
            len(operators)

    def test_export_trace_writes_perfetto_loadable_json(
            self, big_con, tmp_path):
        big_con.execute(AGG_SQL)
        path = tmp_path / "q.trace.json"
        returned = big_con.export_trace(str(path))
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == returned
        assert on_disk["otherData"]["engine"] == "quack"
        assert_well_formed(on_disk)

    def test_export_trace_without_query_raises(self):
        con = Database().connect()
        with pytest.raises(QuackError, match="no traced query"):
            con.export_trace("/tmp/never-written.json")

    def test_collection_off_disables_tracing(self, big_con):
        log_before = len(big_con.query_log())
        previous = set_collection_enabled(False)
        try:
            result = big_con.execute(AGG_SQL)
            assert result.trace() is None
            assert result.stats() is None
        finally:
            set_collection_enabled(previous)
        # nothing downstream ran either: no log record
        assert len(big_con.query_log()) == log_before

    def test_collection_off_overhead_pin(self, big_con):
        """With the kill switch off, the tracing/logging layer must not
        slow execution down: best-of-N disabled runtime stays within
        noise of (here: 1.5x, usually well under) the enabled one."""

        def best_of(n=7):
            best = float("inf")
            for _ in range(n):
                start = time.perf_counter()
                big_con.execute(AGG_SQL)
                best = min(best, time.perf_counter() - start)
            return best

        best_of(2)  # warm caches on both paths
        enabled = best_of()
        previous = set_collection_enabled(False)
        try:
            disabled = best_of()
        finally:
            set_collection_enabled(previous)
        assert disabled <= enabled * 1.5, (
            f"collection-off run slower than collection-on: "
            f"{disabled * 1000:.2f}ms vs {enabled * 1000:.2f}ms"
        )


class TestBerlinmodQ4Trace:
    """BerlinMOD Q4 at SF 0.01: the profiled timeline stays well formed
    on one lane."""

    def test_q4_trace_valid_on_one_lane(self):
        from repro.berlinmod.generator import generate
        from repro.berlinmod.queries import get_query
        from repro.berlinmod.runner import prepare_scenario

        con = prepare_scenario("mobilityduck", generate(0.01, seed=4711))
        trace = con.explain_analyze(get_query(4).sql, format="trace")
        assert_well_formed(trace)
        assert trace["otherData"]["engine"] == "quack"
        assert begin_events(trace, "operator")
        assert lane_names(trace) == {"query"}


# ---------------------------------------------------------------------------
# Engine integration (pgsim)
# ---------------------------------------------------------------------------


class TestPgsimTrace:
    @pytest.fixture
    def row_con(self):
        con = core.connect_baseline()
        con.execute("CREATE TABLE r(id INTEGER)")
        con.execute(
            "INSERT INTO r SELECT i FROM generate_series(1, 100) AS t(i)"
        )
        return con

    def test_explain_analyze_trace_single_lane(self, row_con):
        trace = row_con.explain_analyze(
            "SELECT count(*) FROM r WHERE id < 50", format="trace"
        )
        assert_well_formed(trace)
        assert trace["otherData"]["engine"] == "pgsim"
        # the row engine is single-threaded: exactly one lane
        assert len(lane_names(trace)) == 1
        assert begin_events(trace, "operator")

    def test_export_trace(self, row_con, tmp_path):
        row_con.execute("SELECT * FROM r")
        path = tmp_path / "row.trace.json"
        out = row_con.export_trace(str(path))
        assert out["otherData"]["engine"] == "pgsim"
        assert json.loads(path.read_text(encoding="utf-8")) == out
