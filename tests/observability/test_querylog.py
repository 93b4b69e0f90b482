"""The per-connection rolling query log and its slow-query threshold."""

import json

import pytest

from repro.observability import QueryLog, QueryRecord, set_collection_enabled
from repro.observability.querylog import TOP_COUNTERS
from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.database import QuackError


def rec(sql="SELECT 1", seconds=0.01, **kwargs):
    return QueryRecord(sql=sql, seconds=seconds, **kwargs)


class TestQueryLogUnit:
    def test_fifo_eviction_at_capacity(self):
        log = QueryLog(capacity=3, min_duration_ms=0)
        for i in range(5):
            assert log.record(rec(sql=f"SELECT {i}"))
        assert len(log) == 3
        assert [r.sql for r in log.records()] == [
            "SELECT 2", "SELECT 3", "SELECT 4",
        ]
        # lifetime totals survive eviction
        assert log.recorded == 5
        assert log.suppressed == 0

    def test_threshold_suppresses_fast_queries(self):
        log = QueryLog(min_duration_ms=100)
        assert not log.record(rec(seconds=0.05))
        assert log.record(rec(seconds=0.25))
        assert len(log) == 1
        assert log.suppressed == 1

    def test_errors_always_logged(self):
        log = QueryLog(min_duration_ms=-1)  # negative disables logging
        assert not log.record(rec(seconds=10.0))
        assert log.record(rec(seconds=0.001, error="BinderError: nope"))
        assert [r.error for r in log.records()] == ["BinderError: nope"]

    def test_counters_truncated_to_top(self):
        counters = {f"c{i:02d}": i for i in range(20)}
        log = QueryLog()
        log.record(rec(counters=counters))
        kept = log.records()[0].counters
        assert len(kept) == TOP_COUNTERS
        assert min(kept.values()) > max(
            v for k, v in counters.items() if k not in kept
        )

    def test_records_n_returns_most_recent(self):
        log = QueryLog()
        for i in range(4):
            log.record(rec(sql=f"SELECT {i}"))
        assert [r.sql for r in log.records(2)] == ["SELECT 2", "SELECT 3"]

    def test_render_text_and_json(self):
        log = QueryLog()
        log.record(rec(sql="SELECT  *   FROM t", seconds=0.002, rows=7,
                       engine="quack", phases={"execute": 0.001}))
        log.record(rec(sql="SELECT broken", seconds=0.001,
                       engine="quack", error="BinderError: no column"))
        text = log.format_text()
        lines = text.splitlines()
        assert len(lines) == 2
        assert "SELECT * FROM t" in lines[0]  # whitespace collapsed
        assert "7 rows" in lines[0]
        assert "execute=1.00ms" in lines[0]
        assert "ERROR: BinderError: no column" in lines[1]
        parsed = json.loads(log.to_json())
        assert [p["sql"] for p in parsed] == [
            "SELECT  *   FROM t", "SELECT broken",
        ]
        assert parsed[1]["error"] == "BinderError: no column"
        assert "error" not in parsed[0]


@pytest.fixture(params=["quack", "pgsim"])
def con(request):
    database = Database() if request.param == "quack" else RowDatabase()
    con = database.connect()
    con.execute("CREATE TABLE t(a INTEGER)")
    con.execute("INSERT INTO t VALUES (1), (2), (3)")
    return con


class TestIntegration:
    """The one connection layer's query log, on both engines."""

    def test_queries_land_in_log(self, con):
        con.execute("SELECT * FROM t")
        records = con.query_log()
        assert [r.sql for r in records][-1] == "SELECT * FROM t"
        last = records[-1]
        assert last.engine == con.ENGINE
        assert last.rows == 3
        assert last.error is None
        assert set(last.phases) >= {"parse", "bind", "execute"}
        assert last.counters  # headline counters retained

    def test_set_log_min_duration_filters(self, con):
        con.execute("SET log_min_duration = 10000")
        before = len(con.query_log())
        con.execute("SELECT * FROM t")  # far under 10s: suppressed
        assert len(con.query_log()) == before
        assert con.last_query_stats.counter("querylog.suppressed") == 1
        assert con.last_query_stats.counter("querylog.records") == 0
        con.execute("SET log_min_duration = 0")
        con.execute("SELECT * FROM t")
        assert len(con.query_log()) > before
        assert con.last_query_stats.counter("querylog.records") == 1

    def test_failed_query_logged_despite_threshold(self, con):
        con.execute("SET log_min_duration = 10000")
        with pytest.raises(Exception):
            con.execute("SELECT nope FROM t")
        last = con.query_log()[-1]
        assert last.sql == "SELECT nope FROM t"
        assert last.error is not None and "nope" in last.error
        assert last.rows is None

    def test_show_log_min_duration(self, con):
        con.execute("SET log_min_duration = 42")
        assert con.execute("SHOW log_min_duration").scalar() == 42.0

    def test_log_min_duration_must_be_a_number(self, con):
        with pytest.raises(QuackError, match="number of milliseconds"):
            con.execute("SET log_min_duration = 'soon'")

    def test_text_and_json_formats(self, con):
        con.execute("SELECT * FROM t")
        assert "SELECT * FROM t" in con.query_log(format="text")
        parsed = json.loads(con.query_log(n=1, format="json"))
        assert len(parsed) == 1 and parsed[0]["engine"] == con.ENGINE
        with pytest.raises(QuackError, match="format"):
            con.query_log(format="xml")

    def test_collection_off_logs_nothing(self, con):
        before = len(con.query_log())
        previous = set_collection_enabled(False)
        try:
            con.execute("SELECT * FROM t")
        finally:
            set_collection_enabled(previous)
        assert len(con.query_log()) == before


class TestPgsimSettings:
    @pytest.mark.parametrize("setting", [
        "threads = 4", "memory_limit = 64",
    ], ids=["threads", "memory_limit"])
    def test_quack_settings_rejected(self, setting):
        # the row engine has no threads or spill watermark
        con = RowDatabase().connect()
        with pytest.raises(QuackError, match="unknown setting"):
            con.execute(f"SET {setting}")
