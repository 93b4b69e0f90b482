"""Structured EXPLAIN ANALYZE: JSON schema and text parity across engines."""

import json

import pytest

from repro import core
from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.errors import BinderError, QuackError


def _check_plan_node(node):
    assert isinstance(node["operator"], str)
    assert node["rows"] >= 0
    assert node["seconds"] >= 0.0
    assert node["invocations"] >= 1
    for child in node["children"]:
        _check_plan_node(child)


class TestExplainAnalyze:
    """One profiling path shared by both engines."""

    @pytest.fixture(params=["quack", "pgsim"])
    def con(self, request):
        database = Database() if request.param == "quack" else RowDatabase()
        con = database.connect()
        con.execute("CREATE TABLE t(a INTEGER)")
        con.execute(
            "INSERT INTO t SELECT i FROM generate_series(1, 100) AS g(i)"
        )
        return con

    def test_json_schema_round_trip(self, con):
        out = con.explain_analyze(
            "SELECT a FROM t WHERE a < 10 ORDER BY a", format="json"
        )
        round_tripped = json.loads(json.dumps(out))
        assert round_tripped["engine"] == con.ENGINE
        for key in ("plan", "phases", "total_seconds", "counters"):
            assert key in round_tripped
        _check_plan_node(round_tripped["plan"])
        assert round_tripped["counters"]["executor.rows_returned"] == 9

    def test_text_format_has_header_lines(self, con):
        text = con.explain_analyze("SELECT count(*) FROM t")
        assert text.startswith("PHASES ")
        assert "total=" in text
        assert "COUNTERS " in text
        assert "SEQ_SCAN t  (rows=100" in text

    def test_explain_prefix_is_unwrapped(self, con):
        out = con.explain_analyze("EXPLAIN SELECT a FROM t", format="json")
        assert out["plan"]["rows"] == 100

    def test_bad_format_rejected(self, con):
        with pytest.raises(QuackError):
            con.explain_analyze("SELECT 1", format="yaml")

    def test_only_select_is_explained(self, con):
        with pytest.raises(BinderError, match="SELECT"):
            con.explain_analyze("DELETE FROM t")
        with pytest.raises(BinderError, match="SELECT"):
            con.execute("EXPLAIN ANALYZE DELETE FROM t")

    def test_statement_form_matches_method(self, con):
        via_stmt = con.execute(
            "EXPLAIN ANALYZE SELECT a FROM t LIMIT 3"
        ).plan_text
        via_method = con.explain_analyze("SELECT a FROM t LIMIT 3")
        assert "LIMIT 3  (rows=3" in via_stmt
        assert "LIMIT 3  (rows=3" in via_method
        assert "ms)" in via_stmt

    def test_trace_format_tags_engine(self, con):
        trace = con.explain_analyze("SELECT a FROM t", format="trace")
        assert trace["otherData"]["engine"] == con.ENGINE


class TestPgsimIndexExplain:
    @pytest.fixture
    def con(self):
        con = core.connect_baseline()
        con.execute("CREATE TABLE r(id INTEGER, box STBOX)")
        con.execute(
            "INSERT INTO r SELECT i, ('STBOX X((' || i || ',' || i ||"
            " '),(' || (i + 1) || ',' || (i + 1) || '))') "
            "FROM generate_series(1, 50) AS t(i)"
        )
        con.execute("CREATE INDEX gx ON r USING GIST(box)")
        return con

    def test_index_probes_counted_in_json(self, con):
        out = con.explain_analyze(
            "SELECT count(*) FROM r WHERE box && "
            "stbox('STBOX X((10,10),(20,20))')",
            format="json",
        )
        _check_plan_node(out["plan"])
        assert out["counters"]["index.gist.probes"] == 1

    def test_index_probes_rendered_in_text(self, con):
        # The row engine's EXPLAIN ANALYZE shows the same
        # probes=/candidates= annotations as the columnar engine.
        text = con.explain_analyze(
            "SELECT count(*) FROM r WHERE box && "
            "stbox('STBOX X((10,10),(20,20))')"
        )
        assert "GIST_INDEX_SCAN" in text or "INDEX_SCAN" in text
        assert "probes=1" in text
        assert "candidates=" in text
        assert "PHASES " in text
