"""Column pruning and late materialisation.

The required-columns rule (``repro.quack.prune``) narrows every plan,
quack's and pgsim's alike.  The battery runs pruned plans on quack in
every executor configuration and compares them with ``pgsim``; the rest
pins what the rule keeps, what the verifier blames, what attached scans
decode and what the join loop gathers."""

from collections import Counter

import pytest

from repro.analysis.errors import VerificationError
from repro.pgsim import RowDatabase
from repro.quack import Database, prune
from repro.quack.plan import (
    LogicalFilter,
    LogicalGet,
    LogicalMaterializedCTE,
)
from repro.quack.sql.parser import parse_sql

_SCHEMA = (
    "CREATE TABLE f(id BIGINT, k BIGINT, g BIGINT, x DOUBLE, s VARCHAR)",
    "CREATE TABLE d(k BIGINT, cat BIGINT, name VARCHAR)",
)
#: two row groups, so zone maps have something to skip
_F_ROWS = 2500
_D_ROWS = 60


def _load(con):
    for ddl in _SCHEMA:
        con.execute(ddl)
    catalog = con.database.catalog
    catalog.get_table("f").append_rows([
        (i, (i * 7) % 70, i % 10,
         None if i % 97 == 0 else ((i * 37) % 1000) / 4.0,
         None if i % 89 == 0 else f"s{i % 13}")
        for i in range(_F_ROWS)
    ])
    catalog.get_table("d").append_rows([
        (k, k % 8, None if k % 11 == 0 else f"name{k}")
        for k in range(_D_ROWS)
    ])
    return con


_QUERIES = [
    # scans nothing reads a column of keep one
    "SELECT count(*) FROM f",
    "SELECT count(*) FROM f, d",
    "SELECT count(*) FROM f WHERE x > 100",
    "SELECT g, count(*), sum(x), min(x), max(x) FROM f WHERE x < 200"
    " GROUP BY g",
    "SELECT d.cat, avg(f.x), count(*) FROM f, d WHERE f.k = d.k"
    " GROUP BY d.cat",
    # residuals: over a hash join, a nested loop, an expression key
    "SELECT f.id, d.name FROM f, d WHERE f.k = d.k AND f.x > d.cat * 20",
    "SELECT f.id, d.name FROM f, d WHERE f.k < d.k AND d.cat = 3"
    " AND f.g = 1",
    "SELECT f.s, d.k FROM f, d WHERE f.k + 1 = d.k AND f.id < 300",
    # a CTE scanned twice for different columns, one scanned for none,
    # one read through another and one read by a subquery
    "WITH c AS (SELECT id, k, g, x, s FROM f WHERE g < 3)"
    " SELECT a.id, b.s FROM c a, c b WHERE a.k = b.k AND a.x < b.x"
    " AND a.id < 200",
    "WITH c AS (SELECT k, x, s FROM f) SELECT count(*) FROM c",
    "WITH c AS (SELECT k, x FROM f),"
    " e AS (SELECT k, sum(x) AS t FROM c GROUP BY k)"
    " SELECT e.k FROM e WHERE e.t > 100",
    "WITH c AS (SELECT k, cat, name FROM d)"
    " SELECT id FROM f WHERE k IN (SELECT k FROM c WHERE cat > 3)",
    # DISTINCT and set operations compare every column
    "SELECT DISTINCT g, k FROM f",
    "SELECT count(*) FROM (SELECT DISTINCT g, s FROM f) q",
    "SELECT k FROM f WHERE g = 1 UNION SELECT k FROM d",
    "SELECT count(*) FROM (SELECT g, k FROM f UNION ALL"
    " SELECT cat, k FROM d) u",
    "SELECT k FROM f EXCEPT SELECT k FROM d WHERE cat < 4",
    # LEFT joins with residuals
    "SELECT f.id, d.name FROM f LEFT JOIN d ON f.k = d.k AND d.cat > 5",
    "SELECT f.id FROM f LEFT JOIN d ON f.k = d.k AND f.x > d.cat * 30"
    " WHERE f.g = 2",
    # correlated subqueries that reach outer columns
    "SELECT id, (SELECT max(d.cat) FROM d WHERE d.k = f.k) FROM f"
    " WHERE g = 1",
    "SELECT id FROM f WHERE EXISTS"
    " (SELECT 1 FROM d WHERE d.k = f.k AND d.cat > f.g)",
    "SELECT f.id FROM f, d WHERE f.k = d.k AND f.g IN"
    " (SELECT d2.cat FROM d d2 WHERE d2.k = d.k)",
    # sorts and top-N carry what they do not sort by
    "SELECT id, x FROM f ORDER BY x DESC, id LIMIT 7",
    "SELECT s FROM f ORDER BY g, id LIMIT 5 OFFSET 2",
]


def _multiset(con, sql):
    return Counter(map(repr, con.execute(sql).fetchall()))


@pytest.fixture(scope="module")
def reference():
    con = _load(RowDatabase().connect())
    return {sql: _multiset(con, sql) for sql in _QUERIES}


class TestDifferential:
    @pytest.mark.parametrize("config", ["memory", "spill", "attached"])
    def test_pruned_plans_agree_with_pgsim(self, configure_quack, reference,
                                           config):
        con = configure_quack(_load(Database().connect()), config)
        for analyzed in (False, True):
            if analyzed:
                con.execute("ANALYZE")
            for sql in _QUERIES:
                assert _multiset(con, sql) == reference[sql], (
                    f"{config} analyzed={analyzed}: {sql}"
                )

    def test_insert_select_reads_what_it_inserts(self):
        contents = []
        for database in (Database(), RowDatabase()):
            con = _load(database.connect())
            con.execute("CREATE TABLE t(a DOUBLE, b BIGINT)")
            con.execute("INSERT INTO t SELECT f.x, d.cat FROM f, d"
                        " WHERE f.k = d.k AND f.g = 4")
            con.execute("INSERT INTO t (b) SELECT count(*) FROM f")
            contents.append(_multiset(con, "SELECT * FROM t"))
        assert contents[0] == contents[1]
        assert sum(contents[0].values()) == 251


def _plan(con, sql):
    return con._plan(parse_sql(sql)[0])


def _scans(plan):
    out = [plan] if isinstance(plan, LogicalGet) else []
    for child in plan.children():
        out.extend(_scans(child))
    return out


class TestRequiredColumns:
    def test_scan_emits_only_read_columns(self):
        con = _load(Database().connect())
        (scan,) = _scans(_plan(con, "SELECT sum(x) FROM f WHERE g = 2"))
        assert scan.columns == (2, 3)
        assert scan.output_names() == ["g", "x"]

    def test_count_star_keeps_one_native_column(self):
        con = Database().connect()
        con.execute("CREATE TABLE v(s VARCHAR, n BIGINT)")
        con.execute("INSERT INTO v VALUES ('a', 1), ('b', NULL)")
        (scan,) = _scans(_plan(con, "SELECT count(*) FROM v"))
        assert scan.columns == (1,)
        assert con.execute("SELECT count(*) FROM v").fetchall() == [(2,)]

    def test_cte_narrows_to_the_union_of_its_scans(self):
        con = _load(Database().connect())
        plan = _plan(con, _QUERIES[8])
        assert isinstance(plan, LogicalMaterializedCTE)
        (_, _, definition), = plan.ctes
        # a reads id, k, x; b reads k, x, s: g is read by no one
        assert definition.output_names() == ["id", "k", "x", "s"]

    def test_distinct_keeps_every_column(self):
        con = _load(Database().connect())
        (scan,) = _scans(_plan(con, _QUERIES[13]))
        assert scan.output_names() == ["g", "s"]

    def test_root_schema_kept_and_double_optimize_equal(self):
        from repro.quack.binder import Binder, BinderContext
        from repro.quack.optimizer import optimize

        con = _load(Database().connect())
        db = con.database
        stmt = parse_sql(_QUERIES[5])[0]
        bound = Binder(BinderContext(db.catalog, db.functions,
                                     db.types)).bind_select(stmt)
        first = optimize(bound)
        assert first.output_names() == bound.output_names()
        assert optimize(bound).explain() == first.explain()

    def test_pgsim_projects_heap_tuples(self):
        con = _load(RowDatabase().connect())
        (scan,) = _scans(_plan(con, "SELECT s FROM f WHERE id = 5"))
        assert scan.columns == (0, 4)
        assert con.execute("SELECT s FROM f WHERE id = 5").fetchall() == [
            ("s5",)
        ]


class TestCertificate:
    def test_dropping_a_read_column_is_blamed_on_the_rule(
            self, verification, monkeypatch):
        """Seeded corruption: a filter that forgets to ask its child for
        the columns its condition reads lets the scan drop one; the
        certificate must fail, naming the pruning rule."""
        unary = prune._Pruner._unary

        def forgets_condition(self, op, required):
            if not isinstance(op, LogicalFilter):
                return unary(self, op, required)
            child, remap = self.prune(op.child, required)
            return prune._with(op, child=child, condition=prune._remap(
                op.condition, lambda i: remap.get(i, i)
            )), remap

        monkeypatch.setattr(prune._Pruner, "_unary", forgets_condition)
        con = _load(Database().connect())
        with pytest.raises(VerificationError,
                           match=r"column_pruning: FILTER.*#3 x.*SEQ_SCAN f .*dropped"):
            con.execute("SELECT id FROM f WHERE x > 3")

    def test_wrong_rebinding_is_blamed_on_the_rule(
            self, verification, monkeypatch):
        """A filter rebound through a shifted map reads the wrong
        column: the fingerprints disagree."""
        unary = prune._Pruner._unary

        def shifted(self, op, required):
            new, remap = unary(self, op, required)
            if isinstance(op, LogicalFilter) and new is not op:
                new.condition = prune._remap(new.condition,
                                             lambda i: (i + 1) % 2)
            return new, remap

        monkeypatch.setattr(prune._Pruner, "_unary", shifted)
        con = _load(Database().connect())
        with pytest.raises(VerificationError,
                           match="column_pruning.*binding remap"):
            con.execute("SELECT id FROM f WHERE x > 3")

    def test_verified_plans_count_the_rule(self, verification):
        con = _load(Database().connect())
        con.execute("SELECT id FROM f WHERE x > 3")
        stats = con.last_query_stats
        assert stats.counter("optimizer.rule.column_pruning") == 1


class TestDecodedSegments:
    def test_attached_scan_decodes_only_listed_columns(self, tmp_path,
                                                       unverified):
        con = _load(Database().connect())
        path = tmp_path / "f.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        fresh = Database().connect()
        fresh.execute(f"ATTACH '{path}'")
        column = fresh.database.catalog.get_table("f")._columns[0]
        groups = len(column.segments)
        assert groups == 2
        result = fresh.execute("SELECT max(g), sum(x) FROM f")
        assert result.stats().counter("storage.segments_decoded") == 2 * groups
        assert result.fetchall() == con.execute(
            "SELECT max(g), sum(x) FROM f").fetchall()


def _find(node, label):
    if node["operator"].startswith(label):
        return node
    for child in node["children"]:
        found = _find(child, label)
        if found is not None:
            return found
    return None


class TestGatheredCells:
    def test_join_gathers_residual_columns_then_survivors(self, unverified):
        from repro.quack.plan import LogicalJoin

        con = _load(Database().connect())
        sql = ("SELECT f.id, d.name FROM f, d WHERE f.k < d.k AND d.cat = 3"
               " AND f.g = 1")
        plan = _plan(con, sql)
        while not isinstance(plan, LogicalJoin):
            (plan,) = plan.children()
        tree = con.explain_analyze(sql, format="json")["plan"]
        join = _find(tree, "NESTED_LOOP_JOIN")
        left, right = (c["rows"] for c in join["children"])
        expected = (
            left * right * len(plan.residual.columns_used())
            + join["rows"] * len(plan.output_types())
            # the build side's materialization
            + right * len(plan.right.output_types())
        )
        assert len(plan.output_types()) < 8  # f and d have 8 columns
        assert join["metrics"]["gathered_cells"] == expected
        text = con.explain_analyze(sql)
        assert f"gathered_cells={expected}" in text
        assert con.last_query_stats.counter(
            "executor.gathered_cells") >= expected
