"""Cost-based optimizer battery: ANALYZE statistics and the ones a join
gathers itself, their staleness rule, and join reordering.

There is one join planner and no switch to select another: every
multi-table query here is written as a comma join and with explicit
``INNER JOIN … ON`` clauses, which must plan the identical EXPLAIN and return
the pgsim row engine's rows.  A leaf that is no table plans as a
relation of ``stats.DEFAULT_LEAF_ROWS`` rows.  Tests that compare with
the FROM order get it from the ``from_order`` fixture.  The module
forces verification mode on, so every reordered plan also passes the
RewriteVerifier's schema/conjunct checks (the CI job additionally
exports ``REPRO_VERIFICATION=1`` suite-wide).
"""

import re
from collections import Counter

import pytest

from repro import core
from repro.analysis import set_verification_enabled
from repro.meos import STBox


@pytest.fixture(scope="module", autouse=True)
def _verification():
    previous = set_verification_enabled(True)
    yield
    set_verification_enabled(previous)


def _populate(con):
    """A seeded-skew star schema: ``trips`` is large, ``vehicles`` medium,
    ``types`` tiny — and the selective predicate sits on the table the
    binder sees *last*, so the heuristic left-deep order is maximally
    wrong."""
    con.execute(
        "CREATE TABLE trips(trip_id INTEGER, vehicle_id INTEGER,"
        " dist DOUBLE)"
    )
    con.execute(
        "CREATE TABLE vehicles(vehicle_id INTEGER, type_id INTEGER)"
    )
    con.execute("CREATE TABLE types(type_id INTEGER, label VARCHAR)")
    con.execute("CREATE TABLE depots(depot_id INTEGER, type_id INTEGER)")
    catalog = con.database.catalog
    catalog.get_table("trips").append_rows(
        [(i, i % 60, float(i % 97)) for i in range(600)]
    )
    catalog.get_table("vehicles").append_rows(
        [(i, i % 8) for i in range(60)]
    )
    catalog.get_table("types").append_rows(
        [(i, f"T{i}") for i in range(8)]
    )
    catalog.get_table("depots").append_rows(
        [(i, i % 8) for i in range(16)]
    )
    return con


_ENGINES = [core.connect, core.connect_baseline]


@pytest.fixture(scope="module")
def quack_con():
    return _populate(core.connect())


@pytest.fixture(scope="module")
def pgsim_con():
    return _populate(core.connect_baseline())


_QUERIES = [
    # 3-table equi-join chain with a selective tail filter
    "SELECT count(*) FROM trips, vehicles, types"
    " WHERE trips.vehicle_id = vehicles.vehicle_id"
    " AND vehicles.type_id = types.type_id AND types.label = 'T3'",
    # 4-table join with a range predicate
    "SELECT count(*), min(trips.dist) FROM trips, vehicles, types, depots"
    " WHERE trips.vehicle_id = vehicles.vehicle_id"
    " AND vehicles.type_id = types.type_id"
    " AND types.type_id = depots.type_id AND trips.dist < 20",
    # 5-relation query (same table twice) with BETWEEN
    "SELECT count(*) FROM trips t1, trips t2, vehicles, types, depots"
    " WHERE t1.trip_id = t2.trip_id"
    " AND t1.vehicle_id = vehicles.vehicle_id"
    " AND vehicles.type_id = types.type_id"
    " AND types.type_id = depots.type_id"
    " AND t1.dist BETWEEN 10 AND 30",
    # projection keeps binder column order observable after reordering
    "SELECT trips.trip_id, types.label FROM trips, vehicles, types"
    " WHERE trips.vehicle_id = vehicles.vehicle_id"
    " AND vehicles.type_id = types.type_id AND types.label = 'T0'"
    " ORDER BY trips.trip_id LIMIT 7",
]


#: ``_QUERIES`` with every join predicate moved into an ON clause
_EXPLICIT = [
    "SELECT count(*) FROM trips"
    " JOIN vehicles ON trips.vehicle_id = vehicles.vehicle_id"
    " JOIN types ON vehicles.type_id = types.type_id"
    " WHERE types.label = 'T3'",
    "SELECT count(*), min(trips.dist) FROM trips"
    " INNER JOIN vehicles ON trips.vehicle_id = vehicles.vehicle_id"
    " INNER JOIN types ON vehicles.type_id = types.type_id"
    " INNER JOIN depots ON types.type_id = depots.type_id"
    " WHERE trips.dist < 20",
    "SELECT count(*) FROM trips t1 JOIN trips t2 ON t1.trip_id = t2.trip_id"
    " JOIN vehicles ON t1.vehicle_id = vehicles.vehicle_id"
    " JOIN types ON vehicles.type_id = types.type_id"
    " JOIN depots ON types.type_id = depots.type_id"
    " AND t1.dist BETWEEN 10 AND 30",
    "SELECT trips.trip_id, types.label FROM trips"
    " JOIN vehicles ON trips.vehicle_id = vehicles.vehicle_id"
    " JOIN types ON vehicles.type_id = types.type_id"
    " AND types.label = 'T0'"
    " ORDER BY trips.trip_id LIMIT 7",
]


def _multiset(result):
    return Counter(map(repr, result.fetchall()))


class TestDifferential:
    @pytest.mark.parametrize("comma, explicit", zip(_QUERIES, _EXPLICIT))
    def test_comma_and_explicit_joins_agree(self, quack_con, pgsim_con,
                                            comma, explicit):
        """``a JOIN b ON c`` plans exactly like ``a, b WHERE c`` on
        either engine, and both return pgsim's rows."""
        expected = _multiset(pgsim_con.execute(comma))
        for con in (quack_con, pgsim_con):
            plan = con.execute("EXPLAIN " + comma).rows[0][0]
            assert "(est=" in plan
            assert con.execute("EXPLAIN " + explicit).rows[0][0] == plan
            assert _multiset(con.execute(comma)) == expected
            assert _multiset(con.execute(explicit)) == expected

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_explicit_equi_join_hashes(self, connect):
        con = connect()
        con.execute("CREATE TABLE l(k INTEGER, v DOUBLE)")
        con.execute("CREATE TABLE r(k INTEGER, w VARCHAR)")
        con.database.catalog.get_table("l").append_rows(
            [(i % 7, float(i)) for i in range(50)]
        )
        con.database.catalog.get_table("r").append_rows(
            [(i, f"w{i}") for i in range(5)]
        )
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k"
        plan = con.execute("EXPLAIN " + sql).rows[0][0]
        assert "HASH_JOIN" in plan and "NESTED_LOOP_JOIN" not in plan
        assert _tables_analyzed(con) == 2
        assert len(con.execute(sql).fetchall()) == 36

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_on_clause_sees_its_join_alone(self, connect):
        """The ON condition of a join that is not the first FROM item
        reads that join's columns, not those of the items before it."""
        con = connect()
        con.execute("CREATE TABLE x(a INTEGER)")
        con.execute("CREATE TABLE l(k INTEGER, v DOUBLE)")
        con.execute("CREATE TABLE r(k INTEGER, w DOUBLE)")
        con.execute("INSERT INTO x VALUES (100), (200)")
        con.execute("INSERT INTO l VALUES (1, 1.0), (2, 2.0)")
        con.execute("INSERT INTO r VALUES (1, 1.0), (3, 2.0)")
        for join in ("JOIN", "LEFT JOIN"):
            rows = con.execute(
                f"SELECT x.a, l.k, r.k FROM x, l {join} r ON l.k = r.k"
            ).fetchall()
            expected = {(a, 1, 1) for a in (100, 200)}
            if join == "LEFT JOIN":
                expected |= {(a, 2, None) for a in (100, 200)}
            assert sorted(rows, key=repr) == sorted(expected, key=repr)


class TestReordering:
    def test_dp_picks_non_binder_order_on_skew(self, quack_con,
                                               from_order):
        """The selective table is last in binder order; with statistics
        the DP must pull it ahead, changing the plan shape and emitting
        the column-restoring projection."""
        sql = _QUERIES[0]
        quack_con.execute("ANALYZE")
        with from_order():
            written = quack_con.execute("EXPLAIN " + sql).rows[0][0]
        planned = quack_con.execute("EXPLAIN " + sql).rows[0][0]
        assert planned != written
        assert "(est=" in planned
        assert planned.count("PROJECTION") == (
            written.count("PROJECTION") + 1
        )
        stats = quack_con.last_query_stats
        assert stats.counters.get("optimizer.cbo.planned", 0) >= 1
        assert stats.counters.get("optimizer.cbo.dp_plans", 0) >= 1
        assert stats.counters.get("optimizer.cbo.reordered", 0) >= 1

    def test_explain_analyze_shows_est_vs_actual(self, quack_con):
        quack_con.execute("ANALYZE")
        text = quack_con.execute(
            "EXPLAIN ANALYZE " + _QUERIES[0]
        ).rows[0][0]
        assert "est=" in text
        assert "rows=" in text

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_first_join_plans_as_after_analyze(self, connect):
        """Without ANALYZE, the first join gathers the statistics of the
        tables it reads and plans exactly what an explicit ANALYZE
        would give; the next one finds them fresh."""
        sql = _QUERIES[1]
        implicit = _populate(connect())
        plan = implicit.execute("EXPLAIN " + sql).rows[0][0]
        assert "est=" in plan
        assert _tables_analyzed(implicit) == 4
        explicit = _populate(connect())
        explicit.execute("ANALYZE")
        assert explicit.execute("EXPLAIN " + sql).rows[0][0] == plan
        assert _tables_analyzed(explicit) == 0
        implicit.execute(sql)
        assert _tables_analyzed(implicit) == 0

    def test_chain_join_plans_no_cross_product(self, from_order):
        """Two small tables at the ends of a chain share no predicate:
        pairing them first would be a cross product, which the search
        never prices while the join graph is connected."""
        con = core.connect()
        for ddl in ("s1(k INTEGER, tag VARCHAR)", "f(id INTEGER, k1 INTEGER)",
                    "g(id INTEGER, k2 INTEGER)", "s2(k INTEGER, tag VARCHAR)"):
            con.execute(f"CREATE TABLE {ddl}")
        catalog = con.database.catalog
        catalog.get_table("s1").append_rows([(i, f"a{i}") for i in range(4)])
        catalog.get_table("f").append_rows([(i, i % 40) for i in range(400)])
        catalog.get_table("g").append_rows([(i, i % 50) for i in range(400)])
        catalog.get_table("s2").append_rows([(i, f"b{i}") for i in range(4)])
        sql = ("SELECT count(*) FROM s1, f, g, s2 WHERE s1.k = f.k1"
               " AND f.id < g.id AND g.k2 = s2.k")
        explicit = ("SELECT count(*) FROM s1 JOIN f ON s1.k = f.k1"
                    " JOIN g ON f.id < g.id JOIN s2 ON g.k2 = s2.k")
        plan = con.execute("EXPLAIN " + sql).rows[0][0]
        assert con.execute("EXPLAIN " + explicit).rows[0][0] == plan
        assert "CROSS_PRODUCT" not in plan
        assert "est=" in plan
        assert con.last_query_stats.counter("optimizer.cbo.cross_joins") == 0
        expected = con.execute(sql).fetchall()
        with from_order():
            assert con.execute(sql).fetchall() == expected

    def test_chain_past_dp_limit_plans_greedily(self, from_order):
        """Nine relations exceed ``DP_MAX_RELATIONS``: the greedy search
        plans the chain, still pairing only tables that share a
        predicate, and returns the rows of the FROM-order plan and of
        pgsim."""
        n = 9
        from_clause = ", ".join(f"t{i}" for i in range(n))
        where = " AND ".join(f"t{i}.b = t{i + 1}.a" for i in range(n - 1))
        sql = f"SELECT t0.a, t{n - 1}.b FROM {from_clause} WHERE {where}"
        explicit = "SELECT t0.a, t{}.b FROM t0 {}".format(n - 1, " ".join(
            f"JOIN t{i + 1} ON t{i}.b = t{i + 1}.a" for i in range(n - 1)
        ))
        results = []
        for connect in _ENGINES:
            con = connect()
            for i in range(n):
                con.execute(f"CREATE TABLE t{i}(a INTEGER, b INTEGER)")
                con.database.catalog.get_table(f"t{i}").append_rows(
                    [(j, j) for j in range(20 + 5 * i)]
                )
            results.append(_multiset(con.execute(sql)))
            plan = con.execute("EXPLAIN " + sql).rows[0][0]
            assert con.last_query_stats.counter(
                "optimizer.cbo.greedy_plans") == 1
            assert "CROSS_PRODUCT" not in plan
            assert plan.count("HASH_JOIN") == n - 1
            assert con.execute("EXPLAIN " + explicit).rows[0][0] == plan
            with from_order():
                results.append(_multiset(con.execute(sql)))
        assert sum(results[0].values()) == 20
        assert all(rows == results[0] for rows in results)

    @pytest.mark.parametrize("connect", _ENGINES)
    @pytest.mark.parametrize("sql, leaf, count", [
        ("WITH c AS (SELECT k FROM big WHERE k < 10)"
         " SELECT count(*) FROM big, c WHERE big.k = c.k", "CTE_SCAN c", 10),
        ("SELECT count(*) FROM generate_series(1, 50) g(i)"
         " JOIN big ON g.i = big.k", "TABLE_FUNCTION generate_series", 50),
    ])
    def test_non_table_leaf_plans_by_cost(self, connect, sql, leaf, count):
        """A leaf that is no table joins through the same search, as a
        relation of ``DEFAULT_LEAF_ROWS`` rows: smaller than ``big``,
        so it is the build side."""
        from repro.quack.stats import DEFAULT_LEAF_ROWS

        con = connect()
        con.execute("CREATE TABLE big(k INTEGER, v DOUBLE)")
        con.database.catalog.get_table("big").append_rows(
            [(i, float(i)) for i in range(3 * DEFAULT_LEAF_ROWS)]
        )
        plan = con.execute("EXPLAIN " + sql).rows[0][0].splitlines()
        assert con.last_query_stats.counter("optimizer.cbo.planned") == 1
        join = next(i for i, line in enumerate(plan) if "HASH_JOIN" in line)
        assert plan[join + 2].strip() == (
            f"{leaf} (est={DEFAULT_LEAF_ROWS})"
        )
        assert con.execute(sql).fetchall() == [(count,)]

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_between_on_a_leaf_estimates_one_range(self, connect):
        """A pushed-down ``BETWEEN`` estimates as one histogram range,
        as it does inside an ``OR``, not as two independent bounds."""
        con = connect()
        con.execute("CREATE TABLE f(x INTEGER, d INTEGER)")
        con.execute("CREATE TABLE dim(d INTEGER, name VARCHAR)")
        catalog = con.database.catalog
        catalog.get_table("f").append_rows(
            [(i, i % 10) for i in range(1000)]
        )
        catalog.get_table("dim").append_rows(
            [(i, f"n{i}") for i in range(10)]
        )
        join = "SELECT count(*) FROM f, dim WHERE f.d = dim.d AND "
        bare = con.execute(
            "EXPLAIN " + join + "f.x BETWEEN 100 AND 199"
        ).rows[0][0]
        in_or = con.execute(
            "EXPLAIN " + join + "(f.x BETWEEN 100 AND 199 OR f.x < -5)"
        ).rows[0][0]
        estimate = int(bare.split("FILTER (est=")[1].split(")")[0])
        assert 90 <= estimate <= 110
        assert estimate == int(in_or.split("FILTER (est=")[1].split(")")[0])
        assert con.execute(
            join + "f.x BETWEEN 100 AND 199"
        ).fetchall() == [(100,)]


class TestCopyOnWrite:
    def test_double_optimize_is_idempotent_and_nonmutating(self, quack_con):
        """Satellite regression: optimizing the same bound plan twice must
        give bit-identical output and leave the input plan untouched."""
        from repro.quack.binder import Binder, BinderContext
        from repro.quack.optimizer import optimize
        from repro.quack.sql.parser import parse_sql

        quack_con.execute("ANALYZE")
        db = quack_con.database
        stmt = parse_sql(_QUERIES[1])[0]
        context = BinderContext(db.catalog, db.functions, db.types)
        bound = Binder(context).bind_select(stmt)
        before = bound.explain()
        first = optimize(bound).explain()
        assert bound.explain() == before, "optimize mutated its input"
        second = optimize(bound).explain()
        assert first == second
        assert bound.explain() == before


class TestNoPlannerSwitch:
    @pytest.mark.parametrize("connect", _ENGINES)
    @pytest.mark.parametrize("setting", ["cbo", "zone_maps"])
    @pytest.mark.parametrize("statement", [
        "SET {} = off", "SET {} = 'on'", "SHOW {}",
    ])
    def test_planner_settings_are_unknown(self, connect, setting,
                                          statement):
        from repro.quack.errors import QuackError

        with pytest.raises(QuackError, match="unknown setting"):
            connect().execute(statement.format(setting))


def _tables_analyzed(con) -> int:
    return con.last_query_stats.counter("optimizer.cbo.tables_analyzed")


_JOIN = "SELECT count(*) FROM a, b WHERE a.k = b.k"


def _pair(connect):
    """``a`` holds 100 rows, so 50 + 10 % of them = 60 changes leave its
    statistics fresh and the 61st makes them stale."""
    con = connect()
    con.execute("CREATE TABLE a(k INTEGER, v DOUBLE)")
    con.execute("CREATE TABLE b(k INTEGER, w VARCHAR)")
    catalog = con.database.catalog
    catalog.get_table("a").append_rows([(i, float(i)) for i in range(100)])
    catalog.get_table("b").append_rows([(i, f"w{i}") for i in range(10)])
    con.execute(_JOIN)
    assert _tables_analyzed(con) == 2
    return con, catalog.get_table("a")


def _values(first: int, count: int) -> str:
    return ", ".join(f"({i}, {i}.5)" for i in range(first, first + count))


class TestStaleness:
    """PostgreSQL's autovacuum rule: statistics are re-gathered once the
    rows changed since the last analyze exceed 50 + 10 % of its count."""

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_insert_above_threshold_reanalyzes(self, connect):
        con, table = _pair(connect)
        con.execute("INSERT INTO a VALUES " + _values(100, 60))
        con.execute(_JOIN)
        assert _tables_analyzed(con) == 0
        assert table.stats.row_count == 100
        con.execute("INSERT INTO a VALUES " + _values(160, 1))
        con.execute(_JOIN)
        assert _tables_analyzed(con) == 1
        assert table.stats.row_count == 161
        assert table.changes_since_analyze == 0

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_append_update_and_delete_all_count(self, connect):
        con, table = _pair(connect)
        table.append_rows([(i, 0.0) for i in range(100, 130)])
        con.execute("UPDATE a SET v = v + 1 WHERE k < 20")
        assert table.changes_since_analyze == 50
        con.execute(_JOIN)
        assert _tables_analyzed(con) == 0
        con.execute("DELETE FROM a WHERE k >= 119")
        assert table.changes_since_analyze == 61
        con.execute(_JOIN)
        assert _tables_analyzed(con) == 1
        assert table.stats.row_count == 119

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_explicit_analyze_resets_the_count(self, connect):
        con, table = _pair(connect)
        con.execute("INSERT INTO a VALUES " + _values(100, 60))
        con.execute("ANALYZE a")
        assert table.changes_since_analyze == 0
        # 160 analyzed rows allow 66 changes: 60 more stay fresh, which
        # they would not had the first 60 still counted
        con.execute("INSERT INTO a VALUES " + _values(160, 60))
        con.execute(_JOIN)
        assert _tables_analyzed(con) == 0
        assert table.stats.row_count == 160


class TestObservability:
    def test_implicit_analyze_is_its_own_phase(self):
        con = _populate(core.connect())
        text = con.explain_analyze(_QUERIES[0])
        phases = text.splitlines()[0].split()
        names = [part.split("=")[0] for part in phases[1:]]
        assert names[:4] == ["parse", "bind", "analyze", "optimize"]
        assert "optimizer.cbo.tables_analyzed=3" in text
        text = con.explain_analyze(_QUERIES[0])
        assert "analyze=" not in text.splitlines()[0]

    def test_query_log_records_the_phase_and_counter(self):
        con = _populate(core.connect_baseline())
        con.execute("SET log_min_duration = 0")
        con.execute(_QUERIES[0])
        record = con.query_log(1)[0]
        assert record.phases["analyze"] > 0.0
        assert record.counters["optimizer.cbo.tables_analyzed"] == 3


class TestNonFiniteValues:
    """NaN and the infinities are values: they count as non-null and
    distinct (NaN once), bound no histogram and break no plan."""

    ROWS = [1.0, float("nan"), float("inf"), -float("inf"), None, 2.5,
            float("nan")]
    SQL = "SELECT count(*) FROM m, d WHERE m.k = d.k AND m.x < d.y"

    def _load(self, con):
        con.execute("CREATE TABLE m(k INTEGER, x DOUBLE)")
        con.execute("CREATE TABLE d(k INTEGER, y DOUBLE)")
        catalog = con.database.catalog
        catalog.get_table("m").append_rows(
            [(i % 5, x) for i, x in enumerate(self.ROWS)]
        )
        catalog.get_table("d").append_rows([(i, float(i)) for i in range(5)])
        return con

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_explicit_analyze(self, connect):
        con = self._load(connect())
        assert con.execute("ANALYZE m").fetchall() == [("m", 7, 2)]
        x = con.database.catalog.get_table("m").stats.column(1)
        assert (x.null_count, x.non_null_count) == (1, 6)
        assert x.distinct_count == 5
        assert (x.min_value, x.max_value) == (-float("inf"), float("inf"))
        histogram = x.histogram
        assert (histogram.lo, histogram.hi, histogram.total) == (1.0, 2.5, 2)

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_join_analyzes_implicitly(self, connect):
        con = self._load(connect())
        assert con.execute(self.SQL).fetchall() == [(1,)]
        assert _tables_analyzed(con) == 2
        assert con.execute(
            "SELECT count(*) FROM m JOIN d ON m.k = d.k AND m.x < d.y"
        ).fetchall() == [(1,)]

    def test_attached_table_analyzes_like_in_memory(self, tmp_path):
        path = tmp_path / "nonfinite.quackdb"
        memory = self._load(core.connect())
        memory.execute(f"CHECKPOINT '{path}'")
        con = core.connect()
        con.execute(f"ATTACH '{path}'")
        for name in ("m", "d"):
            assert con.execute(f"ANALYZE {name}").fetchall() == \
                memory.execute(f"ANALYZE {name}").fetchall()
            assert repr(con.database.catalog.get_table(name).stats) == \
                repr(memory.database.catalog.get_table(name).stats)
        assert con.execute(self.SQL).fetchall() == [(1,)]


class TestStatistics:
    def test_analyze_result_and_column_stats(self):
        con = _populate(core.connect())
        result = con.execute("ANALYZE trips")
        assert result.rows == [("trips", 600, 3)]
        stats = con.database.catalog.get_table("trips").stats
        assert stats.row_count == 600
        ids = stats.column(0)
        assert ids.min_value == 0 and ids.max_value == 599
        assert ids.distinct_count == 600
        assert ids.null_count == 0
        vehicle = stats.column(1)
        assert vehicle.distinct_count == 60
        con.close()

    def test_stbox_extent_histograms(self):
        con = core.connect()
        con.execute("CREATE TABLE regions(region_id INTEGER, box STBOX)")
        boxes = [
            (i, STBox(xmin=float(i), ymin=0.0,
                      xmax=float(i) + 1.0, ymax=1.0))
            for i in range(100)
        ]
        con.database.catalog.get_table("regions").append_rows(boxes)
        con.execute("ANALYZE regions")
        stats = con.database.catalog.get_table("regions").stats
        column = stats.column(1)
        assert column.box_count == 100
        assert set(column.box_dimensions) == {"x", "y"}
        from repro.quack.stats import overlap_selectivity

        probe = STBox(xmin=0.0, ymin=0.0, xmax=10.0, ymax=1.0)
        narrow = overlap_selectivity(column, probe)
        wide = overlap_selectivity(
            column, STBox(xmin=0.0, ymin=0.0, xmax=101.0, ymax=1.0)
        )
        assert 0.0 < narrow < wide <= 1.0
        con.close()

    @pytest.mark.parametrize("connect", _ENGINES)
    def test_constant_span_probes_are_estimated(self, connect):
        """A constant time span is a box with only a ``t`` interval, so
        ``@>`` and ``&&`` against one read the column's span extents
        instead of the default selectivity: q-error within 2."""
        con = connect()
        con.execute("CREATE TABLE s(id INTEGER, p TSTZSPAN)")
        con.execute("CREATE TABLE n(k INTEGER)")
        con.execute("INSERT INTO s VALUES " + ", ".join(
            f"({i}, '[2025-01-01, 2025-01-0{1 + i % 8}]')"
            for i in range(300)
        ))
        con.execute("INSERT INTO n VALUES "
                    + ", ".join(f"({k})" for k in range(10)))
        probe = ("tstzspan '[2025-01-01 06:00:00+00,"
                 " 2025-01-01 12:00:00+00]'")
        for op in ("@>", "&&"):
            plan = con.execute(
                f"EXPLAIN ANALYZE SELECT count(*) FROM s, n"
                f" WHERE s.p {op} {probe} AND s.id = n.k"
            ).fetchall()[0][0]
            line = next(line for line in plan.splitlines()
                        if line.strip().startswith("FILTER"))
            rows = int(re.search(r"rows=(\d+)", line).group(1))
            est = int(re.search(r"est=(\d+)", line).group(1))
            # every span but the one-instant [01-01, 01-01] matches
            assert rows == 262, op
            assert max(rows / est, est / rows) <= 2.0, (op, est)

    @pytest.mark.parametrize("connect", _ENGINES)
    @pytest.mark.parametrize("gather", ["analyze", "join"])
    def test_list_and_blob_distinct_counts(self, connect, gather):
        """ANALYZE, explicit or gathered by a table's first join, counts
        LIST values (which do not hash) and BLOBs as the rows do."""
        con = connect()
        con.execute("CREATE TABLE src(k INTEGER, v INTEGER, s VARCHAR)")
        con.execute("INSERT INTO src VALUES " + ", ".join(
            f"({i % 7}, {i % 3}, 'w{i % 5}')" for i in range(60)
        ))
        con.execute("CREATE TABLE t(id INTEGER, l LIST, b BLOB)")
        con.execute("INSERT INTO t SELECT k, list(v), s::BLOB"
                    " FROM src GROUP BY k, s")
        if gather == "analyze":
            con.execute("ANALYZE t")
        else:
            con.execute("SELECT count(*) FROM t, src WHERE t.id = src.k")
        rows = con.execute("SELECT l, b FROM t").fetchall()
        stats = con.database.catalog.get_table("t").stats
        lists = {tuple(values) for values, _ in rows}
        blobs = {blob for _, blob in rows}
        assert 1 < len(lists) < len(rows) and len(blobs) == 5
        assert stats.column(1).distinct_count == len(lists)
        assert stats.column(2).distinct_count == len(blobs)

    def test_selectivities_clamped(self):
        from repro.quack import stats as table_stats

        assert table_stats.clamp01(float("nan")) == 0.5
        assert table_stats.clamp01(-3.0) == 0.0
        assert table_stats.clamp01(7.0) == 1.0
        assert table_stats.comparison_selectivity(None, "=", 1) <= 1.0
