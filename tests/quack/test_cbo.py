"""Cost-based optimizer battery: ANALYZE statistics, join reordering,
and the ``SET cbo`` kill switch.

Every multi-table query here runs three ways — quack with cbo on, quack
with cbo off, and the pgsim row engine — and must return identical row
multisets.  The module forces verification mode on, so every reordered
plan also passes the RewriteVerifier's schema/conjunct checks (the CI
job additionally exports ``REPRO_VERIFICATION=1`` suite-wide).
"""

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


def _multiset(result):
    return Counter(map(repr, result.fetchall()))


class TestDifferential:
    @pytest.mark.parametrize("sql", _QUERIES)
    def test_cbo_on_off_and_pgsim_agree(self, quack_con, pgsim_con, sql):
        for con in (quack_con, pgsim_con):
            con.execute("ANALYZE")
        quack_con.execute("SET cbo = on")
        pgsim_con.execute("SET cbo = on")
        on_rows = _multiset(quack_con.execute(sql))
        pg_rows = _multiset(pgsim_con.execute(sql))
        quack_con.execute("SET cbo = off")
        off_rows = _multiset(quack_con.execute(sql))
        quack_con.execute("SET cbo = on")
        assert on_rows == off_rows, sql
        assert on_rows == pg_rows, sql


class TestReordering:
    def test_dp_picks_non_binder_order_on_skew(self, quack_con):
        """The selective table is last in binder order; with statistics
        the DP must pull it ahead, changing the plan shape and emitting
        the column-restoring projection."""
        sql = _QUERIES[0]
        quack_con.execute("ANALYZE")
        quack_con.execute("SET cbo = off")
        heuristic = quack_con.execute("EXPLAIN " + sql).rows[0][0]
        quack_con.execute("SET cbo = on")
        cbo = quack_con.execute("EXPLAIN " + sql).rows[0][0]
        assert cbo != heuristic
        assert "(est=" in cbo
        assert "(est=" not in heuristic
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

    def test_analyze_less_plan_is_heuristic(self):
        """Without ANALYZE, cbo=on must produce the exact heuristic plan."""
        con = _populate(core.connect())
        sql = _QUERIES[0]
        with_cbo = con.execute("EXPLAIN " + sql).rows[0][0]
        con.execute("SET cbo = off")
        without = con.execute("EXPLAIN " + sql).rows[0][0]
        assert with_cbo == without
        assert "est=" not in with_cbo
        con.close()


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


class TestKillSwitch:
    def test_set_show_roundtrip(self, quack_con):
        quack_con.execute("SET cbo = off")
        assert quack_con.execute("SHOW cbo").rows == [("off",)]
        quack_con.execute("SET cbo = on")
        assert quack_con.execute("SHOW cbo").rows == [("on",)]

    def test_invalid_value_rejected(self, quack_con):
        from repro.quack.errors import QuackError

        with pytest.raises(QuackError):
            quack_con.execute("SET cbo = 17")

    def test_pgsim_kill_switch(self, pgsim_con):
        pgsim_con.execute("SET cbo = off")
        assert pgsim_con.execute("SHOW cbo").rows == [("off",)]
        pgsim_con.execute("SET cbo = on")


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

    def test_selectivities_clamped(self):
        from repro.quack import stats as table_stats

        assert table_stats.clamp01(float("nan")) == 0.5
        assert table_stats.clamp01(-3.0) == 0.0
        assert table_stats.clamp01(7.0) == 1.0
        assert table_stats.comparison_selectivity(None, "=", 1) <= 1.0
