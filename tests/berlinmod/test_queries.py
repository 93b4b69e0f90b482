"""BerlinMOD benchmark query integration tests.

Loads a small dataset into both engines and validates that each of the
17 queries runs and returns identical rows (the correctness backbone of
the Figure 12 comparison).
"""

import pytest

from repro import core
from repro.berlinmod import (
    QUERIES,
    create_baseline_indexes,
    generate,
    get_query,
    load_dataset,
    prepare_scenario,
)
from repro.pgsim.table import Varlena

#: SF small enough for CI-speed runs but with non-trivial results.
_SF = 0.001


@pytest.fixture(scope="module")
def dataset():
    return generate(_SF, spacing_m=1200.0)


@pytest.fixture(scope="module")
def duck(dataset):
    con = core.connect()
    load_dataset(con, dataset)
    return con


@pytest.fixture(scope="module")
def baseline(dataset):
    con = core.connect_baseline()
    load_dataset(con, dataset)
    return con


@pytest.fixture(scope="module")
def baseline_indexed(dataset):
    con = core.connect_baseline()
    load_dataset(con, dataset)
    create_baseline_indexes(con)
    return con


class TestSchema:
    def test_tables_loaded(self, duck, dataset):
        assert duck.execute("SELECT count(*) FROM Vehicles").scalar() == \
            len(dataset.vehicles)
        assert duck.execute("SELECT count(*) FROM Trips").scalar() == \
            len(dataset.trips)
        assert duck.execute("SELECT count(*) FROM hanoi").scalar() == 12
        for table, rows in (
            ("Licences1", 10), ("Licences2", 10), ("Instants1", 10),
            ("Periods1", 10), ("Points1", 10), ("Regions1", 10),
            ("Instants", 100), ("Periods", 100), ("Points", 100),
            ("Regions", 100),
        ):
            assert duck.execute(
                f"SELECT count(*) FROM {table}"
            ).scalar() == rows

    def test_samples_disjoint(self, duck):
        got = duck.execute(
            "SELECT count(*) FROM Licences1 l1, Licences2 l2 "
            "WHERE l1.VehicleId = l2.VehicleId"
        ).scalar()
        assert got == 0


class TestQueriesRunOnDuck:
    @pytest.mark.parametrize("number", [q.number for q in QUERIES])
    def test_query_runs(self, duck, number):
        query = get_query(number)
        result = duck.execute(query.sql)
        assert result.column_names  # has a shape
        # Sanity: queries 1/2 always return rows on any dataset.
        if number in (1, 2):
            assert len(result) >= 1

    def test_query5_variants_agree(self, duck):
        query = get_query(5)
        standard = duck.execute(query.sql).fetchall()
        optimized = duck.execute(query.optimized_sql).fetchall()
        assert len(standard) == len(optimized) == 100
        for (l1, l2, d1), (m1, m2, d2) in zip(standard, optimized):
            assert (l1, l2) == (m1, m2)
            assert d1 == pytest.approx(d2, abs=1e-6)


def _joins(op, node):
    """``(join operator, its EXPLAIN ANALYZE json node)`` pairs."""
    from repro.quack.plan import LogicalJoin

    if isinstance(op, LogicalJoin):
        yield op, node
    for child, child_node in zip(op.children(), node["children"]):
        yield from _joins(child, child_node)


class TestEngineWork:
    def test_only_query5_falls_back(self, duck):
        """Q5's two ``list(...)`` aggregates have no ``step_batch`` and
        run the row loop; every other query runs on kernels alone."""
        fallbacks = {
            q.number: duck.execute(q.sql).stats().counter(
                "quack.fallback_ops")
            for q in QUERIES
        }
        assert {n: c for n, c in fallbacks.items() if c} == {5: 2}

    def test_query10_joins_gather_only_what_they_read(self, duck):
        """Each join gathers the residual's columns for its candidate
        pairs, its output columns for the surviving pairs, and its build
        side once: no column rides through the pair loop unread."""
        from repro.quack.sql.parser import parse_sql

        sql = get_query(10).sql
        plan = duck._plan(parse_sql(sql)[0])
        tree = duck.explain_analyze(sql, format="json")
        joins = list(_joins(plan, tree["plan"]))
        assert len(joins) == 3
        for join, node in joins:
            left, right = (child["rows"] for child in node["children"])
            candidates = left * right if not join.equi_keys else 0
            residual = (len(join.residual.columns_used())
                        if join.residual is not None else 0)
            bound = (candidates * residual
                     + node["rows"] * len(join.output_types())
                     + right * len(join.right.output_types()))
            gathered = node["metrics"]["gathered_cells"]
            assert gathered <= bound, join.explain()
        # the per-operator counts add up to the query's counter
        assert sum(
            node.get("metrics", {}).get("gathered_cells", 0)
            for node in _nodes(tree["plan"])
        ) == tree["counters"]["executor.gathered_cells"]


def _nodes(node):
    yield node
    for child in node["children"]:
        yield from _nodes(child)


class TestCrossEngine:
    """MobilityDuck and the MobilityDB baseline must agree row-for-row."""

    # Q5 standard variant is slow on the baseline; compare the cheap ones
    # plus representative spatiotemporal ones.
    NUMBERS = [1, 2, 3, 4, 6, 7, 8, 11, 13, 14, 15, 17]

    @pytest.mark.parametrize("number", NUMBERS)
    def test_same_rows_without_indexes(self, duck, baseline, number):
        query = get_query(number)
        a = duck.execute(query.sql).fetchall()
        b = baseline.execute(query.sql).fetchall()
        assert _comparable(a) == _comparable(b), f"Q{number} differs"

    @pytest.mark.parametrize("number", [4, 6, 13, 15])
    def test_same_rows_with_indexes(self, duck, baseline_indexed, number):
        query = get_query(number)
        a = duck.execute(query.sql).fetchall()
        b = baseline_indexed.execute(query.sql).fetchall()
        assert _comparable(a) == _comparable(b), f"Q{number} differs"

    def test_query10_periods_agree(self, duck, baseline_indexed):
        query = get_query(10)
        a = duck.execute(query.sql).fetchall()
        b = baseline_indexed.execute(query.sql).fetchall()
        assert [(r[0], r[1], str(r[2])) for r in a] == \
            [(r[0], r[1], str(r[2])) for r in b]


class TestStoredDatumsUnchanged:
    """pgsim's heap holds an inline datum as the value itself and hands
    that same object to every query: no query may change it."""

    def test_all_queries_leave_inline_datums_intact(self, unverified):
        city = generate(0.0002, 4711)
        base = prepare_scenario("mobilitydb_idx", city)
        layouts = _inline_layouts(base)
        assert layouts  # the city's trips, periods and geometries
        duck = prepare_scenario("mobilityduck", city)
        for query in QUERIES:
            got = [repr(row) for row in base.execute(query.sql).fetchall()]
            want = [repr(row) for row in duck.execute(query.sql).fetchall()]
            if query.number == 10:  # ties may come back in any order
                got, want = sorted(got), sorted(want)
            assert got == want, f"Q{query.number} differs"
        assert _inline_layouts(base) == layouts


def _inline_layouts(con):
    """The flat layout of every inline datum whose type has a codec."""
    layouts = {}
    for table in con.database.catalog.tables.values():
        for col, ltype in enumerate(table.column_types):
            if ltype.codec is None:
                continue
            for rid, row in table.scan():
                if row[col] is not None and not isinstance(row[col], Varlena):
                    layouts[table.name, rid, col] = \
                        ltype.codec.encode_datum(row[col])
    return layouts


def _comparable(rows):
    """Stringify temporal/geometry values for cross-engine comparison."""
    out = []
    for row in rows:
        out.append(
            tuple(
                str(v) if not isinstance(v, (int, float, str, type(None)))
                else (round(v, 6) if isinstance(v, float) else v)
                for v in row
            )
        )
    return out
