"""BerlinMOD joins planned by cost on the benchmark city, with no ANALYZE.

The first join over a table gathers its statistics (PostgreSQL's
autovacuum analyze, DuckDB's append-time statistics), so neither engine
joins in FROM order: the box tests run below the joins that fan the
trips out over regions and points, the row engine probes Trips' GiST
index, and every query still returns the FROM-order plan's rows.  An
attached copy of the city gathers the same statistics as the in-memory
one, so it plans every query the same way.
"""

import pytest

from repro import core
from repro.berlinmod import QUERIES, generate, get_query, prepare_scenario
from repro.quack.plan import LogicalGet, LogicalIndexScan, LogicalJoin
from repro.quack.sql.parser import parse_sql

#: ORDER BY leaves ties in Q10's result: its rows compare as a multiset
_UNORDERED = {10}


@pytest.fixture(scope="module")
def city():
    return generate(0.0002, 4711)


@pytest.fixture(scope="module", params=["mobilityduck", "mobilitydb_idx"])
def con(request, city):
    return prepare_scenario(request.param, city)


def _plan(con, number):
    return con._plan(parse_sql(get_query(number).sql)[0])


def _nodes(op):
    yield op
    for child in op.children():
        yield from _nodes(child)


def _scans(op) -> set[str]:
    return {node.table.name.lower() for node in _nodes(op)
            if isinstance(node, (LogicalGet, LogicalIndexScan))}


def _box_joins(op, box_op: str) -> list[LogicalJoin]:
    """Joins that test ``box_op``: in their residual or as the index
    probe."""
    def names(expr):
        if expr is None:
            return []
        if getattr(expr, "op", None) == "AND":
            return [n for arg in expr.args for n in names(arg)]
        return [getattr(expr, "name", "")]

    return [
        node for node in _nodes(op) if isinstance(node, LogicalJoin)
        and (box_op in names(node.residual)
             or (node.index_probe or (None, None))[1] == box_op)
    ]


@pytest.mark.parametrize("number,table,box_op", [
    (13, "regions1", "&&"), (15, "points1", "&&"),
    (11, "points1", "@>"), (14, "regions1", "@>"),
])
def test_box_test_runs_below_the_join_with(con, number, table, box_op):
    """In FROM order these queries cross the trips with every region or
    point before the box test; by cost the test runs first."""
    plan = _plan(con, number)
    fan_out = next(
        node for node in _nodes(plan) if isinstance(node, LogicalJoin)
        and (table in _scans(node.left)) != (table in _scans(node.right))
    )
    below = fan_out.right if table in _scans(fan_out.left) else fan_out.left
    assert _box_joins(below, box_op), f"Q{number}"
    assert all(join is not fan_out for join in _box_joins(plan, box_op))
    assert "CROSS_PRODUCT" not in plan.explain()


@pytest.mark.parametrize("number", [8, 9, 10, 13, 15, 16])
def test_row_engine_probes_the_trips_index(city, number):
    plan = _plan(prepare_scenario("mobilitydb_idx", city), number)
    assert "INDEX_NL_JOIN [trips_trip_gist]" in plan.explain()


def test_every_query_returns_the_from_order_rows(con, from_order):
    planned = {q.number: con.execute(q.sql).fetchall() for q in QUERIES}
    with from_order():
        for query in QUERIES:
            expected = con.execute(query.sql).fetchall()
            got = planned[query.number]
            if query.number in _UNORDERED:
                expected, got = sorted(map(repr, expected)), sorted(
                    map(repr, got))
            assert got == expected, f"Q{query.number}"


def test_attached_city_plans_like_the_in_memory_one(city, tmp_path):
    """CHECKPOINT and ATTACH change no plan or estimate: both copies
    gather their statistics implicitly, through the same ANALYZE."""
    memory = prepare_scenario("mobilityduck", city)
    path = tmp_path / "city.quackdb"
    memory.execute(f"CHECKPOINT '{path}'")
    attached = core.connect()
    attached.execute(f"ATTACH '{path}'")
    differ = [
        query.number for query in QUERIES
        if attached.execute(f"EXPLAIN {query.sql}").plan_text
        != memory.execute(f"EXPLAIN {query.sql}").plan_text
    ]
    assert differ == []
    assert "est=" in memory.execute(f"EXPLAIN {get_query(4).sql}").plan_text
