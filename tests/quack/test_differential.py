"""Differential testing: quack and pgsim must agree on random queries.

Hypothesis generates small tables and queries from a constrained SQL
grammar; both engines execute them and must return identical multisets of
rows.  This guards the shared semantics against divergence between the
vectorized and the row-at-a-time execution paths.  Fixed batteries of
DISTINCT aggregates and of queries over tables several vectors long run
over in-memory and attached tables and with their sinks spilling.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgsim import RowDatabase
from repro.quack import Database

_COLUMNS = ("a", "b", "c")


@st.composite
def _tables(draw):
    rows = draw(st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-5, 5)),
            st.one_of(st.none(), st.integers(0, 3)),
            st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
        ),
        min_size=0,
        max_size=12,
    ))
    return rows


@st.composite
def _predicates(draw):
    column = draw(st.sampled_from(["a", "b"]))
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    value = draw(st.integers(-5, 5))
    clause = f"{column} {op} {value}"
    if draw(st.booleans()):
        other = draw(st.sampled_from([
            "c = 'x'", "c IS NULL", "a IS NOT NULL", "b IN (1, 2)",
        ]))
        joiner = draw(st.sampled_from(["AND", "OR"]))
        clause = f"({clause}) {joiner} ({other})"
    return clause


def _load(factory, rows):
    con = factory().connect()
    con.execute("CREATE TABLE t(a INTEGER, b INTEGER, c VARCHAR)")
    if rows:
        con.database.catalog.get_table("t").append_rows(rows)
    return con


def _agree(rows, sql):
    duck = _load(Database, rows).execute(sql).fetchall()
    base = _load(RowDatabase, rows).execute(sql).fetchall()
    assert Counter(map(repr, duck)) == Counter(map(repr, base)), sql


class TestDifferential:
    @given(_tables(), _predicates())
    @settings(max_examples=60, deadline=None)
    def test_filters(self, rows, predicate):
        _agree(rows, f"SELECT a, b, c FROM t WHERE {predicate}")

    @given(_tables())
    @settings(max_examples=40, deadline=None)
    def test_aggregates(self, rows):
        _agree(
            rows,
            "SELECT b, count(*), count(a), sum(a), min(a), max(a) "
            "FROM t GROUP BY b ORDER BY b",
        )

    @given(_tables())
    @settings(max_examples=40, deadline=None)
    def test_distinct_order_limit(self, rows):
        _agree(
            rows,
            "SELECT DISTINCT a FROM t ORDER BY a LIMIT 5",
        )

    @given(_tables(), _tables())
    @settings(max_examples=40, deadline=None)
    def test_joins(self, left_rows, right_rows):
        def load(factory):
            con = factory().connect()
            con.execute("CREATE TABLE l(a INTEGER, b INTEGER, c VARCHAR)")
            con.execute("CREATE TABLE r(a INTEGER, b INTEGER, c VARCHAR)")
            if left_rows:
                con.database.catalog.get_table("l").append_rows(left_rows)
            if right_rows:
                con.database.catalog.get_table("r").append_rows(right_rows)
            return con

        sql = ("SELECT l.a, r.b FROM l, r "
               "WHERE l.a = r.a AND l.b >= 1")
        duck = load(Database).execute(sql).fetchall()
        base = load(RowDatabase).execute(sql).fetchall()
        assert Counter(map(repr, duck)) == Counter(map(repr, base))

    @given(_tables())
    @settings(max_examples=30, deadline=None)
    def test_subqueries(self, rows):
        _agree(
            rows,
            "SELECT a FROM t WHERE a <= ALL "
            "(SELECT a FROM t WHERE a IS NOT NULL) ORDER BY a",
        )

    @given(_tables())
    @settings(max_examples=30, deadline=None)
    def test_set_operations(self, rows):
        _agree(
            rows,
            "SELECT a FROM t WHERE b = 1 UNION SELECT a FROM t "
            "WHERE b = 2 ORDER BY a",
        )

    @given(_tables(), _tables())
    @settings(max_examples=40, deadline=None)
    def test_left_joins(self, left_rows, right_rows):
        def load(factory):
            con = factory().connect()
            con.execute("CREATE TABLE l(a INTEGER, b INTEGER, c VARCHAR)")
            con.execute("CREATE TABLE r(a INTEGER, b INTEGER, c VARCHAR)")
            if left_rows:
                con.database.catalog.get_table("l").append_rows(left_rows)
            if right_rows:
                con.database.catalog.get_table("r").append_rows(right_rows)
            return con

        sql = ("SELECT l.a, l.b, r.c FROM l LEFT JOIN r "
               "ON l.a = r.a AND r.b > 0")
        duck = load(Database).execute(sql).fetchall()
        base = load(RowDatabase).execute(sql).fetchall()
        assert Counter(map(repr, duck)) == Counter(map(repr, base))

    @given(_tables())
    @settings(max_examples=30, deadline=None)
    def test_having(self, rows):
        _agree(
            rows,
            "SELECT b, count(*) FROM t GROUP BY b "
            "HAVING count(*) >= 2 ORDER BY b",
        )

    @given(_tables(), _predicates())
    @settings(max_examples=40, deadline=None)
    def test_case_and_arithmetic(self, rows, predicate):
        _agree(
            rows,
            "SELECT a, CASE WHEN a > 0 THEN a * 2 ELSE -a END FROM t "
            f"WHERE {predicate} ORDER BY 1, 2",
        )


def _ordered_agree(rows, sql):
    """Row ORDER must match exactly (not just as a multiset)."""
    duck = _load(Database, rows).execute(sql).fetchall()
    base = _load(RowDatabase, rows).execute(sql).fetchall()
    assert list(map(repr, duck)) == list(map(repr, base)), sql


class TestOrderByNullSemantics:
    """ASC/DESC x NULLS FIRST/LAST/default must agree across engines,
    including tie stability (both engines sort stably in scan order)."""

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    @pytest.mark.parametrize("nulls", ["", "NULLS FIRST", "NULLS LAST"])
    @given(_tables())
    @settings(max_examples=20, deadline=None)
    def test_null_placement(self, direction, nulls, rows):
        _ordered_agree(
            rows,
            f"SELECT a, b, c FROM t ORDER BY a {direction} {nulls}".strip(),
        )

    @pytest.mark.parametrize("keys", [
        "a ASC NULLS FIRST, b DESC",
        "b DESC NULLS LAST, a ASC",
        "c ASC, a DESC NULLS FIRST",
    ])
    @given(_tables())
    @settings(max_examples=15, deadline=None)
    def test_multi_key(self, keys, rows):
        _ordered_agree(rows, f"SELECT a, b, c FROM t ORDER BY {keys}")


class TestNaNGroupsDifferential:
    """NaN group keys and NaN-aware min/max must agree across engines."""

    @given(st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 2)),
            st.one_of(
                st.none(),
                st.just(float("nan")),
                st.just(-0.0),
                st.floats(-4, 4, allow_nan=False),
            ),
        ),
        min_size=0,
        max_size=12,
    ))
    @settings(max_examples=40, deadline=None)
    def test_nan_aggregates(self, rows):
        def run(factory):
            con = factory().connect()
            con.execute("CREATE TABLE f(g INTEGER, x DOUBLE)")
            if rows:
                con.database.catalog.get_table("f").append_rows(rows)
            return con.execute(
                "SELECT x, count(*), min(x), max(x), sum(x) FROM f GROUP BY x"
            ).fetchall()

        duck = run(Database)
        base = run(RowDatabase)
        assert Counter(map(repr, duck)) == Counter(map(repr, base))

    @given(st.lists(
        st.one_of(
            st.none(),
            st.just(float("nan")),
            st.floats(-4, 4, allow_nan=False),
        ),
        min_size=0,
        max_size=10,
    ))
    @settings(max_examples=40, deadline=None)
    def test_nan_order_by(self, values):
        def run(factory):
            con = factory().connect()
            con.execute("CREATE TABLE f(x DOUBLE)")
            if values:
                con.database.catalog.get_table("f").append_rows(
                    [(v,) for v in values]
                )
            return con.execute(
                "SELECT x FROM f ORDER BY x DESC NULLS LAST"
            ).fetchall()

        assert list(map(repr, run(Database))) == list(
            map(repr, run(RowDatabase))
        )


class TestCaseNumericArms:
    """A CASE over BIGINT and DOUBLE arms is DOUBLE on both engines: the
    binder unifies the arms, neither engine truncates or mistypes."""

    ROWS = [(True, 1, 0.5), (False, 2, 2.5), (None, 3, 3.25),
            (True, None, 7.75), (False, 4, None)]

    @pytest.mark.parametrize("case", [
        "CASE WHEN b THEN 1 ELSE 2.5 END",
        "CASE WHEN b THEN 2.5 ELSE 1 END",
        "CASE WHEN b THEN i ELSE x END",
        "CASE WHEN b THEN x ELSE i END",
        "CASE WHEN b THEN i ELSE 2.5 END",
        "CASE WHEN b THEN NULL WHEN NOT b THEN i ELSE x END",
        "CASE WHEN b THEN i WHEN NOT b THEN x END",
        "CASE i WHEN 1 THEN 10 WHEN 2 THEN x ELSE i END",
        "CASE i WHEN 1 THEN x WHEN 2 THEN NULL ELSE 7 END",
        "CASE WHEN b THEN i ELSE i + 1 END",
    ])
    def test_arms_unify(self, case):
        def run(factory):
            con = factory().connect()
            con.execute("CREATE TABLE t(b BOOLEAN, i BIGINT, x DOUBLE)")
            con.database.catalog.get_table("t").append_rows(self.ROWS)
            result = con.execute(f"SELECT {case} FROM t")
            return result.column_types, list(map(repr, result.fetchall()))

        duck_types, duck = run(Database)
        base_types, base = run(RowDatabase)
        assert duck == base
        assert duck_types == base_types
        mixed = "x" in case or "." in case
        assert duck_types[0].name == ("DOUBLE" if mixed else "BIGINT")
        for row in duck:
            assert row == "(None,)" or ("." in row) == mixed, row


_NAN = float("nan")
#: few distinct values, every one repeated; NULL, NaN and both zeros
_DISTINCT_X = [1.5, None, _NAN, 0.0, -0.0, 2.25, 1.5, _NAN, None, -0.0]
_DISTINCT_S = ["a", None, "", "b", "a", "", "c"]
_DISTINCT_AGGREGATES = [
    "count(DISTINCT x)", "sum(DISTINCT x)", "avg(DISTINCT x)",
    "min(DISTINCT x)", "max(DISTINCT x)", "first(DISTINCT x)",
    "list(DISTINCT x)", "count(DISTINCT k)", "sum(DISTINCT k)",
    "min(DISTINCT s)", "list(DISTINCT s)", "string_agg(DISTINCT s, '|')",
]


def _distinct_rows(n):
    return [
        (i % 5 if i % 11 else None, i % 7 if i % 13 else None,
         _DISTINCT_X[i % len(_DISTINCT_X)], _DISTINCT_S[i % len(_DISTINCT_S)])
        for i in range(n)
    ]


def _distinct_load(factory, rows):
    con = factory().connect()
    con.execute("CREATE TABLE d(g BIGINT, k BIGINT, x DOUBLE, s VARCHAR)")
    if rows:
        con.database.catalog.get_table("d").append_rows(rows)
    return con


class TestDistinctAggregates:
    """DISTINCT aggregates row for row against the row engine, on the
    in-memory and spilled aggregation paths, over in-memory and attached
    tables."""

    @pytest.fixture(scope="class", params=[
        (0, "memory"), (9000, "memory"), (0, "attached"), (9000, "attached"),
    ], ids=["empty", "rows", "empty-attached", "rows-attached"])
    def engines(self, request, configure_quack):
        n, config = request.param
        rows = _distinct_rows(n)
        duck = configure_quack(_distinct_load(Database, rows), config)
        return duck, _distinct_load(RowDatabase, rows)

    @pytest.mark.parametrize("memory_limit", [0, 0.05],
                             ids=["memory", "spill"])
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("aggregate", _DISTINCT_AGGREGATES)
    def test_matches_row_engine(self, engines, aggregate, grouped,
                                memory_limit):
        duck, base = engines
        sql = (f"SELECT g, {aggregate} FROM d GROUP BY g ORDER BY g"
               if grouped else f"SELECT {aggregate} FROM d")
        duck.execute(f"SET memory_limit = {memory_limit}")
        got = duck.execute(sql).fetchall()
        stats = duck.last_query_stats
        assert list(map(repr, got)) == list(
            map(repr, base.execute(sql).fetchall())
        ), sql
        if duck.database.catalog.get_table("d").num_rows():
            if memory_limit:
                assert stats.counter("storage.spilled_aggregates") == 1
            if aggregate.startswith("count("):
                assert stats.counter("quack.fallback_ops") == 0
                assert stats.counter("quack.kernel_ops") >= 1

    @given(st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 2)),
            st.one_of(st.none(), st.integers(-2, 2)),
            st.one_of(st.none(), st.just(_NAN), st.just(-0.0), st.just(0.0),
                      st.floats(-2, 2, allow_nan=False, width=16)),
            st.one_of(st.none(), st.sampled_from(["", "a", "b"])),
        ),
        max_size=14,
    ), st.sampled_from(_DISTINCT_AGGREGATES), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_random_tables(self, rows, aggregate, grouped):
        sql = (f"SELECT g, {aggregate}, count(*) FROM d GROUP BY g ORDER BY g"
               if grouped else f"SELECT {aggregate}, count(*) FROM d")
        duck = _distinct_load(Database, rows).execute(sql).fetchall()
        base = _distinct_load(RowDatabase, rows).execute(sql).fetchall()
        assert list(map(repr, duck)) == list(map(repr, base)), sql

    def test_selection_is_crosschecked_under_verification(self):
        from repro.analysis import set_verification_enabled

        duck = _distinct_load(Database, _distinct_rows(300))
        previous = set_verification_enabled(True)
        try:
            duck.execute("SELECT g, count(DISTINCT k) FROM d GROUP BY g")
            stats = duck.last_query_stats
        finally:
            set_verification_enabled(previous)
        # grouping, the DISTINCT selection and the count kernel
        assert stats.counter("verify.kernel_crosschecks") == 3
        assert stats.counter("quack.fallback_ops") == 0


#: five vectors' worth of rows: every operator crosses chunk boundaries
_BIG_ROWS = 10_000


def _big_load(factory):
    con = factory().connect()
    con.execute("CREATE TABLE big(i BIGINT, g INTEGER, x DOUBLE, s VARCHAR)")
    con.execute(
        "INSERT INTO big "
        "SELECT i, i % 7, i * 0.5, "
        "       CASE WHEN i % 97 = 0 THEN NULL ELSE 'grp' || (i % 5) END "
        f"FROM generate_series(1, {_BIG_ROWS}) AS t(i)"
    )
    con.execute("CREATE TABLE dim(k INTEGER, name VARCHAR)")
    # NULL keys on the build side never match
    con.execute(
        "INSERT INTO dim "
        "SELECT CASE WHEN i % 53 = 0 THEN NULL ELSE i % 500 END, "
        "       'name' || i "
        "FROM generate_series(1, 6000) AS t(i)"
    )
    return con


#: no sort, hash-join build or aggregation: nothing to spill
_BIG_STREAMING = [
    "SELECT i, x + 1.0, g FROM big WHERE i % 3 = 0 AND x < 4000.0",
    "SELECT i FROM big WHERE s IS NULL",
    "SELECT i, x FROM big WHERE g = 3",
    "SELECT g FROM big WHERE i <= 5000 "
    "EXCEPT SELECT g FROM big WHERE i > 9996",
]
_BIG_SINKS = [
    "SELECT g, count(*), sum(i), sum(x), min(x), max(i) "
    "FROM big GROUP BY g ORDER BY g",
    "SELECT count(*), sum(x), min(i), max(x) FROM big",
    "SELECT s, count(*), sum(i) FROM big GROUP BY s ORDER BY s",
    "SELECT g, avg(x), string_agg(s, ',') FROM big "
    "WHERE i <= 5000 GROUP BY g ORDER BY g",
    "SELECT g, count(DISTINCT s) FROM big GROUP BY g ORDER BY g",
    "SELECT s, i FROM big ORDER BY s NULLS FIRST, i DESC",
    "SELECT x FROM big ORDER BY x DESC LIMIT 17",
    "SELECT DISTINCT g, s FROM big ORDER BY g, s",
    # comma joins plan as hash joins
    "SELECT count(*), sum(b.i) FROM big b, dim d WHERE b.g = d.k",
    "SELECT d.name, count(*) FROM big b, dim d "
    "WHERE b.g = d.k AND b.i % 11 = 0 GROUP BY d.name ORDER BY d.name",
    # JOIN ... ON keeps the nested-loop plan
    "SELECT count(*) FROM (SELECT * FROM big WHERE i <= 200) b "
    "LEFT JOIN dim d ON b.g = d.k",
    "WITH hot AS (SELECT g, sum(x) AS tot FROM big GROUP BY g) "
    "SELECT b.g, h.tot FROM big b, hot h "
    "WHERE b.g = h.g AND b.i <= 50 ORDER BY b.i",
    "SELECT g, (SELECT count(*) FROM dim d WHERE d.k = b.g) "
    "FROM big b WHERE i <= 4500 ORDER BY i",
    "SELECT i FROM big WHERE x > (SELECT avg(x) FROM big) "
    "ORDER BY i LIMIT 13",
]
_BIG_QUERIES = _BIG_STREAMING + _BIG_SINKS


class TestMultiChunkQueries:
    """Scans, aggregates, sorts, joins, subqueries and set operations
    over tables of several vectors, row for row against the row engine:
    over in-memory and attached tables, and with every sink spilling."""

    @pytest.fixture(scope="class")
    def expected(self):
        con = _big_load(RowDatabase)
        return {sql: con.execute(sql).fetchall() for sql in _BIG_QUERIES}

    @pytest.fixture(scope="class", params=["memory", "attached", "spill"])
    def duck(self, request, configure_quack):
        return configure_quack(_big_load(Database), request.param), \
            request.param

    @pytest.mark.parametrize("sql", _BIG_QUERIES)
    def test_matches_row_engine(self, duck, expected, sql):
        con, config = duck
        got = list(map(repr, con.execute(sql).fetchall()))
        spilled = con.last_query_stats.counter("storage.spill_rows")
        want = list(map(repr, expected[sql]))
        if "ORDER BY" not in sql:
            got, want = sorted(got), sorted(want)
        assert got == want, sql
        assert want, "the battery must not pass vacuously"
        assert (spilled > 0) == (config == "spill" and sql in _BIG_SINKS)

    def test_group_counts_cover_the_table(self, duck):
        con, _ = duck
        rows = con.execute(
            "SELECT g, count(*) FROM big GROUP BY g ORDER BY g"
        ).fetchall()
        assert [g for g, _ in rows] == list(range(7))
        assert sum(n for _, n in rows) == _BIG_ROWS
