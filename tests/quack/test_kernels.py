"""Vectorized aggregation/sort/distinct kernels and their fallbacks.

Covers the NumPy kernel paths: NaN/negative-zero group
canonicalization, the typed unhashable-key fallback, parity with the
pgsim row engine, stable sorting — on the in-memory and the spilling
sinks — and the EXPLAIN ANALYZE kernel counters.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgsim import RowDatabase
from repro.quack import Database, kernels
from repro.quack.errors import ConversionError, ExecutionError
from repro.quack.extension import ExtensionUtil, make_user_type
from repro.quack.functions import AggregateFunction
from repro.quack.kernels import hashable_key
from repro.quack.types import BIGINT, BOOLEAN, DOUBLE, LIST, VARCHAR
from repro.quack.vector import Vector


def _connect(factory=Database):
    con = factory().connect()
    con.execute("CREATE TABLE t(g INTEGER, x DOUBLE, s VARCHAR)")
    return con


def _append(con, rows):
    con.database.catalog.get_table("t").append_rows(rows)


#: the in-memory sinks and, under a memory limit of about one byte, the
#: spilling ones: both must canonicalize keys and keep row order alike
@pytest.fixture(params=["memory", "spill"])
def config(request):
    return request.param


def _check_path(con, config):
    """The last query took the configuration's sink path."""
    spilled = con.last_query_stats.counter("storage.spill_rows")
    assert (spilled > 0) == (config == "spill")


class TestNaNGroups:
    def test_nan_keys_form_one_group(self, configure_quack, config):
        con = _connect()
        # Two NaN payloads plus regular keys; NaN != NaN in Python, so the
        # old dict-of-groups path opened a fresh group per NaN row.
        _append(con, [
            (1, float("nan"), "a"),
            (1, float("nan"), "b"),
            (1, 1.5, "c"),
            (1, float("nan"), "d"),
        ])
        con = configure_quack(con, config)
        rows = con.execute(
            "SELECT x, count(*) FROM t GROUP BY x"
        ).fetchall()
        _check_path(con, config)
        assert len(rows) == 2
        counts = {repr(x): n for x, n in rows}
        assert counts["nan"] == 3
        assert counts["1.5"] == 1

    def test_negative_zero_merges_with_zero(self, configure_quack, config):
        con = _connect()
        _append(con, [(1, -0.0, "a"), (1, 0.0, "b"), (1, 1.0, "c")])
        con = configure_quack(con, config)
        rows = con.execute(
            "SELECT x, count(*) FROM t GROUP BY x"
        ).fetchall()
        _check_path(con, config)
        assert sorted(n for _, n in rows) == [1, 2]

    def test_nan_distinct(self, configure_quack, config):
        con = _connect()
        _append(con, [
            (1, float("nan"), None),
            (2, float("nan"), None),
            (3, 2.0, None),
        ])
        con = configure_quack(con, config)
        rows = con.execute("SELECT DISTINCT x FROM t").fetchall()
        assert len(rows) == 2
        # DISTINCT streams; the aggregate form goes through a sink
        assert con.execute(
            "SELECT count(DISTINCT x) FROM t").fetchall() == [(2,)]
        _check_path(con, config)

    def test_min_max_with_nan(self, configure_quack, config):
        con = _connect()
        # DuckDB treats NaN as the greatest DOUBLE: max picks it up,
        # min ignores it unless every value is NaN.
        _append(con, [(1, 1.0, None), (1, float("nan"), None),
                      (2, float("nan"), None)])
        con = configure_quack(con, config)
        rows = con.execute(
            "SELECT g, min(x), max(x) FROM t GROUP BY g ORDER BY g"
        ).fetchall()
        _check_path(con, config)
        assert rows[0][1] == 1.0
        assert math.isnan(rows[0][2])
        assert math.isnan(rows[1][1]) and math.isnan(rows[1][2])


class TestHashableKey:
    def test_nan_canonicalized(self):
        assert hashable_key(float("nan")) == hashable_key(float("nan"))
        assert hashable_key(float("nan")) != hashable_key(1.0)

    def test_negative_zero_canonicalized(self):
        assert hashable_key(-0.0) == hashable_key(0.0)
        assert repr(hashable_key(-0.0)) == "0.0"

    def test_containers_recurse(self):
        assert hashable_key([1, [2, 3]]) == (1, (2, 3))
        assert hashable_key({"b": 2, "a": 1}) == (("a", 1), ("b", 2))

    def test_unhashable_fallback_includes_type(self):
        class Payload:
            def __init__(self, v):
                self.v = v

            def __eq__(self, other):  # defines __eq__ -> unhashable
                return type(other) is type(self) and other.v == self.v

            def __repr__(self):
                return f"<payload {self.v}>"

        class Impostor(Payload):
            pass

        # Same repr, different type: must not collide.
        assert repr(Payload(1)) == repr(Impostor(1))
        assert hashable_key(Payload(1)) != hashable_key(Impostor(1))
        assert hashable_key(Payload(1)) == hashable_key(Payload(1))


def _reference_factorize(vector):
    """First-seen codes and first rows by a ``hashable_key`` walk."""
    codes, firsts, seen = [], [], {}
    null = object()
    for i in range(len(vector)):
        key = hashable_key(vector.data[i]) if vector.validity[i] else null
        if key not in seen:
            seen[key] = len(seen)
            firsts.append(i)
        codes.append(seen[key])
    return codes, firsts


class TestObjectColumnFactorize:
    """Text cells key themselves; every other object payload still goes
    through ``hashable_key``: the codes equal the reference walk's."""

    class _Unhashable:
        def __init__(self, v):
            self.v = v

        def __eq__(self, other):
            return type(other) is type(self) and other.v == self.v

        def __repr__(self):
            return f"<u {self.v}>"

    CASES = {
        "text": (VARCHAR, ["a", "", None, "b", "a", "", None, "ab", "a"]),
        "all-null": (VARCHAR, [None, None, None]),
        "empty": (VARCHAR, []),
        "one-row": (VARCHAR, [""]),
        "floats-in-objects": (LIST, [float("nan"), -0.0, 0.0, float("nan"),
                                     np.float64("nan"), 1, 1.0, None]),
        "containers": (LIST, [[1, 2], [1, 2], [float("nan")],
                              [float("nan")], {"a": [1]}, {"a": [1]}, (1,)]),
        "unhashable": (LIST, [_Unhashable(1), _Unhashable(1),
                              _Unhashable(2), None, "x"]),
        "non-text-in-varchar": (VARCHAR, ["a", float("nan"), float("nan"),
                                          [1], [1], None, "a"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_codes_match_hashable_key_walk(self, case):
        ltype, cells = self.CASES[case]
        vector = Vector.from_values(ltype, cells)
        codes, firsts = kernels.factorize([vector], len(cells))
        expected_codes, expected_firsts = _reference_factorize(vector)
        assert codes.tolist() == expected_codes
        assert firsts.tolist() == expected_firsts

    def test_null_slot_payload_is_ignored(self):
        data = np.empty(4, dtype=object)
        data[:] = ["a", "stale", "a", [1, 2]]
        vector = Vector(VARCHAR, data, np.array([True, False, True, False]))
        codes, firsts = kernels.factorize([vector], 4)
        assert codes.tolist() == [0, 1, 0, 1]
        assert firsts.tolist() == [0, 1]

    def test_text_cells_skip_hashable_key(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "hashable_key",
                            lambda value: calls.append(value) or value)
        vector = Vector.from_values(VARCHAR, ["a", None, "b", "a"])
        kernels.factorize([vector], 4)
        assert calls == []
        kernels.factorize([Vector.from_values(LIST, ["a", 1.5])], 2)
        assert calls == ["a", 1.5]


class _Span:
    """An unhashable extension payload (defines __eq__, no __hash__)."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __eq__(self, other):
        return (type(other) is _Span and other.lo == self.lo
                and other.hi == self.hi)

    def __repr__(self):
        return f"SPAN({self.lo}, {self.hi})"


class TestExtensionTypeGrouping:
    def test_distinct_and_group_by_on_unhashable_type(self, configure_quack,
                                                       config):
        db = Database()
        span_type = make_user_type("SPAN", _Span)
        ExtensionUtil.register_type(db, "SPAN", span_type)
        con = configure_quack(db.connect(), config)
        con.execute("CREATE TABLE spans(s SPAN)")
        con.database.catalog.get_table("spans").append_rows(
            [(_Span(0, 1),), (_Span(0, 1),), (_Span(2, 3),)]
        )
        assert len(con.execute(
            "SELECT DISTINCT s FROM spans").fetchall()) == 2
        rows = con.execute(
            "SELECT s, count(*) FROM spans GROUP BY s").fetchall()
        _check_path(con, config)
        assert sorted(n for _, n in rows) == [1, 2]


class TestKernelParity:
    QUERIES = [
        "SELECT g, count(*), count(x), sum(x), min(x), max(x), avg(x) "
        "FROM t GROUP BY g",
        "SELECT count(*), sum(g), avg(x) FROM t",
        "SELECT DISTINCT g, s FROM t",
        "SELECT g, x, s FROM t ORDER BY g DESC NULLS LAST, x ASC, s",
        "SELECT g, count(DISTINCT s) FROM t GROUP BY g",
        "SELECT s, string_agg(s, '|') FROM t GROUP BY s",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_results_as_row_engine(self, sql):
        rows = [
            (1, 1.5, "a"), (1, float("nan"), "b"), (2, -0.0, "a"),
            (2, 0.0, None), (None, 4.0, "c"), (1, None, "a"),
            (3, 2.5, "b"), (None, float("nan"), None),
        ]

        def run(factory):
            con = _connect(factory)
            _append(con, rows)
            out = [repr(r) for r in con.execute(sql).fetchall()]
            return out if "ORDER BY" in sql else sorted(out)

        assert run(Database) == run(RowDatabase), sql

    def test_integer_sum_stays_exact(self, configure_quack, config):
        con = configure_quack(Database().connect(), config)
        con.execute("CREATE TABLE big(v BIGINT)")
        con.database.catalog.get_table("big").append_rows(
            [(2**53,), (1,), (1,)]
        )
        # float64 would round 2**53 + 1 back to 2**53.
        assert con.execute("SELECT sum(v) FROM big").fetchall() == [
            (2**53 + 2,)
        ]
        _check_path(con, config)


class TestStableSort:
    def test_equal_keys_preserve_input_order(self, configure_quack, config):
        con = configure_quack(Database().connect(), config)
        con.execute("CREATE TABLE seq(k INTEGER, pos INTEGER)")
        rows = [(i % 3, i) for i in range(50)]
        con.database.catalog.get_table("seq").append_rows(rows)
        out = con.execute("SELECT k, pos FROM seq ORDER BY k").fetchall()
        _check_path(con, config)
        for k in range(3):
            positions = [pos for kk, pos in out if kk == k]
            assert positions == sorted(positions)


class TestExplainAnalyzeCounters:
    def test_kernel_counters_reported(self):
        con = _connect()
        _append(con, [(i % 4, float(i), "s") for i in range(100)])
        plan = con.execute(
            "EXPLAIN ANALYZE SELECT g, sum(x), avg(x) FROM t "
            "GROUP BY g ORDER BY g"
        ).fetchall()[0][0]
        group_line = next(l for l in plan.splitlines() if "GROUP_BY" in l)
        sort_line = next(l for l in plan.splitlines() if "ORDER_BY" in l)
        assert "rows_in=100" in group_line
        assert "kernel=2" in group_line and "fallback=0" in group_line
        assert "kernel=1" in sort_line and "fallback=0" in sort_line

    def test_custom_aggregate_counts_as_fallback(self):
        db = Database()
        ExtensionUtil.register_aggregate_function(db, AggregateFunction(
            name="sumsq",
            arg_types=(DOUBLE,),
            return_type=DOUBLE,
            init=lambda: None,
            step=lambda s, v: v * v if s is None else s + v * v,
            final=lambda s: s,
        ))
        con = db.connect()
        con.execute("CREATE TABLE t(g INTEGER, x DOUBLE, s VARCHAR)")
        _append(con, [(i % 2, float(i), None) for i in range(10)])
        plan = con.execute(
            "EXPLAIN ANALYZE SELECT g, sum(x), sumsq(x) FROM t GROUP BY g"
        ).fetchall()[0][0]
        group_line = next(l for l in plan.splitlines() if "GROUP_BY" in l)
        # Builtin sum runs in the kernel; the extension aggregate has no
        # step_batch and takes the row loop.
        assert "kernel=1" in group_line and "fallback=1" in group_line
        assert con.execute(
            "SELECT sumsq(x) FROM t WHERE g = 0"
        ).fetchall() == [(0.0 + 4.0 + 16.0 + 36.0 + 64.0,)]

    def test_distinct_aggregate_counts_as_kernel(self):
        """DISTINCT is a row selection ahead of the ordinary reducer:
        count keeps its step_batch kernel, list (no kernel) its loop."""
        con = _connect()
        _append(con, [(1, 1.0, "a"), (1, 1.0, "b"), (2, 2.0, "a")])
        plan = con.execute(
            "EXPLAIN ANALYZE SELECT g, count(DISTINCT s) FROM t GROUP BY g"
        ).fetchall()[0][0]
        group_line = next(l for l in plan.splitlines() if "GROUP_BY" in l)
        assert "kernel=1" in group_line and "fallback=0" in group_line
        plan = con.execute(
            "EXPLAIN ANALYZE SELECT g, list(DISTINCT s) FROM t GROUP BY g"
        ).fetchall()[0][0]
        group_line = next(l for l in plan.splitlines() if "GROUP_BY" in l)
        assert "kernel=0" in group_line and "fallback=1" in group_line


# ---------------------------------------------------------------------------
# The dense-code kernels against their row-wise references
# ---------------------------------------------------------------------------

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_FLOATS = [float("nan"), -0.0, 0.0, float("inf"), float("-inf"), 1.5, -2.5]


@st.composite
def _column(draw, count):
    """One key column of ``count`` rows: its kind decides whether the
    dense path can take it, and NULL slots keep whatever payload was
    drawn for them."""
    kind = draw(st.sampled_from(
        ["small", "wide", "extreme", "cap", "bool", "float", "text"]
    ))
    cap = kernels.dense_cap(count)
    if kind == "small":
        base = draw(st.integers(-(2**62), 2**62))
        values = st.integers(base - 3, base + 3)
    elif kind == "wide":
        values = st.integers(-(2**40), 2**40)
    elif kind == "extreme":
        values = st.sampled_from([_INT64_MIN, _INT64_MAX, -1, 0, 1])
    elif kind == "cap":
        # Spans of exactly cap - 1, cap and cap + 1 slots.
        base = draw(st.integers(-5, 5))
        values = st.sampled_from([base, base + cap - 2, base + cap - 1,
                                  base + cap])
    elif kind == "bool":
        values = st.booleans()
    elif kind == "float":
        values = st.sampled_from(_FLOATS)
    else:
        values = st.sampled_from(["a", "b", "", "zz"])
    cells = draw(st.lists(values, min_size=count, max_size=count))
    valid = np.array(draw(st.lists(st.sampled_from([True, True, False]),
                                   min_size=count, max_size=count)),
                     dtype=np.bool_)
    ltype = {"bool": BOOLEAN, "float": DOUBLE, "text": VARCHAR}.get(
        kind, BIGINT)
    dtype = {"bool": np.bool_, "float": np.float64, "text": object}.get(
        kind, np.int64)
    data = np.empty(count, dtype=dtype)
    data[:] = cells
    return Vector(ltype, data, valid)


@st.composite
def _columns(draw, max_columns=3):
    count = draw(st.sampled_from([0, 1, 2, 7, 40]))
    n = draw(st.integers(1, max_columns))
    return count, [draw(_column(count)) for _ in range(n)]


_SPECS = st.tuples(st.booleans(), st.sampled_from([None, True, False]))


def _factorize_reference(vectors, count):
    """The seen-dict walk the executor's verifier runs."""
    codes, firsts, seen = [], [], {}
    rows = zip(*(v.to_list() for v in vectors))
    for i, row in enumerate(rows):
        key = tuple(map(hashable_key, row))
        if key not in seen:
            seen[key] = len(seen)
            firsts.append(i)
        codes.append(seen[key])
    return codes, firsts


class TestDenseKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(_columns())
    def test_factorize_matches_seen_dict(self, case):
        count, vectors = case
        codes, representatives = kernels.factorize(vectors, count)
        assert (codes.tolist(), representatives.tolist()) == \
            _factorize_reference(vectors, count)
        assert codes.dtype == representatives.dtype == np.int64

    @settings(max_examples=300, deadline=None)
    @given(_columns(), st.data())
    def test_sort_permutation_matches_comparator(self, case, data):
        count, vectors = case
        specs = [data.draw(_SPECS) for _ in vectors]
        try:
            perm = kernels.sort_permutation(vectors, specs)
        except kernels.KernelFallback:
            return
        assert perm.tolist() == \
            kernels.comparator_permutation(vectors, specs).tolist()

    @settings(max_examples=300, deadline=None)
    @given(_columns(), st.data())
    def test_top_n_is_a_prefix_of_the_stable_sort(self, case, data):
        count, vectors = case
        specs = [data.draw(_SPECS) for _ in vectors]
        limit = data.draw(st.integers(0, count + 2))
        perm, _ = kernels.order_permutation(vectors, specs, limit)
        assert perm.tolist() == kernels.comparator_permutation(
            vectors, specs).tolist()[:limit]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6),
                              st.integers(-(2**40), 2**40)),
                    max_size=40),
           st.sampled_from([np.add, np.minimum, np.maximum]))
    def test_segment_reduce_matches_group_fold(self, rows, ufunc):
        codes = np.array([g for g, _ in rows], dtype=np.int64)
        values = np.array([v for _, v in rows], dtype=np.int64)
        out, present = kernels.segment_reduce(ufunc, values, codes, 7)
        for group in range(7):
            members = [v for g, v in rows if g == group]
            assert bool(present[group]) == bool(members)
            if members:
                expected = members[0]
                for value in members[1:]:
                    expected = int(ufunc(expected, value))
                assert int(out[group]) == expected

    def test_cap_boundary_picks_the_dense_path(self, monkeypatch):
        """A span of exactly cap slots codes by offset; one more sorts."""
        count = 4
        cap = kernels.dense_cap(count)
        calls = []
        real_unique = np.unique

        def unique(*args, **kwargs):
            calls.append(len(args[0]))
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", unique)
        for top, sorted_ in ((cap - 1, False), (cap, True)):
            vector = Vector(BIGINT, np.array([-3, top - 3, -3, 0]))
            calls.clear()
            codes, reps = kernels.factorize([vector], count)
            assert (codes.tolist(), reps.tolist()) == ([0, 1, 0, 2],
                                                       [0, 1, 3])
            assert bool(calls) == sorted_
        # The NULL slot takes a slot of its own.
        vector = Vector(BIGINT, np.array([0, cap - 1, 7, 7]),
                        np.array([True, True, False, True]))
        calls.clear()
        assert kernels.factorize([vector], count)[0].tolist() == \
            [0, 1, 2, 3]
        assert calls

    def test_int64_extremes_do_not_wrap_into_the_cap(self):
        vector = Vector(BIGINT, np.array([_INT64_MIN, _INT64_MAX,
                                          _INT64_MIN]))
        codes, _ = kernels.factorize([vector], 3)
        assert codes.tolist() == [0, 1, 0]
        perm = kernels.sort_permutation([vector], [(False, None)])
        assert perm.tolist() == [1, 0, 2]


class TestDensePathsEngaged:
    """On relational.kernels-shaped tables, GROUP BY, COUNT(DISTINCT), an
    integer equi-join and ORDER BY never reach a sort-based primitive."""

    QUERIES = [
        "SELECT g, count(*), sum(x), min(x), max(x) FROM fact"
        " WHERE x < 500.0 GROUP BY g ORDER BY g",
        "SELECT d.cat, avg(f.x), count(*) FROM fact f, dim d"
        " WHERE f.k = d.k GROUP BY d.cat ORDER BY d.cat",
        "SELECT id, g, x FROM fact ORDER BY g, x, id",
        "SELECT id, x FROM fact ORDER BY x DESC, id LIMIT 25",
        "SELECT id FROM fact ORDER BY g DESC, id LIMIT 10 OFFSET 5",
        "SELECT g, count(DISTINCT k) FROM fact GROUP BY g ORDER BY g",
        "SELECT DISTINCT s FROM fact",
    ]

    @staticmethod
    def _load(con):
        rng = np.random.default_rng(7)
        rows = [(i, int(rng.integers(100)), int(rng.integers(16)),
                 float(rng.integers(64_000)) / 64.0,
                 f"w{int(rng.integers(50)):02d}") for i in range(2000)]
        con.execute("CREATE TABLE fact(id BIGINT, k BIGINT, g BIGINT,"
                    " x DOUBLE, s VARCHAR)")
        con.database.catalog.get_table("fact").append_rows(rows)
        con.execute("CREATE TABLE dim(k BIGINT, cat BIGINT, name VARCHAR)")
        con.database.catalog.get_table("dim").append_rows(
            [(k, k % 5, f"n{k}") for k in range(100)]
        )
        con.execute("ANALYZE")
        return con

    def test_no_sort_primitive_runs(self, monkeypatch, unverified):
        expected = {
            sql: self._load(RowDatabase().connect()).execute(sql).fetchall()
            for sql in self.QUERIES
        }
        con = self._load(Database().connect())

        def refuse(*args, **kwargs):
            raise AssertionError("sort-based primitive on a dense path")

        class KernelNumpy(types.ModuleType):
            """NumPy as the kernels see it, without ``searchsorted``
            (the table scan's tombstone lookup keeps the real one)."""

            def __getattr__(self, name):
                return refuse if name == "searchsorted" else getattr(np,
                                                                     name)

        for name in ("unique", "lexsort"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(kernels, "np", KernelNumpy("numpy"))
        for sql in self.QUERIES:
            rows = con.execute(sql).fetchall()
            if "ORDER BY" not in sql:
                rows, expected[sql] = sorted(rows), sorted(expected[sql])
            assert [repr(r) for r in rows] == \
                [repr(r) for r in expected[sql]], sql


class TestBooleanOrderBy:
    QUERIES = [
        "SELECT id FROM t ORDER BY b DESC",
        "SELECT id FROM t ORDER BY b DESC NULLS LAST",
        "SELECT id FROM t ORDER BY b, id DESC",
        "SELECT b, count(*) FROM t GROUP BY b ORDER BY b DESC",
    ]

    @pytest.mark.parametrize("config", ["memory", "spill", "attached"])
    def test_rows_equal_the_row_engine(self, configure_quack, config):
        def load(con):
            con.execute("CREATE TABLE t(id BIGINT, b BOOLEAN)")
            con.execute("INSERT INTO t VALUES (1, true), (2, false),"
                        " (3, NULL), (4, true)")
            return con

        con = configure_quack(load(Database().connect()), config)
        reference = load(RowDatabase().connect())
        for sql in self.QUERIES:
            assert con.execute(sql).fetchall() == \
                reference.execute(sql).fetchall(), sql
        assert reference.execute(self.QUERIES[0]).fetchall() == \
            [(3,), (1,), (4,), (2,)]


class TestTopN:
    QUERIES = [
        "SELECT id, v FROM t ORDER BY v LIMIT 3",
        "SELECT id, v FROM t ORDER BY v DESC NULLS LAST, id LIMIT 4",
        "SELECT id, v FROM t ORDER BY v NULLS FIRST LIMIT 2 OFFSET 1",
        "SELECT id, v FROM t ORDER BY v DESC LIMIT 3 OFFSET 2",
        "SELECT id, v FROM t ORDER BY v LIMIT 0",
        "SELECT id, v FROM t ORDER BY v LIMIT 5 OFFSET 100",
        "SELECT id, s FROM t ORDER BY s DESC, id LIMIT 3",
        "SELECT id FROM t ORDER BY id % 3, v LIMIT 4",
    ]

    @pytest.mark.parametrize("config", ["memory", "spill"])
    def test_rows_equal_the_row_engine(self, configure_quack, config):
        nan = float("nan")
        rows = [(1, 2.0, "b"), (2, nan, "a"), (3, None, None),
                (4, -0.0, "c"), (5, 0.0, "a"), (6, float("inf"), "b"),
                (7, 2.0, None), (8, nan, "c"), (9, -1.0, "a")]

        def load(con):
            con.execute("CREATE TABLE t(id BIGINT, v DOUBLE, s VARCHAR)")
            con.database.catalog.get_table("t").append_rows(rows)
            return con

        con = configure_quack(load(Database().connect()), config)
        reference = load(RowDatabase().connect())
        for sql in self.QUERIES:
            assert repr(con.execute(sql).fetchall()) == \
                repr(reference.execute(sql).fetchall()), sql


class TestBigintOverflow:
    """Integer arithmetic and SUM raise one typed error when the exact
    result leaves int64, on both engines."""

    FAILING = [
        "SELECT sum(k) FROM big WHERE g = 1",
        "SELECT g, sum(k) FROM big GROUP BY g",
        "SELECT k * 4 FROM big",
        "SELECT k + k FROM big",
        "SELECT (0 - k) - k - k FROM big",
    ]
    PASSING = [
        ("SELECT g, sum(k) FROM big WHERE g > 1 GROUP BY g ORDER BY g",
         [(2, 2**62), (3, -(2**63))]),
        ("SELECT k * 2 - k FROM big WHERE g = 3", [(-(2**62),)] * 2),
    ]

    @staticmethod
    def _load(con):
        con.execute("CREATE TABLE big(k BIGINT, g BIGINT)")
        con.database.catalog.get_table("big").append_rows([
            (2**62, 1), (2**62, 1),
            # The wrapped running sum leaves int64; the exact one doesn't.
            (2**62, 2), (2**62, 2), (-(2**62), 2),
            (-(2**62), 3), (-(2**62), 3),
        ])
        return con

    @pytest.mark.parametrize("engine", ["memory", "spill", "pgsim"])
    def test_exact_result_or_typed_error(self, configure_quack, engine):
        if engine == "pgsim":
            con = self._load(RowDatabase().connect())
        else:
            con = configure_quack(self._load(Database().connect()), engine)
        for sql in self.FAILING:
            with pytest.raises(ExecutionError, match="BIGINT out of range"):
                con.execute(sql).fetchall()
        for sql, expected in self.PASSING:
            assert con.execute(sql).fetchall() == expected, sql

    @pytest.mark.parametrize("engine", ["memory", "pgsim"])
    def test_cast_and_abs_leave_int64_typed(self, engine):
        """``CAST(<DOUBLE> AS BIGINT)`` past int64, of NaN or of ±inf and
        ``abs(-2**63)`` fail with the same typed error on both engines;
        in range they round like before."""
        con = (RowDatabase() if engine == "pgsim" else Database()).connect()
        con.execute("CREATE TABLE d(x DOUBLE, i BIGINT)")
        table = con.database.catalog.get_table("d")
        for bad in (1e19, -1e19, float("nan"), float("inf"),
                    float("-inf")):
            table.append_rows([(bad, 0)])
            with pytest.raises(ConversionError, match="BIGINT out of range"):
                con.execute("SELECT CAST(x AS BIGINT) FROM d").fetchall()
            con.execute("DELETE FROM d")
        for literal in ("1e19", "'1e19'", "'-1e19'"):
            with pytest.raises(ConversionError, match="BIGINT out of range"):
                con.execute(f"SELECT CAST({literal} AS BIGINT)").fetchall()
        table.append_rows([(2.5, -(2**63)), (-7.6, -5)])
        with pytest.raises(ExecutionError, match="BIGINT out of range"):
            con.execute("SELECT abs(i) FROM d").fetchall()
        assert con.execute(
            "SELECT CAST(x AS BIGINT), abs(i) FROM d WHERE i > -10"
        ).fetchall() == [(-8, 5)]
        assert con.execute(
            "SELECT CAST(x AS BIGINT) FROM d ORDER BY x"
        ).fetchall() == [(-8,), (2,)]

    @pytest.mark.parametrize("engine", ["memory", "pgsim"])
    def test_integer_text_casts_exactly(self, engine):
        """``CAST(<VARCHAR> AS BIGINT|INTEGER)`` of integer text is exact
        past 2**53 and raises the typed error past int64; other numeric
        text still truncates through a double."""
        con = (RowDatabase() if engine == "pgsim" else Database()).connect()
        for target in ("BIGINT", "INTEGER"):
            assert con.execute(
                f"SELECT CAST('9007199254740993' AS {target}), "
                f"CAST(' -9223372036854775808 ' AS {target}), "
                f"CAST('+42' AS {target}), CAST('1.5' AS {target}), "
                f"CAST('-2.5e3' AS {target})"
            ).fetchall() == [(2**53 + 1, -(2**63), 42, 1, -2500)]
            for bad in ("-9223372036854775809", "9223372036854775808"):
                with pytest.raises(ConversionError,
                                   match="BIGINT out of range"):
                    con.execute(
                        f"SELECT CAST('{bad}' AS {target})"
                    ).fetchall()
        con.execute("CREATE TABLE v(t VARCHAR)")
        con.database.catalog.get_table("v").append_rows(
            [("9007199254740993",), ("12",)])
        assert con.execute(
            "SELECT CAST(t AS BIGINT) FROM v"
        ).fetchall() == [(2**53 + 1,), (12,)]

    def test_abs_overflow_warns_nothing(self):
        import warnings

        con = Database().connect()
        con.execute("CREATE TABLE d(i BIGINT)")
        con.database.catalog.get_table("d").append_rows([(-(2**63),)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExecutionError, match="BIGINT out of range"):
                con.execute("SELECT abs(i) FROM d").fetchall()
