"""Differential join-semantics tests for the vectorized join pipeline.

The quack hash join builds and probes through NumPy kernels
(``repro.quack.kernels.JoinBuild``) and the index nested-loop join
batches its probes through ``TableIndex.probe_batch``.  These tests pin
the join semantics against the pgsim row engine: NULL equi-keys never
match, duplicate build keys fan out (in memory and through the spilling
hash join), LEFT JOIN padding with and without residual predicates, NaN
join keys match each other, ``-0.0`` equals ``0.0``, keys of two
physical types match by Python equality, and the EXPLAIN ANALYZE
counters report kernel use.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core
from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.executor import _hash_join_dict_build, _hash_join_dict_probe
from repro.quack.kernels import JoinBuild, dense_cap
from repro.quack.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR
from repro.quack.vector import Vector


_L_DDL = "CREATE TABLE l(k INTEGER, v INTEGER)"
_R_DDL = "CREATE TABLE r(k INTEGER, w VARCHAR)"


def _load(factory, left_rows, right_rows, left_ddl=_L_DDL, right_ddl=_R_DDL):
    con = factory().connect()
    con.execute(left_ddl)
    con.execute(right_ddl)
    if left_rows:
        con.database.catalog.get_table("l").append_rows(left_rows)
    if right_rows:
        con.database.catalog.get_table("r").append_rows(right_rows)
    return con


def _agree(left_rows, right_rows, sql, left_ddl=_L_DDL, right_ddl=_R_DDL,
           config="memory", configure=None):
    """Both engines must return the same multiset of rows; the quack side
    runs in executor configuration ``config`` (see ``configure_quack``)."""
    con = _load(Database, left_rows, right_rows, left_ddl, right_ddl)
    if configure is not None:
        con = configure(con, config)
    duck = con.execute(sql).fetchall()
    if "spill" in config and left_rows and right_rows:
        # an inner equi-join partitions both sides to disk
        assert con.last_query_stats.counter("storage.spilled_joins") == 1
    base = _load(RowDatabase, left_rows, right_rows,
                 left_ddl, right_ddl).execute(sql).fetchall()
    assert Counter(map(repr, duck)) == Counter(map(repr, base)), sql
    return duck


class TestHashJoinSemantics:
    """WHERE-form equi-joins plan as HASH_JOIN (optimizer extraction),
    joined in memory and through the Grace-partitioned spilling join."""

    @pytest.fixture(params=["memory", "spill"])
    def quack(self, request, configure_quack):
        return {"config": request.param, "configure": configure_quack}

    def test_null_keys_never_match(self, quack):
        rows = _agree(
            [(1, 10), (None, 20), (2, 30), (None, 40)],
            [(1, "a"), (None, "b"), (None, "c"), (3, "d")],
            "SELECT l.k, l.v, r.w FROM l, r WHERE l.k = r.k",
            **quack,
        )
        # NULL = NULL is not a match: only the k=1 pair survives.
        assert rows == [(1, 10, "a")]

    def test_duplicate_build_keys_fan_out(self, quack):
        rows = _agree(
            [(1, 10), (2, 20), (1, 30)],
            [(1, "a"), (1, "b"), (1, "c"), (2, "d")],
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k",
            **quack,
        )
        # Each k=1 probe row matches all three k=1 build rows.
        assert len(rows) == 7

    def test_multi_column_keys(self, quack):
        _agree(
            [(1, 10), (1, 20), (2, 10), (None, 10), (2, None)],
            [(1, "10"), (2, "10"), (1, "20"), (None, "10")],
            "SELECT l.k, l.v, r.w FROM l, r "
            "WHERE l.k = r.k AND l.v = CAST(r.w AS INTEGER)",
            **quack,
        )

    def test_varchar_keys(self, quack):
        _agree(
            [("x", 1), ("y", 2), (None, 3), ("z", 4), ("x", 5)],
            [("x", "a"), ("z", "b"), (None, "c"), ("w", "d")],
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k",
            left_ddl="CREATE TABLE l(k VARCHAR, v INTEGER)",
            right_ddl="CREATE TABLE r(k VARCHAR, w VARCHAR)",
            **quack,
        )

    def test_nan_keys_match_each_other(self, quack):
        nan = float("nan")
        rows = _agree(
            [(nan, 1), (2.5, 2), (nan, 3), (None, 4)],
            [(nan, "a"), (2.5, "b"), (None, "c")],
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k",
            left_ddl="CREATE TABLE l(k DOUBLE, v INTEGER)",
            right_ddl="CREATE TABLE r(k DOUBLE, w VARCHAR)",
            **quack,
        )
        # Both engines canonicalize NaN, so NaN keys join (like GROUP BY).
        assert sorted(rows) == [(1, "a"), (2, "b"), (3, "a")]

    def test_negative_zero_matches_zero(self, quack):
        rows = _agree(
            [(-0.0, 1), (0.0, 2)],
            [(0.0, "a"), (-0.0, "b")],
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k",
            left_ddl="CREATE TABLE l(k DOUBLE, v INTEGER)",
            right_ddl="CREATE TABLE r(k DOUBLE, w VARCHAR)",
            **quack,
        )
        assert len(rows) == 4

    def test_mixed_type_keys(self, quack):
        # BIGINT probe keys against a DOUBLE build side compare as Python
        # numbers: 1 = 1.0 and 0 = -0.0 = 0.0, NaN and NULL match no
        # integer, and 2**53 + 1 does not equal 2.0**53.
        big = 2 ** 53
        rows = _agree(
            [(1, 1), (0, 2), (None, 3), (big + 1, 4), (big, 5)]
            + [(100 + i, 10 + i) for i in range(8)],
            [(1.0, "a"), (float("nan"), "b"), (-0.0, "c"), (0.0, "d"),
             (None, "e"), (2.0 ** 53, "f")],
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k",
            left_ddl="CREATE TABLE l(k BIGINT, v INTEGER)",
            right_ddl="CREATE TABLE r(k DOUBLE, w VARCHAR)",
            **quack,
        )
        assert sorted(rows) == [(1, "a"), (2, "c"), (2, "d"), (5, "f")]

    def test_empty_build_side(self, quack):
        rows = _agree(
            [(1, 10), (2, 20)],
            [],
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k",
            **quack,
        )
        assert rows == []

    def test_residual_predicate_on_top_of_keys(self, quack):
        _agree(
            [(1, 10), (1, 20), (2, 30)],
            [(1, "a"), (1, "bbb"), (2, "cc")],
            "SELECT l.v, r.w FROM l, r "
            "WHERE l.k = r.k AND l.v < 15 AND r.w <> 'a'",
            **quack,
        )

    def test_many_chunks(self, quack):
        # Cross several STANDARD_VECTOR_SIZE boundaries on the probe side.
        left = [(i % 500, i) for i in range(5000)]
        right = [(i, str(i)) for i in range(400)]
        rows = _agree(
            left, right, "SELECT l.k, l.v, r.w FROM l, r WHERE l.k = r.k",
            **quack,
        )
        assert len(rows) == sum(1 for k, _ in left if k < 400)


class TestLeftJoinPadding:
    """LEFT JOIN plans as a nested-loop join; padding must use the
    matched-row masks identically in both engines, over in-memory and
    over attached tables."""

    @pytest.fixture(params=["memory", "attached"])
    def quack(self, request, configure_quack):
        return {"config": request.param, "configure": configure_quack}

    def test_padding_without_matches(self, quack):
        rows = _agree(
            [(1, 10), (None, 20)],
            [(7, "a")],
            "SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.k",
            **quack,
        )
        assert sorted(rows, key=repr) == sorted(
            [(1, 10, None), (None, 20, None)], key=repr
        )

    def test_padding_with_partial_matches(self, quack):
        rows = _agree(
            [(1, 10), (2, 20), (3, 30)],
            [(1, "a"), (1, "b"), (3, "c")],
            "SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.k",
            **quack,
        )
        assert len(rows) == 4  # 1 twice, 3 once, 2 padded

    def test_padding_with_residual_predicate(self, quack):
        # The residual disqualifies some equal-key pairs; those left rows
        # must still appear exactly once, padded.
        rows = _agree(
            [(1, 10), (2, 20), (3, 30)],
            [(1, "a"), (2, "zz"), (3, "c")],
            "SELECT l.k, l.v, r.w FROM l LEFT JOIN r "
            "ON l.k = r.k AND r.w < 'm'",
            **quack,
        )
        assert (2, 20, None) in rows and len(rows) == 3

    def test_padding_empty_right(self, quack):
        rows = _agree(
            [(1, 10), (2, 20)],
            [],
            "SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.k",
            **quack,
        )
        assert rows == [(1, 10, None), (2, 20, None)]


class TestJoinBuildKernel:
    """Unit tests for the JoinBuild factorize/probe kernel itself."""

    @staticmethod
    def _pairs(build_keys, probe_keys, ltypes):
        def columns(keys):
            if keys:
                return list(zip(*keys))
            return [[] for _ in ltypes]

        build_vectors = [
            Vector.from_values(lt, col)
            for lt, col in zip(ltypes, columns(build_keys))
        ]
        probe_vectors = [
            Vector.from_values(lt, col)
            for lt, col in zip(ltypes, columns(probe_keys))
        ]
        build = JoinBuild(build_vectors, ltypes)
        li, ri = build.probe(probe_vectors, len(probe_keys))
        return sorted(zip(li.tolist(), ri.tolist()))

    @staticmethod
    def _expected(build_keys, probe_keys):
        def canon(key):
            out = []
            for part in key:
                if isinstance(part, float) and math.isnan(part):
                    part = "NaN"
                elif isinstance(part, float):
                    part = part + 0.0
                out.append(part)
            return tuple(out)

        pairs = []
        for p, pk in enumerate(probe_keys):
            if any(part is None for part in pk):
                continue
            for b, bk in enumerate(build_keys):
                if any(part is None for part in bk):
                    continue
                if canon(pk) == canon(bk):
                    pairs.append((p, b))
        return sorted(pairs)

    def test_matches_brute_force_bigint(self):
        build = [(1,), (2,), (1,), (None,), (3,)]
        probe = [(1,), (None,), (3,), (4,), (1,)]
        assert self._pairs(build, probe, [BIGINT]) == self._expected(
            build, probe
        )

    def test_matches_brute_force_double_nan(self):
        nan = float("nan")
        build = [(nan,), (0.0,), (-0.0,), (None,), (2.5,)]
        probe = [(nan,), (-0.0,), (2.5,), (None,), (7.0,)]
        assert self._pairs(build, probe, [DOUBLE]) == self._expected(
            build, probe
        )

    def test_matches_brute_force_multi_column(self):
        build = [(1, "x"), (1, "y"), (2, "x"), (None, "x"), (2, None)]
        probe = [(1, "x"), (2, "x"), (1, "z"), (None, "x"), (1, "y")]
        assert self._pairs(
            build, probe, [BIGINT, VARCHAR]
        ) == self._expected(build, probe)

    def test_probe_key_absent_from_build(self):
        assert self._pairs([(1,)], [(99,)], [BIGINT]) == []

    def test_empty_build(self):
        assert self._pairs([], [(1,), (2,)], [BIGINT]) == []

    def test_probe_physical_mismatch_matches_dict_reference(self):
        nan = float("nan")
        build = [Vector.from_values(BIGINT, [1, 2, None, 0, 2 ** 53 + 1, 1])]
        probe = [Vector.from_values(
            DOUBLE, [1.0, nan, None, -0.0, 2.0 ** 53, 2.0, 3.5]
        )]
        li, ri = JoinBuild(build, [DOUBLE]).probe(probe, 7)
        expected = _hash_join_dict_probe(_hash_join_dict_build(build, 6),
                                         probe, 7)
        assert (li.tolist(), ri.tolist()) == (
            expected[0].tolist(), expected[1].tolist()
        )
        assert list(zip(li.tolist(), ri.tolist())) == [
            (0, 0), (0, 5), (3, 3), (5, 1)
        ]


@st.composite
def _key_columns(draw):
    """Build and probe key columns of one shared value domain per key;
    NULL slots keep the payload drawn for them."""
    build_count = draw(st.sampled_from([0, 1, 5, 30]))
    probe_count = draw(st.sampled_from([0, 1, 6, 30]))
    cap = dense_cap(build_count)
    build, probe = [], []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(
            ["small", "wide", "extreme", "cap", "bool", "float", "text"]
        ))
        if kind == "small":
            base = draw(st.integers(-(2**62), 2**62))
            values = st.integers(base - 3, base + 3)
        elif kind == "wide":
            values = st.sampled_from([-(2**40), -7, 0, 9, 2**40])
        elif kind == "extreme":
            values = st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 1])
        elif kind == "cap":
            values = st.sampled_from([0, cap - 1, cap, -cap])
        elif kind == "bool":
            values = st.booleans()
        elif kind == "float":
            values = st.sampled_from([math.nan, -0.0, 0.0, math.inf, 2.5])
        else:
            values = st.sampled_from(["a", "b", ""])
        ltype = {"bool": BOOLEAN, "float": DOUBLE, "text": VARCHAR}.get(
            kind, BIGINT)
        dtype = {"bool": np.bool_, "float": np.float64,
                 "text": object}.get(kind, np.int64)
        for side, count in ((build, build_count), (probe, probe_count)):
            data = np.empty(count, dtype=dtype)
            data[:] = draw(st.lists(values, min_size=count, max_size=count))
            valid = draw(st.lists(st.sampled_from([True, True, False]),
                                  min_size=count, max_size=count))
            side.append(Vector(ltype, data, np.array(valid, dtype=bool)))
    return build, probe


@settings(max_examples=300, deadline=None)
@given(_key_columns())
def test_join_build_matches_dict_reference(case):
    build, probe = case
    probe_count = len(probe[0])
    pairs = JoinBuild(build, [v.ltype for v in probe]).probe(probe,
                                                             probe_count)
    expected = _hash_join_dict_probe(
        _hash_join_dict_build(build, len(build[0])), probe, probe_count
    )
    assert (pairs[0].tolist(), pairs[1].tolist()) == \
        (expected[0].tolist(), expected[1].tolist())


class TestIndexJoinBatch:
    """TRTREE index nested-loop joins must agree with a plan with no
    index."""

    @staticmethod
    def _boxes(n, step):
        return [
            (i, f"STBOX X(({i * step},{i * step}),"
                f"({i * step + 5},{i * step + 5}))")
            for i in range(n)
        ]

    def _connect(self, with_index):
        con = core.connect()
        con.execute("CREATE TABLE probe(id INTEGER, box STBOX)")
        con.execute("CREATE TABLE build(id INTEGER, box STBOX)")
        if with_index:
            con.execute("CREATE INDEX bidx ON build USING TRTREE(box)")
        for table, rows in (
            ("probe", self._boxes(40, 3.0)),
            ("build", self._boxes(250, 0.5)),
        ):
            con.database.catalog.get_table(table).append_rows(
                [
                    (i, con.execute(
                        f"SELECT STBOX('{text}')"
                    ).scalar())
                    for i, text in rows
                ]
            )
        return con

    SQL = ("SELECT p.id, b.id FROM probe p, build b "
           "WHERE p.box && b.box ORDER BY 1, 2")

    def test_batched_probe_agrees_with_scan(self):
        batched = self._connect(with_index=True).execute(self.SQL).fetchall()
        unindexed = self._connect(with_index=False).execute(
            self.SQL
        ).fetchall()
        assert batched == unindexed
        assert len(batched) > 0

    def test_batch_counters_visible(self, unverified):
        con = self._connect(with_index=True)
        report = con.explain_analyze(self.SQL, format="json")
        counters = report["counters"]
        assert counters.get("executor.join_index_batches", 0) >= 1
        assert counters.get("rtree.batch_searches", 0) >= 1
        assert counters.get("rtree.batch_probes", 0) >= 1
        # The TRTREE access method and the R-tree it wraps count the
        # same batched searches from either side of the call.
        assert counters["index.trtree.batches"] == \
            counters["rtree.batch_searches"]
        assert counters["index.trtree.batch_probes"] == \
            counters["rtree.batch_probes"]
        assert counters["rtree.batch_leaf_hits"] == \
            counters["index.trtree.candidates"]
        assert counters["rtree.batch_nodes_visited"] >= \
            counters["rtree.batch_searches"]


class TestSpatialRTreeIndexJoin:
    """DuckDB-Spatial's RTREE is the same box index as TRTREE: its index
    nested-loop join probes a chunk in one ``probe_batch`` traversal and
    must return pgsim's rows.  No SQL operator plans an RTREE join, so
    the test points the nested-loop join of the FROM-order plan (``pts``
    probing, ``zones`` built) at the index."""

    SQL = ("SELECT p.id, z.id FROM pts p, zones z"
           " WHERE ST_Intersects(z.g, p.g)")
    LEFT_SQL = ("SELECT p.id, z.id FROM pts p LEFT JOIN zones z"
                " ON ST_Intersects(z.g, p.g)")

    @staticmethod
    def _fill(con):
        # Points off every rectangle edge: a candidate from the bounding
        # boxes is then always a true intersection, so the join without
        # its residual recheck still has pgsim's answer.
        con.execute("CREATE TABLE pts(id INTEGER, g GEOMETRY)")
        con.execute("CREATE TABLE zones(id INTEGER, g GEOMETRY)")
        for i in range(40):
            con.execute(f"INSERT INTO pts VALUES ({i}, ST_GeomFromText("
                        f"'POINT({i % 25 + 0.5} {i % 7 + 0.5})'))")
        for i in range(12):
            x = 2 * i
            con.execute(
                f"INSERT INTO zones VALUES ({i}, ST_GeomFromText("
                f"'POLYGON(({x} 0, {x + 3} 0, {x + 3} 4, {x} 4, {x} 0))'))"
            )
        return con

    @pytest.mark.parametrize("join_type", ["inner", "left"])
    @pytest.mark.parametrize("residual", [True, False],
                             ids=["residual", "no-residual"])
    def test_matches_row_engine(self, join_type, residual, from_order):
        from repro.observability import QueryStatistics, activate
        from repro.quack.executor import ExecutionContext, execute_plan
        from repro.quack.plan import LogicalJoin
        from repro.quack.sql.parser import parse_sql

        con = self._fill(core.connect())
        con.execute("CREATE INDEX zidx ON zones USING RTREE(g)")
        with from_order():
            plan = con._plan(parse_sql(self.SQL)[0])
        join = plan
        while not isinstance(join, LogicalJoin):
            join = join.children()[0]
        assert join.index_probe is None
        assert join.residual.name.lower() == "st_intersects"
        index = con.database.catalog.indexes["zidx"]
        join.index_probe = (index, "st_intersects", join.residual.args[1])
        join.join_type = join_type
        if not residual:
            join.residual = None
        stats = QueryStatistics()
        with activate(stats):
            rows = [row for chunk in execute_plan(plan, ExecutionContext())
                    for row in chunk.rows()]
        baseline = self._fill(core.connect_baseline()).execute(
            self.SQL if join_type == "inner" else self.LEFT_SQL
        ).fetchall()
        assert Counter(rows) == Counter(baseline)
        assert any(z is None for _, z in rows) == (join_type == "left")
        assert stats.counter("executor.join_index_batches") >= 1


class TestJoinCounters:
    """Acceptance: hash-join kernel counters in EXPLAIN ANALYZE, both
    text and JSON formats."""

    SQL = "SELECT l.v, r.w FROM l, r WHERE l.k = r.k"

    def _con(self):
        return _load(
            Database,
            [(i % 5, i) for i in range(20)],
            [(i, str(i)) for i in range(5)],
        )

    def test_text_format_shows_kernel_stats(self):
        con = self._con()
        plan = con.execute("EXPLAIN ANALYZE " + self.SQL).fetchall()[0][0]
        join_line = next(
            line for line in plan.splitlines() if "HASH_JOIN" in line
        )
        assert "kernel=" in join_line and "fallback=" in join_line
        assert "executor.join_kernel_probes" in plan

    def test_json_format_counts_kernel_use(self):
        report = self._con().explain_analyze(self.SQL, format="json")
        counters = report["counters"]
        assert counters["executor.join_kernel_builds"] == 1
        assert counters["executor.join_kernel_probes"] >= 1
        assert counters.get("quack.fallback_ops", 0) == 0
        assert counters["executor.join_build_rows"] == 5
        assert counters["executor.join_probe_rows"] == 20

    def test_json_format_counts_mixed_type_kernel_use(self):
        # BIGINT probe keys against a DOUBLE build side: the kernel codes
        # both through hashable_key and answers every probe chunk.
        left = [(i % 5, i) for i in range(20)]
        right = [(float(i), str(i)) for i in range(5)]
        right_ddl = "CREATE TABLE r(k DOUBLE, w VARCHAR)"
        rows = _agree(left, right, self.SQL, right_ddl=right_ddl)
        con = _load(Database, left, right, right_ddl=right_ddl)
        report = con.explain_analyze(self.SQL, format="json")
        counters = report["counters"]
        assert counters["executor.join_kernel_builds"] == 1
        assert counters["executor.join_kernel_probes"] >= 1
        assert counters.get("quack.fallback_ops", 0) == 0
        assert sorted(con.execute(self.SQL).fetchall()) == sorted(rows)


class TestStboxPredicateKernels:
    """Columnar stbox predicate kernels must agree with the pgsim
    baseline engine."""

    @staticmethod
    def _fill(con, n=120):
        con.execute("CREATE TABLE g(id INTEGER, box STBOX)")
        boxes = []
        for i in range(n):
            x = (i * 7) % 50
            t0 = 1 + (i % 9)
            boxes.append(
                (i, f"STBOX XT(((${x}$,{x}),({x + 4},{x + 4})),"
                    f"[2020-01-0{t0}, 2020-01-0{min(t0 + 1, 9)}])"
                    .replace("$", ""))
            )
        for i, text in boxes:
            con.execute(
                f"INSERT INTO g VALUES ({i}, STBOX('{text}'))"
            )

    @pytest.mark.parametrize("op", ["&&", "@>", "<@"])
    def test_kernel_matches_baseline(self, op):
        probe = ("STBOX XT(((10,10),(30,30)),"
                 "[2020-01-03, 2020-01-05])")
        sql = (f"SELECT id FROM g WHERE box {op} "
               f"STBOX('{probe}') ORDER BY id")
        con = core.connect()
        self._fill(con)
        baseline = core.connect_baseline()
        self._fill(baseline)
        assert con.execute(sql).fetchall() == baseline.execute(
            sql
        ).fetchall()

    def test_bbox_counters_recorded(self):
        con = core.connect()
        self._fill(con)
        report = con.explain_analyze(
            "SELECT count(*) FROM g WHERE box && "
            "STBOX('STBOX X((10,10),(30,30))')",
            format="json",
        )
        counters = report["counters"]
        assert counters.get("quack.function_batch_ops", 0) >= 1
        assert counters.get("quack.bbox_rows_decided", 0) >= 1
