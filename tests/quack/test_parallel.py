"""Morsel-driven parallel execution: differential, counters, and the
concurrency-bug regression battery.

Every parallel plan must return exactly the serial answer — the
differential tests run each query at ``workers=1`` and ``workers=4`` on
the same database and compare row lists.  The regression classes pin the
four races the parallel work surfaced: the shared subquery cache, the
``Vector._aux`` lazy memos, contextvar stats propagation into pool
threads, and the mutable ``KERNELS_ENABLED`` flag.

Note on plan shapes: the optimizer only extracts hash-join equi keys
from comma-join ``WHERE`` conjuncts (``FROM a, b WHERE a.k = b.k``);
``JOIN ... ON`` stays a nested-loop join.  The join tests use the comma
form on purpose so the partitioned parallel build is actually exercised.
"""

import threading

import pytest

from repro.quack import Database, QuackError
from repro.quack.kernels import (
    kernels_enabled,
    kernels_snapshot,
    set_kernels_enabled,
)
from repro.quack.parallel import morsel_ranges
from repro.quack.types import DOUBLE
from repro.quack.vector import Vector

ROWS = 10_000  # comfortably above MIN_PARALLEL_ROWS (4096)


@pytest.fixture(scope="module")
def db():
    db = Database()
    con = db.connect()
    con.execute("CREATE TABLE big(i BIGINT, g INTEGER, x DOUBLE, s VARCHAR)")
    # x = i * 0.5 is float-exact, so parallel partial sums match the
    # serial sum bit-for-bit instead of merely within tolerance.
    con.execute(
        "INSERT INTO big "
        "SELECT i, i % 7, i * 0.5, "
        "       CASE WHEN i % 97 = 0 THEN NULL ELSE 'grp' || (i % 5) END "
        f"FROM generate_series(1, {ROWS}) AS t(i)"
    )
    con.execute("CREATE TABLE dim(k INTEGER, name VARCHAR)")
    # 6000 build rows (>= MIN_PARALLEL_ROWS) with NULL keys sprinkled in.
    con.execute(
        "INSERT INTO dim "
        "SELECT CASE WHEN i % 53 = 0 THEN NULL ELSE i % 500 END, "
        "       'name' || i "
        "FROM generate_series(1, 6000) AS t(i)"
    )
    return db


@pytest.fixture(scope="module")
def serial_con(db):
    return db.connect(workers=1)  # explicit: immune to REPRO_THREADS


@pytest.fixture(scope="module")
def par_con(db):
    con = db.connect(workers=4)
    yield con
    con.close()


def both(serial_con, par_con, sql):
    return (
        serial_con.execute(sql).fetchall(),
        par_con.execute(sql).fetchall(),
    )


class TestDifferential:
    """workers=4 must produce exactly the workers=1 answer."""

    @pytest.mark.parametrize("sql", [
        # streaming fragment: scan -> filter -> project
        "SELECT i, x + 1.0, g FROM big WHERE i % 3 = 0 AND x < 4000.0",
        "SELECT i FROM big WHERE s IS NULL",
        # combinable aggregates (count/sum/min/max), grouped and global
        "SELECT g, count(*), sum(i), sum(x), min(x), max(i) "
        "FROM big GROUP BY g ORDER BY g",
        "SELECT count(*), sum(x), min(i), max(x) FROM big",
        "SELECT s, count(*), sum(i) FROM big GROUP BY s ORDER BY s",
        # non-combinable aggregates: concat-then-reduce fallback
        "SELECT g, avg(x), string_agg(s, ',') FROM big "
        "WHERE i <= 5000 GROUP BY g ORDER BY g",
        "SELECT g, count(DISTINCT s) FROM big GROUP BY g ORDER BY g",
        # parallel sort: multi-key, DESC, NULLS FIRST
        "SELECT s, i FROM big ORDER BY s NULLS FIRST, i DESC",
        "SELECT x FROM big ORDER BY x DESC LIMIT 17",
        # DISTINCT stays serial but rides the parallel scan below it
        "SELECT DISTINCT g, s FROM big ORDER BY g, s",
        # hash join, comma form (partitioned parallel build; NULL keys
        # on both sides never match)
        "SELECT count(*), sum(b.i) FROM big b, dim d "
        "WHERE b.g = d.k",
        "SELECT d.name, count(*) FROM big b, dim d "
        "WHERE b.g = d.k AND b.i % 11 = 0 GROUP BY d.name ORDER BY d.name",
        # nested-loop join path (JOIN ... ON keeps the NL plan)
        "SELECT count(*) FROM big b LEFT JOIN dim d ON b.g = d.k "
        "WHERE b.i <= 200",
        # CTE (materialized once, under the lock) fanned into a join
        "WITH hot AS (SELECT g, sum(x) AS tot FROM big GROUP BY g) "
        "SELECT b.g, h.tot FROM big b, hot h "
        "WHERE b.g = h.g AND b.i <= 50 ORDER BY b.i",
        # set operation over two parallel-eligible arms
        "SELECT g FROM big WHERE i <= 5000 "
        "EXCEPT SELECT g FROM big WHERE i > 9990",
    ])
    def test_matches_serial(self, serial_con, par_con, sql):
        serial, par = both(serial_con, par_con, sql)
        assert par == serial

    def test_unordered_multiset(self, serial_con, par_con):
        sql = "SELECT i, x FROM big WHERE g = 3"
        serial, par = both(serial_con, par_con, sql)
        assert sorted(par) == sorted(serial)

    def test_whole_table_group_count(self, par_con):
        rows = par_con.execute(
            "SELECT g, count(*) FROM big GROUP BY g ORDER BY g"
        ).fetchall()
        assert sum(r[1] for r in rows) == ROWS


class TestSubqueryCache:
    """Satellite 1: the shared subquery cache is read/published under a
    lock; a correlated subquery at workers=4 must match serial."""

    def test_correlated_subquery(self, serial_con, par_con):
        sql = (
            "SELECT g, (SELECT count(*) FROM dim d WHERE d.k = b.g) "
            "FROM big b WHERE i <= 4500 ORDER BY i"
        )
        serial, par = both(serial_con, par_con, sql)
        assert par == serial

    def test_uncorrelated_scalar_subquery(self, serial_con, par_con):
        sql = (
            "SELECT i FROM big WHERE x > (SELECT avg(x) FROM big) "
            "ORDER BY i LIMIT 13"
        )
        serial, par = both(serial_con, par_con, sql)
        assert par == serial


class TestCounters:
    """Satellite 3: worker-local stats merge into the query's stats."""

    def test_parallel_counters_fire(self, par_con):
        par_con.execute("SELECT i FROM big WHERE i % 2 = 0")
        counters = par_con.last_query_stats.counters
        assert counters["parallel.batches"] >= 1
        assert counters["parallel.morsels"] >= 2
        assert par_con.last_query_stats.gauges["parallel.workers"] == 4

    def test_partitioned_build_fires(self, par_con):
        par_con.execute(
            "SELECT count(*) FROM big b, dim d WHERE b.g = d.k"
        )
        counters = par_con.last_query_stats.counters
        assert counters["parallel.build_partitions"] >= 2

    def test_aggregate_partials_fire(self, par_con):
        par_con.execute("SELECT g, sum(i) FROM big GROUP BY g")
        assert par_con.last_query_stats.counters["parallel.agg_partials"] >= 1

    def test_counter_parity_with_serial(self, serial_con, par_con):
        """A streaming fragment bumps exactly the serial counters — the
        worker-local stats objects must merge without losing or double
        counting anything; only the parallel.* family (and the
        observability-recording trace./querylog. counters, which track
        timeline events that exist only when morsels scatter) is new."""
        meta = ("parallel.", "trace.", "querylog.")
        sql = "SELECT i + 1, x FROM big WHERE i % 5 = 0"
        serial_con.execute(sql)
        serial = {
            k: v
            for k, v in serial_con.last_query_stats.counters.items()
            if not k.startswith(meta)
        }
        par_con.execute(sql)
        par = dict(par_con.last_query_stats.counters)
        par_only = {
            k: v for k, v in par.items() if k.startswith("parallel.")
        }
        assert par_only  # the parallel path actually ran
        assert {
            k: v for k, v in par.items() if not k.startswith(meta)
        } == serial

    def test_serial_connection_has_no_parallel_counters(self, serial_con):
        serial_con.execute("SELECT i FROM big WHERE i % 2 = 0")
        counters = serial_con.last_query_stats.counters
        assert not any(k.startswith("parallel.") for k in counters)


class TestSetThreads:
    def test_set_threads_switches_modes(self, db):
        con = db.connect(workers=1)
        try:
            con.execute("SET threads = 4")
            con.execute("SELECT i FROM big WHERE i % 2 = 0")
            assert con.last_query_stats.counters["parallel.batches"] >= 1
            con.execute("SET threads TO 1")
            con.execute("SELECT i FROM big WHERE i % 2 = 0")
            assert "parallel.batches" not in con.last_query_stats.counters
        finally:
            con.close()

    def test_results_stable_across_switch(self, db):
        con = db.connect()
        try:
            sql = "SELECT g, sum(i) FROM big GROUP BY g ORDER BY g"
            before = con.execute(sql).fetchall()
            con.execute("SET threads = 8")
            assert con.execute(sql).fetchall() == before
            con.execute("SET threads = 1")
            assert con.execute(sql).fetchall() == before
        finally:
            con.close()

    @pytest.mark.parametrize("sql", [
        "SET threads = 0",
        "SET threads = -2",
        "SET threads = 'lots'",
        "SET threads = NULL",
        "SET nonsense = 4",
    ])
    def test_bad_set_rejected(self, db, sql):
        con = db.connect()
        with pytest.raises(QuackError):
            con.execute(sql)


class TestKernelFlagSnapshot:
    """Satellite 4: each statement snapshots KERNELS_ENABLED once."""

    def test_snapshot_freezes_flag(self):
        assert kernels_enabled() is True
        with kernels_snapshot():
            set_kernels_enabled(False)
            try:
                # the running "query" keeps its snapshot...
                assert kernels_enabled() is True
            finally:
                set_kernels_enabled(True)
        assert kernels_enabled() is True

    def test_flag_churn_during_queries(self, db):
        """Flipping the global mid-flight must never change answers: the
        per-statement snapshot keeps one query on one path."""
        con = db.connect(workers=4)
        expected = con.execute(
            "SELECT g, count(*), sum(i) FROM big GROUP BY g ORDER BY g"
        ).fetchall()
        stop = threading.Event()

        def churn():
            flag = False
            while not stop.is_set():
                set_kernels_enabled(flag)
                flag = not flag

        flipper = threading.Thread(target=churn)
        flipper.start()
        try:
            for _ in range(10):
                got = con.execute(
                    "SELECT g, count(*), sum(i) FROM big "
                    "GROUP BY g ORDER BY g"
                ).fetchall()
                assert got == expected
        finally:
            stop.set()
            flipper.join()
            set_kernels_enabled(True)
            con.close()


class TestAuxPublish:
    """Satellite 2: Vector._aux memos publish atomically — every thread
    sees the same built object, losers discard theirs."""

    def test_concurrent_cached_aux_single_object(self):
        vec = Vector.from_values(DOUBLE, [float(i) for i in range(4096)])
        builds = []
        results = [None] * 8
        barrier = threading.Barrier(8)

        def builder(v):
            token = object()
            builds.append(token)
            return token

        def hit(slot):
            barrier.wait()
            results[slot] = vec.cached_aux("view", builder)

        threads = [
            threading.Thread(target=hit, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Several threads may have *built*, but exactly one object was
        # published and everyone got it.
        assert len(set(map(id, results))) == 1
        assert results[0] in builds
        # Later hits keep returning the published object.
        assert vec.cached_aux("view", builder) is results[0]


class TestSealRace:
    """ColumnData.seal under concurrent readers: the tail must seal into
    exactly one segment, never two."""

    def test_concurrent_seal_single_segment(self, db):
        con = db.connect()
        con.execute("CREATE TABLE sealme(a BIGINT)")
        table = db.catalog.get_table("sealme")
        try:
            # 1000 rows < STANDARD_VECTOR_SIZE: everything stays in the
            # unsealed tail until a reader forces a seal.
            table.append_rows([(i,) for i in range(1000)])
            column = table._columns[0]
            barrier = threading.Barrier(8)

            def reader():
                barrier.wait()
                column.seal()

            threads = [
                threading.Thread(target=reader) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(column.segments) == 1
            assert len(column) == 1000
            assert con.execute(
                "SELECT count(*), sum(a) FROM sealme"
            ).fetchall() == [(1000, sum(range(1000)))]
        finally:
            con.execute("DROP TABLE sealme")


class TestSoak:
    """Client threads sharing one workers=4 connection: every query must
    return its own correct answer (stats are contextvar-ambient, so the
    interleaved executions never cross-contaminate)."""

    def test_shared_connection_soak(self, db):
        con = db.connect(workers=4)
        errors = []
        cases = [
            ("SELECT count(*) FROM big WHERE i % 3 = 0", [(ROWS // 3,)]),
            ("SELECT g, count(*) FROM big GROUP BY g ORDER BY g",
             None),  # filled below
            ("SELECT count(*) FROM big b, dim d WHERE b.g = d.k",
             None),
        ]
        cases = [
            (sql, expected if expected is not None
             else con.execute(sql).fetchall())
            for sql, expected in cases
        ]

        def client(case_index):
            sql, expected = cases[case_index % len(cases)]
            try:
                for _ in range(6):
                    got = con.execute(sql).fetchall()
                    if got != expected:
                        errors.append((sql, got))
                        return
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append((sql, repr(exc)))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        con.close()
        assert errors == []


class TestMorselRanges:
    def test_covers_input_exactly(self):
        ranges = morsel_ranges(10_000, workers=4, min_rows=1024)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 10_000
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start
        assert 2 <= len(ranges) <= 8

    def test_small_input_single_range(self):
        assert morsel_ranges(100, workers=4, min_rows=1024) == [(0, 100)]

    def test_min_rows_caps_split(self):
        ranges = morsel_ranges(2048, workers=4, min_rows=1024)
        assert len(ranges) == 2
        assert all(end - start >= 1024 for start, end in ranges)
