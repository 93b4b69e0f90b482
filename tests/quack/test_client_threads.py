"""Client threads sharing one database: the races the remaining locks
exist for.

quack executes each statement serially on the calling thread, but two
client threads may run statements against one ``Database`` at once.
They share each column's segments — sealed from the tail, or decoded
from an attached file, on first touch — and the ``Vector._aux`` views
built on them, which is what the one column lock ``ColumnData._lock``
and ``_AUX_PUBLISH_LOCK`` guard.
"""

import sys
import threading

import pytest

from repro.observability import QueryStatistics, activate
from repro.quack import Database, QuackError
from repro.quack.types import DOUBLE
from repro.quack.vector import Vector

ROWS = 10_000


@pytest.fixture(scope="module")
def db():
    db = Database()
    con = db.connect()
    con.execute("CREATE TABLE big(i BIGINT, g INTEGER, x DOUBLE, s VARCHAR)")
    con.execute(
        "INSERT INTO big "
        "SELECT i, i % 7, i * 0.5, "
        "       CASE WHEN i % 97 = 0 THEN NULL ELSE 'grp' || (i % 5) END "
        f"FROM generate_series(1, {ROWS}) AS t(i)"
    )
    con.execute("CREATE TABLE dim(k INTEGER, name VARCHAR)")
    con.execute(
        "INSERT INTO dim "
        "SELECT CASE WHEN i % 53 = 0 THEN NULL ELSE i % 500 END, "
        "       'name' || i "
        "FROM generate_series(1, 6000) AS t(i)"
    )
    return db


def test_set_threads_accepts_only_one():
    """``SET threads`` keeps DuckDB's spelling with one legal value."""
    con = Database().connect()
    con.execute("SET threads = 1")
    con.execute("SET threads TO 1")
    assert con.execute("SHOW threads").fetchall() == [(1,)]


@pytest.mark.parametrize("value", ["2", "4", "0", "-2", "'lots'", "NULL"])
def test_bad_set_threads_rejected(value):
    con = Database().connect()
    with pytest.raises(QuackError,
                       match="quack executes serially: threads must be 1"):
        con.execute(f"SET threads = {value}")
    assert con.execute("SHOW threads").fetchall() == [(1,)]


@pytest.mark.parametrize("sql", ["SET workers = 1", "SHOW workers",
                                 "SET nonsense = 4"])
def test_unknown_setting_rejected(sql):
    with pytest.raises(QuackError, match="unknown setting"):
        Database().connect().execute(sql)


class TestAuxPublish:
    """Vector._aux memos publish atomically — every thread sees the same
    built object, losers discard theirs."""

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
    """ColumnData.seal under concurrent readers: under the column lock
    the tail seals into exactly one segment, never two."""

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


class TestDecodeRace:
    """Concurrent first touches of stored segments: under the column
    lock each decodes once, and every reader gets the same vector."""

    def test_concurrent_decode_single_vector(self, db, tmp_path):
        path = tmp_path / "big.quackdb"
        db.connect().execute(f"CHECKPOINT '{path}'")
        for _ in range(3):  # a fresh attach each round, nothing decoded
            fresh = Database()
            fresh.connect().execute(f"ATTACH '{path}'")
            segments = [(column, i)
                        for column in fresh.catalog.get_table("big")._columns
                        for i in range(len(column.segments))]
            assert len(segments) > 4
            assert all(column.segments[i].vector is None
                       for column, i in segments)
            stats = QueryStatistics()
            results = [None] * 8
            barrier = threading.Barrier(8)

            def reader(slot):
                barrier.wait(timeout=30)
                with activate(stats):
                    results[slot] = [column.segment_vector(i)
                                     for column, i in segments]

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(8)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for k, (column, i) in enumerate(segments):
                assert {id(vectors[k]) for vectors in results} == \
                    {id(column.segments[i].vector)}
            assert stats.counter("storage.segments_decoded") == len(segments)


class TestSoak:
    """Client threads sharing one connection: every query must return its
    own correct answer (stats are contextvar-ambient, so the interleaved
    executions never cross-contaminate)."""

    def test_shared_connection_soak(self, db):
        con = db.connect()
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
        assert errors == []
