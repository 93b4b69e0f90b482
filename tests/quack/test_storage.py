"""Columnar storage internals: segments, gather, tombstones, updates."""

import numpy as np
import pytest

from repro.quack.catalog import ColumnData, Table
from repro.quack.errors import CatalogError, ConversionError, ExecutionError
from repro.quack.types import BIGINT, VARCHAR
from repro.quack.vector import STANDARD_VECTOR_SIZE


@pytest.fixture(params=["memory", "attached"])
def column_of(request, tmp_path):
    """``column_of(ltype, values)``: a column holding ``values``, appended
    in memory or attached from the file it was checkpointed to (every
    segment then stored, decoded on first touch)."""

    def make(ltype, values):
        if request.param == "memory":
            col = ColumnData(ltype)
            col.extend(list(values))
            return col
        path = tmp_path / "column.quackdb"
        con = Database().connect()
        con.execute(f"CREATE TABLE c(v {ltype.name})")
        con.database.catalog.get_table("c").append_rows(
            [(v,) for v in values])
        con.execute(f"CHECKPOINT '{path}'")
        fresh = Database().connect()
        fresh.execute(f"ATTACH '{path}'")
        col = fresh.database.catalog.get_table("c")._columns[0]
        assert all(s.stored is not None for s in col.segments)
        return col

    return make


class TestColumnData:
    """One column store: the same behaviour whether the segments were
    appended in memory or attached from a file."""

    def test_length_and_chunks(self, column_of):
        col = column_of(BIGINT, range(10))
        assert len(col) == 10
        assert [v for c in col.chunks() for v in c.to_list()] == \
            list(range(10))

    def test_appends_seal_at_vector_size(self, column_of):
        col = column_of(BIGINT, [0, 1, 2])
        for i in range(STANDARD_VECTOR_SIZE + 5):
            col.extend((i,))
        assert len(col) == STANDARD_VECTOR_SIZE + 8
        assert STANDARD_VECTOR_SIZE in [s.rows for s in col.segments]
        assert [v for c in col.chunks() for v in c.to_list()] == \
            [0, 1, 2] + list(range(STANDARD_VECTOR_SIZE + 5))

    def test_nulls_tracked(self, column_of):
        col = column_of(VARCHAR, ["a", None])
        assert next(col.chunks()).to_list() == ["a", None]

    def test_gather_across_segments(self, column_of):
        n = STANDARD_VECTOR_SIZE * 2 + 10
        col = column_of(BIGINT, range(n))
        picks = [n - 1, 0, STANDARD_VECTOR_SIZE, 5]
        assert col.gather(np.array(picks, dtype=np.int64)).to_list() == picks

    def test_gather_out_of_range(self, column_of):
        col = column_of(BIGINT, [1])
        with pytest.raises(ExecutionError):
            col.gather(np.array([5], dtype=np.int64))

    def test_update_replaces_only_the_touched_segment(self, column_of):
        n = STANDARD_VECTOR_SIZE * 2 + 10
        col = column_of(BIGINT, range(n))
        col.seal()
        before = list(col.segments)
        views = before[1].vector
        col.update([3, 1], [None, 10])
        assert col.gather(np.arange(5)).to_list() == [0, 10, 2, None, 4]
        assert col.segments[0] is not before[0]
        assert col.segments[0].stored is None
        assert col.segments[1:] == before[1:]
        assert before[1].vector is views  # not decoded by the update

    def test_update_converts_before_it_replaces(self, column_of):
        col = column_of(BIGINT, range(STANDARD_VECTOR_SIZE + 1))
        col.seal()
        before = list(col.segments)
        with pytest.raises(ConversionError):
            col.update([0, STANDARD_VECTOR_SIZE], [7, "x"])
        assert col.segments == before
        assert col.gather(np.array([0])).to_list() == [0]


class TestTable:
    def _table(self):
        return Table("t", [("a", BIGINT), ("b", VARCHAR)])

    def test_append_and_scan(self):
        table = self._table()
        table.append_rows([(1, "x"), (2, "y")])
        rows = []
        for chunk, row_ids in table.scan():
            rows.extend(chunk.rows())
        assert rows == [(1, "x"), (2, "y")]

    def test_wrong_arity_rejected(self):
        table = self._table()
        with pytest.raises(ExecutionError):
            table.append_rows([(1,)])

    @pytest.mark.parametrize("engine", ["quack", "pgsim"])
    def test_a_short_row_appends_nothing(self, engine):
        con = (Database if engine == "quack" else RowDatabase)().connect()
        con.execute("CREATE TABLE t(a BIGINT, b VARCHAR)")
        table = con.database.catalog.get_table("t")
        with pytest.raises(ExecutionError, match="expected 2 values"):
            table.append_rows([(1, "a"), (2,)])
        assert con.execute("SELECT count(*) FROM t").scalar() == 0

    @pytest.mark.parametrize("engine", ["quack", "pgsim"])
    @pytest.mark.parametrize("row", [
        ("false", 1, 2.5),      # text in a BOOLEAN column
        (False, 1.7, 2.5),      # a float in an integer column
        (False, 1, "2.5"),      # text in a DOUBLE column
        (False, 2 ** 63, 2.5),  # an int outside int64
        ("false", 1.7, "2.5"),
    ])
    def test_a_value_of_the_wrong_python_type_appends_nothing(self, engine,
                                                              row):
        """Both engines refuse what one would convert and the other keep
        as given (quack once stored 'false' as TRUE and 1.7 as 1)."""
        con = (Database if engine == "quack" else RowDatabase)().connect()
        con.execute("CREATE TABLE t(b BOOLEAN, k BIGINT, x DOUBLE)")
        table = con.database.catalog.get_table("t")
        with pytest.raises(ConversionError, match="cannot store"):
            table.append_rows([(True, 0, 0.5), row])
        table.append_rows([(True, -2 ** 63, 1), (None, 2 ** 63 - 1, None)])
        assert con.execute("SELECT * FROM t").fetchall() == \
            [(True, -2 ** 63, 1.0), (None, 2 ** 63 - 1, None)]

    def test_a_value_that_does_not_convert_appends_nothing(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT, b VARCHAR)")
        table = con.database.catalog.get_table("t")
        table.append_rows([(1, "a")])
        rows = [(i, "ok") for i in range(STANDARD_VECTOR_SIZE + 3)]
        with pytest.raises(ConversionError, match="BIGINT"):
            table.append_rows(rows + [("x", "b")])
        assert con.execute("SELECT a, b FROM t").fetchall() == [(1, "a")]
        table.append_rows([(2, None)])
        assert con.execute("SELECT a, b FROM t").fetchall() == \
            [(1, "a"), (2, None)]

    def test_rows_seal_at_vector_size(self):
        table = self._table()
        table.append_rows([(i, None) for i in range(10)])
        table.append_rows([(i, "r") for i in range(2 * STANDARD_VECTOR_SIZE)])
        column = table._columns[0]
        assert [s.rows for s in column.segments] == [STANDARD_VECTOR_SIZE] * 2
        assert sum(map(len, column.tail)) == 10
        assert column.gather(np.arange(12)).to_list() == \
            list(range(10)) + [0, 1]
        assert table._columns[1].gather(np.array([9, 10])).to_list() == \
            [None, "r"]

    def test_nulls_of_a_double_column_stay_null(self):
        table = Table("d", [("x", DOUBLE)])
        table.append_rows([(None,), (float("nan"),), (1.5,)])
        (chunk, _), = table.scan()
        values = chunk.vectors[0].to_list()
        assert values[0] is None and math.isnan(values[1]) and values[2] == 1.5

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("bad", [("a", BIGINT), ("A", VARCHAR)])

    def test_delete_tombstones(self):
        table = self._table()
        table.append_rows([(i, "r") for i in range(10)])
        table.delete_rows([0, 5])
        assert table.num_rows() == 8
        scanned = []
        for chunk, row_ids in table.scan():
            scanned.extend(int(r) for r in row_ids)
        assert 0 not in scanned and 5 not in scanned

    def test_delete_idempotent(self):
        table = self._table()
        table.append_rows([(1, "x")])
        assert table.delete_rows([0]) == 1
        assert table.delete_rows([0]) == 0

    def test_fetch_skips_deleted(self):
        table = self._table()
        table.append_rows([(i, "r") for i in range(5)])
        table.delete_rows([2])
        chunk = table.fetch(np.array([1, 2, 3], dtype=np.int64))
        assert chunk.rows() == [(1, "r"), (3, "r")]

    def test_update_rows(self):
        table = self._table()
        table.append_rows([(1, "x"), (2, "y"), (3, "z")])
        table.update_rows([0, 2], [1, 0], [["X", "Z"], [10, 30]])
        rows = []
        for chunk, _ in table.scan():
            rows.extend(chunk.rows())
        assert rows == [(10, "X"), (2, "y"), (30, "Z")]

    def test_scan_and_fetch_emit_row_ids_last(self):
        table = self._table()
        table.append_rows([(i, "r") for i in range(5)])
        table.delete_rows([2])
        row_id = table.num_columns
        (chunk, row_ids), = table.scan(columns=(1, row_id))
        assert chunk.rows() == [("r", i) for i in (0, 1, 3, 4)]
        assert row_ids.tolist() == [0, 1, 3, 4]
        fetched = table.fetch(np.array([1, 2, 3], dtype=np.int64),
                              (0, row_id))
        assert fetched.rows() == [(1, 1), (3, 3)]

    def test_column_index_case_insensitive(self):
        table = self._table()
        assert table.column_index("A") == 0
        with pytest.raises(CatalogError):
            table.column_index("nope")

    def test_large_append_chunking(self):
        table = self._table()
        table.append_rows([(i, str(i)) for i in range(5000)])
        total = 0
        for chunk, _ in table.scan():
            assert chunk.count <= STANDARD_VECTOR_SIZE
            total += chunk.count
        assert total == 5000


# ---------------------------------------------------------------------------
# Persistent columnar format (PR: compressed segments + zone maps + spill)
# ---------------------------------------------------------------------------

import json
import math
import os
import pickle
import struct
from collections import Counter

from repro import core
from repro.analysis import set_verification_enabled
from repro.quack import Database, storage
from repro.quack.errors import QuackError
from repro.quack.types import BOOLEAN, DOUBLE
from repro.quack.vector import Vector


def _codec_round_trip(ltype, values):
    vector = Vector.from_values(ltype, values)
    codec, payload = storage.encode_segment(vector)
    validity = storage.decode_validity(
        storage.encode_validity(vector.validity), len(values)
    )
    back = storage.decode_segment(codec, payload, len(values), ltype,
                                  validity)
    return codec, back.to_list()


def _same_floats(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if e is None:
            assert g is None
        elif isinstance(e, float) and math.isnan(e):
            assert isinstance(g, float) and math.isnan(g)
        else:
            assert g == e
            if isinstance(e, float):
                assert math.copysign(1.0, g) == math.copysign(1.0, e)


class TestCodecs:
    def test_int_with_nulls(self):
        values = [1, None, 3, 1_000_000, -5, None, 7]
        codec, got = _codec_round_trip(BIGINT, values)
        assert got == values
        assert codec == "int"

    def test_int_extremes(self):
        values = [-(2**62), 2**62, 0, -1]
        _, got = _codec_round_trip(BIGINT, values)
        assert got == values

    def test_float_nan_and_negative_zero(self):
        values = [1.5, float("nan"), -0.0, 0.0, None, -1e300]
        _, got = _codec_round_trip(DOUBLE, values)
        _same_floats(got, values)

    def test_dict_strings(self):
        values = (["red", "green", "blue"] * 40) + [None, "red"]
        codec, got = _codec_round_trip(VARCHAR, values)
        assert got == values
        assert codec == "dict"

    def test_bool_int(self):
        values = [True, False, None, True] * 9
        codec, got = _codec_round_trip(BOOLEAN, values)
        assert got == values
        assert codec == "int"

    def test_all_null_segment(self):
        values = [None] * 17
        _, got = _codec_round_trip(VARCHAR, values)
        assert got == values

    def test_validity_round_trip_elides_all_valid(self):
        import numpy as np

        all_valid = np.ones(100, dtype=np.bool_)
        blob = storage.encode_validity(all_valid)
        assert blob == b""
        assert storage.decode_validity(blob, 100).all()
        holey = all_valid.copy()
        holey[3] = False
        back = storage.decode_validity(storage.encode_validity(holey), 100)
        assert (back == holey).all()


class TestFileRoundTrip:
    def _reload(self, con, path):
        con.execute(f"CHECKPOINT '{path}'")
        fresh = Database().connect()
        fresh.execute(f"ATTACH '{path}'")
        return fresh

    def test_empty_table(self, tmp_path):
        con = Database().connect()
        con.execute("CREATE TABLE empty(a BIGINT, b VARCHAR)")
        con.execute("ATTACH '%s'" % (tmp_path / "e.quackdb"))
        fresh = self._reload(con, tmp_path / "e.quackdb")
        assert fresh.execute("SELECT count(*) FROM empty").scalar() == 0
        assert fresh.execute("SELECT * FROM empty").column_names == \
            ["a", "b"]

    def test_single_row_group(self, tmp_path):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT, b VARCHAR)")
        rows = [(i, f"r{i}") for i in range(100)]
        con.database.catalog.get_table("t").append_rows(rows)
        fresh = self._reload(con, tmp_path / "one.quackdb")
        assert fresh.execute("SELECT * FROM t").fetchall() == rows

    def test_many_row_groups_and_nulls(self, tmp_path):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT, b VARCHAR, c DOUBLE)")
        rows = [
            (i if i % 7 else None,
             None if i % 11 == 0 else f"v{i % 50}",
             float(i) / 3.0 if i % 5 else None)
            for i in range(STANDARD_VECTOR_SIZE * 3 + 123)
        ]
        con.database.catalog.get_table("t").append_rows(rows)
        fresh = self._reload(con, tmp_path / "many.quackdb")
        assert fresh.execute("SELECT * FROM t").fetchall() == rows

    def test_special_floats_persist(self, tmp_path):
        con = Database().connect()
        con.execute("CREATE TABLE f(x DOUBLE)")
        values = [1.5, float("nan"), -0.0, 0.0, None, float("inf")]
        con.database.catalog.get_table("f").append_rows(
            [(v,) for v in values]
        )
        fresh = self._reload(con, tmp_path / "f.quackdb")
        got = [r[0] for r in fresh.execute("SELECT x FROM f").fetchall()]
        _same_floats(got, values)

    def test_tombstones_not_persisted(self, tmp_path):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT)")
        con.database.catalog.get_table("t").append_rows(
            [(i,) for i in range(10)]
        )
        con.execute("DELETE FROM t WHERE a >= 5")
        fresh = self._reload(con, tmp_path / "d.quackdb")
        assert fresh.execute("SELECT count(*) FROM t").scalar() == 5
        table = fresh.database.catalog.get_table("t")
        assert not table._deleted_ids

    def test_appends_after_attach_then_checkpoint(self, tmp_path):
        path = tmp_path / "grow.quackdb"
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT)")
        con.database.catalog.get_table("t").append_rows([(1,), (2,)])
        fresh = self._reload(con, path)
        fresh.execute("INSERT INTO t VALUES (3)")
        assert fresh.execute("SELECT count(*) FROM t").scalar() == 3
        # CHECKPOINT with no path re-targets the attached file.
        again = self._reload(fresh, path)
        assert sorted(
            r[0] for r in again.execute("SELECT a FROM t").fetchall()
        ) == [1, 2, 3]

    def test_io_counters(self, tmp_path):
        path = tmp_path / "io.quackdb"
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT, b VARCHAR)")
        con.database.catalog.get_table("t").append_rows(
            [(i, f"r{i}") for i in range(100)]
        )
        written = con.execute(f"CHECKPOINT '{path}'").stats()
        size = path.stat().st_size
        assert written.counter("storage.checkpoints") == 1
        assert written.counter("storage.bytes_written") == size
        fresh = Database().connect()
        attached = fresh.execute(f"ATTACH '{path}'").stats()
        assert attached.counter("storage.tables_attached") == 1
        first = fresh.execute("SELECT * FROM t").stats()
        # Two columns, one row group: each segment decoded once, lazily,
        # and attach + first scan read the file exactly once between them.
        assert first.counter("storage.segments_decoded") == 2
        assert attached.counter("storage.bytes_read") + \
            first.counter("storage.bytes_read") == size
        again = fresh.execute("SELECT * FROM t").stats()
        assert again.counter("storage.segments_decoded") == 0
        assert again.counter("storage.bytes_read") == 0

    def test_checkpoint_without_attach_raises(self):
        con = Database().connect()
        with pytest.raises(QuackError, match="CHECKPOINT"):
            con.execute("CHECKPOINT")

    def test_index_rebuilt_on_attach(self, tmp_path):
        con = core.connect()
        con.execute("CREATE TABLE g(box STBOX)")
        con.execute("CREATE INDEX rt ON g USING TRTREE(box)")
        con.execute(
            "INSERT INTO g SELECT ('STBOX X((' || i || ',' || i || '),"
            "(' || (i + 1) || ',' || (i + 1) || '))') "
            "FROM generate_series(1, 50) AS t(i)"
        )
        path = tmp_path / "idx.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        fresh = core.connect()
        fresh.execute(f"ATTACH '{path}'")
        table = fresh.database.catalog.get_table("g")
        assert [index.name for index in table.indexes] == ["rt"]
        got = fresh.execute(
            "SELECT count(*) FROM g WHERE box && "
            "stbox('STBOX X((10,10),(12,12))')"
        ).scalar()
        assert got == con.execute(
            "SELECT count(*) FROM g WHERE box && "
            "stbox('STBOX X((10,10),(12,12))')"
        ).scalar()


class TestFormatVersion:
    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "future.quackdb"
        footer = {
            "magic": "quackdb",
            "format_version": storage.FORMAT_VERSION + 97,
            "tables": [],
        }
        blob = json.dumps(footer).encode()
        with open(path, "wb") as handle:
            handle.write(storage._MAGIC)
            handle.write(blob)
            handle.write(struct.pack("<Q", len(storage._MAGIC)))
            handle.write(storage._MAGIC)
        con = Database().connect()
        with pytest.raises(QuackError, match="newer than the supported"):
            con.execute(f"ATTACH '{path}'")

    def test_version_field_written(self, tmp_path):
        path = tmp_path / "v.quackdb"
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT)")
        con.execute(f"CHECKPOINT '{path}'")
        raw = path.read_bytes()
        (footer_offset,) = struct.unpack("<Q", raw[-16:-8])
        footer = json.loads(raw[footer_offset:-16])
        assert footer["format_version"] == storage.FORMAT_VERSION
        assert raw[:8] == storage._MAGIC == raw[-8:]

    def test_version_2_files_still_attach(self, tmp_path, monkeypatch):
        """Version 2 wrote every extension payload as a pickle, a codec
        version 3 still reads."""
        from repro.core import codecs

        con = core.connect()
        con.execute("CREATE TABLE g(trip TGEOMPOINT, span TSTZSPAN, "
                    "geom GEOMETRY)")
        con.execute("INSERT INTO g VALUES ('[Point(0 0)@2020-01-01, "
                    "Point(1 1)@2020-01-02]', '[2020-01-01, 2020-01-02)', "
                    "ST_Point(1, 2)), (NULL, NULL, NULL)")
        path = tmp_path / "v2.quackdb"
        with monkeypatch.context() as patch:
            patch.setattr(storage, "FORMAT_VERSION", 2)
            for codec in (codecs.TemporalPointCodec, codecs.SpanCodec,
                          codecs.GeometryCodec):
                patch.setattr(codec, "encode", lambda self, vector: None)
            con.execute(f"CHECKPOINT '{path}'")
        raw = path.read_bytes()
        (footer_offset,) = struct.unpack("<Q", raw[-16:-8])
        footer = json.loads(raw[footer_offset:-16])
        assert footer["format_version"] == 2
        assert {c["codec"] for c in
                footer["tables"][0]["row_groups"][0]["columns"]} == \
            {"pickle"}
        att = core.connect()
        att.execute(f"ATTACH '{path}'")
        assert repr(att.execute("SELECT * FROM g").fetchall()) == \
            repr(con.execute("SELECT * FROM g").fetchall())

    def test_zone_distinct_counts_ignored(self, tmp_path):
        """Earlier version-3 writers stored a per-group distinct count
        (``"d"``) in text zone entries; such a file still attaches and
        prunes."""
        con = _seeded_con()
        path = tmp_path / "d.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        raw = path.read_bytes()
        (footer_offset,) = struct.unpack("<Q", raw[-16:-8])
        footer = json.loads(raw[footer_offset:-16])
        for group in footer["tables"][0]["row_groups"]:
            group["zones"][1]["d"] = group["rows"]
        path.write_bytes(raw[:footer_offset] + json.dumps(footer).encode()
                         + raw[-16:])
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")
        sql = "SELECT count(*) FROM t WHERE b < 'k00000100'"
        assert att.execute(sql).scalar() == 100
        assert att.last_query_stats.counter("storage.rowgroups_skipped") == 4

    def test_garbage_rejected(self, tmp_path):
        # Neither junk bytes nor the retired whole-database pickle format
        # carry the magic: both are refused before anything is unpickled.
        legacy = pickle.dumps({
            "magic": "quackdb-v1",
            "tables": [{
                "name": "legacy",
                "columns": [["a", "BIGINT"]],
                "rows": [(1,)],
                "indexes": [],
            }],
        })
        for blob in (b"this is not a database file at all", legacy):
            path = tmp_path / "junk.quackdb"
            path.write_bytes(blob)
            con = Database().connect()
            with pytest.raises(QuackError, match="not a quack database"):
                con.execute(f"ATTACH '{path}'")
            assert not con.database.catalog.has_table("legacy")


def _seeded_con(rows=STANDARD_VECTOR_SIZE * 5):
    """Sequential table spanning ``rows // 2048`` row groups; column ``b``
    is zero-padded so lexicographic order tracks ``a``."""
    con = Database().connect()
    con.execute("CREATE TABLE t(a BIGINT, b VARCHAR)")
    con.database.catalog.get_table("t").append_rows(
        [(i, f"k{i:08d}") for i in range(rows)]
    )
    return con


class TestZoneMapSkipping:
    def _attached(self, tmp_path, rows=STANDARD_VECTOR_SIZE * 5):
        con = _seeded_con(rows)
        path = tmp_path / "zm.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        fresh = Database().connect()
        fresh.execute(f"ATTACH '{path}'")
        return con, fresh

    def _counters(self, con):
        stats = con.last_query_stats
        return (stats.counter("storage.rowgroups_scanned"),
                stats.counter("storage.rowgroups_skipped"))

    def test_between_skips_most_groups(self, tmp_path):
        mem, att = self._attached(tmp_path)
        sql = "SELECT count(*) FROM t WHERE a BETWEEN 100 AND 110"
        assert att.execute(sql).scalar() == 11
        scanned, skipped = self._counters(att)
        assert skipped == 4
        assert scanned / (scanned + skipped) <= 0.20
        # The pruned result matches the unpruned in-memory baseline.
        assert att.execute(sql).scalar() == mem.execute(sql).scalar()

    def test_equality_and_range_ops(self, tmp_path):
        _, att = self._attached(tmp_path)
        for sql, expected in [
            ("SELECT count(*) FROM t WHERE a = 9000", 1),
            ("SELECT count(*) FROM t WHERE a < 50", 50),
            ("SELECT count(*) FROM t WHERE a >= 10000", 240),
        ]:
            assert att.execute(sql).scalar() == expected
            scanned, skipped = self._counters(att)
            assert skipped >= 3, sql

    def test_string_predicate_prunes(self, tmp_path):
        _, att = self._attached(tmp_path)
        got = att.execute(
            "SELECT a FROM t WHERE b = 'k00009000'"
        ).fetchall()
        assert got == [(9000,)]
        _, skipped = self._counters(att)
        assert skipped == 4

    def test_in_memory_table_prunes_too(self):
        con = _seeded_con()
        assert con.execute(
            "SELECT count(*) FROM t WHERE a BETWEEN 4200 AND 4300"
        ).scalar() == 101
        stats = con.last_query_stats
        assert stats.counter("storage.rowgroups_skipped") >= 3

    def test_only_columnar_scans_carry_prune_predicates(self):
        """Heap tables keep no zone maps: pgsim's plan of the same
        statement names no prune predicate, on a scan or in a join."""
        sql = ("SELECT count(*) FROM t, t u WHERE t.a < 100"
               " AND u.b = 'k00000001' AND t.a = u.a")
        quack = _seeded_con(100)
        heap = core.connect_baseline()
        heap.execute("CREATE TABLE t(a BIGINT, b VARCHAR)")
        heap.database.catalog.get_table("t").append_rows(
            [(i, f"k{i:08d}") for i in range(100)]
        )
        plan = quack.execute("EXPLAIN " + sql).rows[0][0]
        assert "[zonemap: a <]" in plan and "[zonemap: b =]" in plan
        heap_plan = heap.execute("EXPLAIN " + sql).rows[0][0]
        assert "zonemap" not in heap_plan
        assert heap_plan == plan.replace(" [zonemap: a <]", "").replace(
            " [zonemap: b =]", "")
        assert heap.execute(sql).fetchall() == quack.execute(
            sql).fetchall() == [(1,)]

    def test_stale_maps_after_update_stay_correct(self, tmp_path):
        _, att = self._attached(tmp_path)
        att.execute("UPDATE t SET a = 100000 + a WHERE a < 10")
        sql = "SELECT count(*) FROM t WHERE a >= 100000"
        assert att.execute(sql).scalar() == 10
        att.execute("DELETE FROM t WHERE a = 100005")
        assert att.execute(sql).scalar() == 9
        att.execute("INSERT INTO t VALUES (100099, 'tail')")
        assert att.execute(sql).scalar() == 10

    def test_box_overlap_prunes(self, tmp_path):
        con = core.connect()
        con.execute("CREATE TABLE g(box STBOX)")
        con.execute(
            "INSERT INTO g SELECT ('STBOX X((' || i || ',' || i || '),"
            "(' || (i + 1) || ',' || (i + 1) || '))') "
            "FROM generate_series(1, 8192) AS t(i)"
        )
        path = tmp_path / "box.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        att = core.connect()
        att.execute(f"ATTACH '{path}'")
        sql = ("SELECT count(*) FROM g WHERE box && "
               "stbox('STBOX X((10,10),(20,20))')")
        assert att.execute(sql).scalar() == con.execute(sql).scalar()
        stats = att.last_query_stats
        assert stats.counter("storage.rowgroups_skipped") >= 3

    def test_time_span_probes_prune(self, tmp_path):
        """A constant time span is a box with a ``t`` interval: ``&&``,
        ``@>`` and ``<@`` against one skip the span column's row groups
        and give the same rows attached, in memory and unpruned."""
        from repro.meos import TSTZ, Span

        hour = 3_600_000_000
        con = core.connect()
        con.execute("CREATE TABLE s(id BIGINT, p TSTZSPAN)")
        con.database.catalog.get_table("s").append_rows([
            (i, Span(i * hour, (i + 8) * hour, True, False, TSTZ))
            for i in range(STANDARD_VECTOR_SIZE * 5)
        ])
        path = tmp_path / "spans.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        att = core.connect()
        att.execute(f"ATTACH '{path}'")
        for op, probe, count in (
                ("&&", "[1970-01-02 00:00:00+00, 1970-01-02 02:00:00+00]",
                 10),
                ("@>", "[1970-01-02 00:00:00+00, 1970-01-02 02:00:00+00]",
                 6),
                ("<@", "[1970-01-01 20:00:00+00, 1970-01-02 16:00:00+00]",
                 13)):
            sql = f"SELECT id FROM s WHERE p {op} tstzspan '{probe}'"
            rows = att.execute(sql).fetchall()
            assert len(rows) == count, op
            assert self._counters(att)[1] == 4, op
            assert sorted(con.execute(sql).fetchall()) == sorted(rows)
            assert self._counters(con)[1] == 4, op

    def test_explain_analyze_shows_rowgroups(self, tmp_path):
        _, att = self._attached(tmp_path)
        text = att.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t WHERE a < 100"
        ).plan_text
        assert "[zonemap: a <]" in text
        assert "rowgroups_skipped=4" in text

    def test_crosscheck_under_verification(self, tmp_path):
        _, att = self._attached(tmp_path)
        set_verification_enabled(True)
        try:
            sql = "SELECT count(*) FROM t WHERE a BETWEEN 100 AND 110"
            assert att.execute(sql).scalar() == 11
            stats = att.last_query_stats
            assert stats.counter("verify.zonemap_crosschecks") == 4
        finally:
            set_verification_enabled(
                os.environ.get("REPRO_VERIFICATION") == "1"
            )


class TestAttachedAnalyze:
    def test_analyze_matches_in_memory(self, tmp_path):
        """An attached table gathers the statistics its in-memory source
        does: exact BIGINT bounds, and a NaN-only column with NULLs
        counts NaN as one distinct value."""
        con = _seeded_con()
        con.execute("CREATE TABLE n(k BIGINT, x DOUBLE)")
        con.database.catalog.get_table("n").append_rows(
            [(i, None if i % 3 == 0 else _NAN) for i in range(1, 10)]
        )
        path = tmp_path / "az.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")
        for name in ("t", "n"):
            con.execute(f"ANALYZE {name}")
            att.execute(f"ANALYZE {name}")
            assert repr(att.database.catalog.get_table(name).stats) == \
                repr(con.database.catalog.get_table(name).stats)
        x = att.database.catalog.get_table("n").stats.column(1)
        assert (x.null_count, x.distinct_count) == (3, 1)
        k = att.database.catalog.get_table("n").stats.column(0)
        assert repr((k.min_value, k.max_value)) == "(1, 9)"

    def test_append_marks_stats_dirty(self, tmp_path):
        con = _seeded_con(100)
        path = tmp_path / "dirty.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")
        att.execute("INSERT INTO t VALUES (1000000, 'new')")
        att.execute("ANALYZE t")
        table = att.database.catalog.get_table("t")
        assert table.stats.row_count == 101
        assert table.stats.column(0).max_value == 1000000

    def test_delete_marks_stats_dirty(self, tmp_path):
        con = _seeded_con(100)
        path = tmp_path / "dirty2.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")
        att.execute("DELETE FROM t WHERE a < 10")
        att.execute("ANALYZE t")
        assert att.database.catalog.get_table("t").stats.row_count == 90


class TestSpill:
    _ROWS = STANDARD_VECTOR_SIZE * 10

    def _con(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT, b VARCHAR, g BIGINT)")
        rows = [
            (((i * 2654435761) % self._ROWS), f"pad{i:032d}", i % 97)
            for i in range(self._ROWS)
        ]
        con.database.catalog.get_table("t").append_rows(rows)
        return con

    def _spill_counter(self, con, name):
        return con.last_query_stats.counter(name)

    def test_sort_bit_identical(self):
        con = self._con()
        sql = "SELECT a, b FROM t ORDER BY g, a"
        baseline = con.execute(sql).fetchall()
        for limit, expect_spill in [(1000, False), (1, True),
                                    (0.25, True)]:
            con.execute(f"SET memory_limit = {limit}")
            got = con.execute(sql).fetchall()
            assert got == baseline, f"memory_limit={limit}"
            spilled = self._spill_counter(con, "storage.spilled_sorts")
            runs = self._spill_counter(con, "storage.spill_runs")
            if expect_spill:
                assert spilled == 1 and runs >= 2, f"memory_limit={limit}"
            else:
                assert spilled == 0 and runs == 0
        con.execute("SET memory_limit = 0")  # disable again
        assert con.execute(sql).fetchall() == baseline

    def test_sort_stability_under_spill(self):
        con = self._con()
        # g has 97 duplicates per value: ties must keep scan order.
        sql = "SELECT g, a FROM t ORDER BY g"
        baseline = con.execute(sql).fetchall()
        con.execute("SET memory_limit = 0.1")
        assert con.execute(sql).fetchall() == baseline
        assert self._spill_counter(con, "storage.spilled_sorts") == 1

    def test_aggregate_bit_identical(self):
        con = self._con()
        sql = ("SELECT g, count(*), sum(a), min(b), max(a) FROM t "
               "GROUP BY g")
        baseline = con.execute(sql).fetchall()
        for limit in (1, 0.25):
            con.execute(f"SET memory_limit = {limit}")
            assert con.execute(sql).fetchall() == baseline
            assert self._spill_counter(
                con, "storage.spilled_aggregates") == 1
            assert self._spill_counter(
                con, "storage.spill_partitions") >= 1
        con.execute("SET memory_limit = 1000")
        assert con.execute(sql).fetchall() == baseline
        assert self._spill_counter(con, "storage.spilled_aggregates") == 0

    def test_join_bit_identical(self, from_order):
        con = self._con()
        con.execute("CREATE TABLE dim(g BIGINT, name VARCHAR)")
        con.database.catalog.get_table("dim").append_rows(
            [(i, f"group-{i:028d}") for i in range(97)]
        )
        # dim first in FROM order: the big table lands on the build
        # (right) side, its padded column read so that it rides along.
        sql = ("SELECT t.a, t.b, dim.name FROM dim, t "
               "WHERE t.g = dim.g AND t.a < 5000")
        with from_order():
            baseline = con.execute(sql).fetchall()
            con.execute("SET memory_limit = 0.25")
            got = con.execute(sql).fetchall()
            assert got == baseline
            assert self._spill_counter(con, "storage.spilled_joins") >= 1
            con.execute("SET memory_limit = 0")
            assert con.execute(sql).fetchall() == baseline

    def test_join_null_keys_dropped(self):
        con = Database().connect()
        con.execute("CREATE TABLE l(k BIGINT)")
        con.execute("CREATE TABLE r(k BIGINT, v VARCHAR)")
        con.database.catalog.get_table("l").append_rows(
            [(i % 50 if i % 13 else None,) for i in range(6000)]
        )
        con.database.catalog.get_table("r").append_rows(
            [(i % 50 if i % 7 else None, f"pad{i:040d}")
             for i in range(6000)]
        )
        sql = "SELECT count(*) FROM l, r WHERE l.k = r.k"
        baseline = con.execute(sql).scalar()
        con.execute("SET memory_limit = 0.1")
        assert con.execute(sql).scalar() == baseline

    def test_distinct_aggregate_under_spill(self):
        con = self._con()
        sql = "SELECT g, count(DISTINCT a) FROM t GROUP BY g"
        baseline = con.execute(sql).fetchall()
        con.execute("SET memory_limit = 0.5")
        assert con.execute(sql).fetchall() == baseline

    def test_memory_limit_setting_round_trip(self):
        con = Database().connect()
        con.execute("SET memory_limit = 64")
        assert con.execute("SHOW memory_limit").fetchall() == [(64.0,)]
        con.execute("SET memory_limit = 0")
        assert con.execute("SHOW memory_limit").fetchall() == [(None,)]
        with pytest.raises(QuackError):
            con.execute("SET memory_limit = 'lots'")


# ---------------------------------------------------------------------------
# Differential battery: in-memory quack vs persisted quack vs pgsim
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def berlinmod_dataset():
    from repro.berlinmod import generate

    return generate(0.001, spacing_m=1200.0)


@pytest.fixture(scope="module")
def berlinmod_duck(berlinmod_dataset):
    from repro.berlinmod import load_dataset

    con = core.connect()
    load_dataset(con, berlinmod_dataset)
    return con


@pytest.fixture(scope="module")
def berlinmod_persisted(berlinmod_duck, tmp_path_factory):
    path = tmp_path_factory.mktemp("quackdb") / "berlinmod.quackdb"
    berlinmod_duck.execute(f"CHECKPOINT '{path}'")
    con = core.connect()
    con.execute(f"ATTACH '{path}'")
    return con


@pytest.fixture(scope="module")
def berlinmod_pgsim(berlinmod_dataset):
    from repro.berlinmod import load_dataset

    con = core.connect_baseline()
    load_dataset(con, berlinmod_dataset)
    return con


def _multiset(rows):
    return Counter(map(repr, rows))


class TestDifferentialPersisted:
    """The persisted-and-reloaded engine must agree with the in-memory
    engine and with the row-engine oracle on the BerlinMOD battery."""

    def _numbers(self):
        from repro.berlinmod import QUERIES

        return [q.number for q in QUERIES]

    def test_tables_survive(self, berlinmod_duck, berlinmod_persisted):
        for table in ("Vehicles", "Trips", "Licences1", "Periods1",
                      "Points1", "Regions1", "Instants1"):
            sql = f"SELECT count(*) FROM {table}"
            assert berlinmod_persisted.execute(sql).scalar() == \
                berlinmod_duck.execute(sql).scalar(), table

    def test_all_queries_vs_in_memory(self, berlinmod_duck,
                                      berlinmod_persisted):
        from repro.berlinmod import get_query

        for number in self._numbers():
            sql = get_query(number).sql
            expected = _multiset(berlinmod_duck.execute(sql).fetchall())
            got = _multiset(berlinmod_persisted.execute(sql).fetchall())
            assert got == expected, f"query {number}"

    def test_queries_vs_pgsim(self, berlinmod_persisted, berlinmod_pgsim):
        from repro.berlinmod import get_query

        for number in (1, 2, 3, 5, 7, 10):
            sql = get_query(number).sql
            expected = _multiset(berlinmod_pgsim.execute(sql).fetchall())
            got = _multiset(berlinmod_persisted.execute(sql).fetchall())
            assert got == expected, f"query {number}"

    def test_spill_agrees_with_pgsim(self, berlinmod_persisted,
                                     berlinmod_pgsim):
        sql = ("SELECT t.VehicleId, count(*) FROM Trips t, Vehicles v "
               "WHERE t.VehicleId = v.VehicleId "
               "GROUP BY t.VehicleId ORDER BY t.VehicleId")
        expected = berlinmod_pgsim.execute(sql).fetchall()
        berlinmod_persisted.execute("SET memory_limit = 1")
        try:
            got = berlinmod_persisted.execute(sql).fetchall()
        finally:
            berlinmod_persisted.execute("SET memory_limit = 0")
        assert _multiset(got) == _multiset(expected)


class TestAuxCacheInvalidation:
    """Satellite: derived ``_aux`` views on lazily-decoded storage chunks
    must be dropped/refreshed on rewrite — verified under the
    decompressed-chunk verification hooks."""

    def _attached_boxes(self, tmp_path):
        con = core.connect()
        con.execute("CREATE TABLE g(id BIGINT, box STBOX)")
        con.execute(
            "INSERT INTO g SELECT i, ('STBOX X((' || i || ',' || i || '),"
            "(' || (i + 1) || ',' || (i + 1) || '))') "
            "FROM generate_series(1, 3000) AS t(i)"
        )
        path = tmp_path / "aux.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        att = core.connect()
        att.execute(f"ATTACH '{path}'")
        return att

    def test_repeated_scans_serve_fresh_aux(self, tmp_path):
        att = self._attached_boxes(tmp_path)
        set_verification_enabled(True)
        try:
            sql = ("SELECT count(*) FROM g WHERE box && "
                   "stbox('STBOX X((100,100),(200,200))')")
            first = att.execute(sql).scalar()
            # Second run hits the decoded-vector cache; verification
            # re-checks the cached chunk and its _aux fingerprint.
            assert att.execute(sql).scalar() == first
        finally:
            set_verification_enabled(
                os.environ.get("REPRO_VERIFICATION") == "1"
            )

    def test_update_after_attach_invalidates(self, tmp_path):
        att = self._attached_boxes(tmp_path)
        set_verification_enabled(True)
        try:
            sql = ("SELECT count(*) FROM g WHERE box && "
                   "stbox('STBOX X((100,100),(200,200))')")
            before = att.execute(sql).scalar()
            assert before > 0
            att.execute(
                "UPDATE g SET box = stbox('STBOX X((0,0),(1,1))') "
                "WHERE id <= 150"
            )
            after = att.execute(sql).scalar()
            assert after < before
        finally:
            set_verification_enabled(
                os.environ.get("REPRO_VERIFICATION") == "1"
            )


# ---------------------------------------------------------------------------
# Columnar spill: SpillFile chunks, external sort battery, block merge
# ---------------------------------------------------------------------------

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import geo, meos
from repro.core.boxkernels import temp_csr
from repro.core.spatial import GEOMETRY_TYPE
from repro.core.types import SPAN_TYPES, STBOX_TYPE, TEMPORAL_TYPES
from repro.meos import kernels as temporal_kernels
from repro.meos.temporal.base import TInstant, TSequence, TSequenceSet
from repro.meos.temporal.ttypes import TGEOMPOINT
from repro.pgsim import RowDatabase
from repro.quack import kernels
from repro.quack.boxes import AXES, bounding_box
from repro.quack.vector import DataChunk, ViewVector

_NAN = float("nan")
_INF = float("inf")
_BOXES = [meos.stbox(f"STBOX X(({i},{i}),({i + 2},{i + 3}))")
          for i in range(4)]
_TRIPS = [
    meos.tgeompoint(f"[POINT({i} {i})@2020-01-0{i + 1}, "
                    f"POINT({i + 1} {i + 2})@2020-01-0{i + 2}]")
    for i in range(4)
]
_TGEOMPOINT = TEMPORAL_TYPES["tgeompoint"]
_TSTZSPAN = SPAN_TYPES["tstzspan"]
#: Every shape a temporal point takes: an instant, discrete / step /
#: linear sequences (signed zeros, open bounds), a sequence set, an
#: unnormalized sequence and an SRID.
_TEMPORAL_TEXTS = (
    "POINT(1 2)@2020-01-01",
    "{POINT(1 1)@2020-01-01, POINT(0 -0)@2020-01-02, "
    "POINT(1 1)@2020-01-03}",
    "Interp=Step;[POINT(-0 3)@2020-01-01, POINT(0 4)@2020-01-02]",
    "(POINT(0 0)@2020-01-01, POINT(-1.5 2)@2020-01-03]",
    "{[POINT(1 1)@2020-01-01, POINT(2 2)@2020-01-02), "
    "(POINT(3 3)@2020-01-03, POINT(4 -4)@2020-01-04]}",
    "SRID=4326;[POINT(5 5)@2020-01-01, POINT(6 5)@2020-01-02]",
)
_TEMPORALS = [meos.tgeompoint(text) for text in _TEMPORAL_TEXTS] + [
    TSequence(TGEOMPOINT, [
        TInstant(TGEOMPOINT, geo.Point(float(i), float(i)), 10**6 * i)
        for i in range(4)
    ], normalize=False),
]
#: A segment of these takes the ``tcsr`` codec (one SRID).
_PLANAR = [t for t in _TEMPORALS if t.srid() == 0]
_SPAN_TEXTS = (
    "[2020-01-01, 2020-01-02]", "(2020-01-01, 2020-01-02]",
    "[2020-01-01, 2020-01-03)", "(2020-01-02, 2020-01-05)",
    "[2020-01-04, 2020-01-04]",
)
_SPANS = [meos.tstzspan(text) for text in _SPAN_TEXTS]
_PAYLOAD_COLUMNS = [
    (BIGINT, [1, None, 3, -(2**62), 2**62, 7]),
    (DOUBLE, [1.5, _NAN, -0.0, 0.0, None, -_INF]),
    (BOOLEAN, [True, False, None, True, True, False]),
    (VARCHAR, ["red", None, "green", "red", "", "blå"]),
    (VARCHAR, [None] * 6),
    (STBOX_TYPE, [_BOXES[0], None, _BOXES[1], _BOXES[2], None, _BOXES[3]]),
    (TEMPORAL_TYPES["tgeompoint"],
     [_TRIPS[0], _TRIPS[1], None, _TRIPS[2], _TRIPS[3], None]),
]


class TestSpillFileChunks:
    def test_round_trip_every_codec(self):
        types = [ltype for ltype, _ in _PAYLOAD_COLUMNS]
        chunk = DataChunk([Vector.from_values(ltype, values)
                           for ltype, values in _PAYLOAD_COLUMNS])
        with storage.SpillFile(types) as spill:
            spill.write_chunk(chunk)
            spill.write_chunk(chunk.slice(np.array([4, 1])))
            assert (spill.chunks, spill.rows) == (2, 8)
            back = list(spill.read_chunks())
        assert [c.count for c in back] == [6, 2]
        for vector, (_, values) in zip(back[0].vectors, _PAYLOAD_COLUMNS):
            assert repr(vector.to_list()) == repr(values)
        for vector, (_, values) in zip(back[1].vectors, _PAYLOAD_COLUMNS):
            assert repr(vector.to_list()) == repr([values[4], values[1]])
        assert math.copysign(1.0, back[0].vectors[1].value(2)) == -1.0

    def test_gather_of_a_decoded_view_spills_as_arrays(self, monkeypatch):
        built = []
        build = temporal_kernels._Store._build
        monkeypatch.setattr(temporal_kernels._Store, "_build",
                            lambda self, g: built.append(g) or build(self, g))
        trips = Vector.from_values(_TGEOMPOINT, _PLANAR + [None])
        codec, payload = storage.encode_segment(trips)
        decoded = storage.decode_segment(codec, payload, len(trips),
                                         _TGEOMPOINT, trips.validity)
        rows = np.array([3, 3, len(trips) - 1, 1])
        taken = decoded.take(rows)
        assert isinstance(taken, ViewVector)
        with storage.SpillFile([_TGEOMPOINT]) as spill:
            spill.write_chunk(DataChunk([taken]))
            (back,) = [chunk.vectors[0] for chunk in spill.read_chunks()]
        assert isinstance(back, ViewVector)
        # only the two temporals the rows hold went to the file
        assert len(temp_csr(back).store) == 2
        assert not built
        expected = [trips.to_list()[i] for i in rows.tolist()]
        assert repr(back.to_list()) == repr(expected)
        assert back.to_list() == expected

    def test_spill_counters(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT)")
        con.database.catalog.get_table("t").append_rows(
            [(i,) for i in range(STANDARD_VECTOR_SIZE * 3)]
        )
        con.execute("SET memory_limit = 0.01")
        con.execute("SELECT a FROM t ORDER BY a DESC")
        stats = con.last_query_stats
        assert stats.counter("storage.spill_rows") == \
            STANDARD_VECTOR_SIZE * 3
        assert stats.counter("storage.spill_bytes") > 0


def _sorted_runs(rng, n_runs, block):
    """``n_runs`` stably sorted runs over consecutive input ranges, cut
    into blocks of ``(input position, run, key)`` + the key column."""
    runs, position = [], 0
    for run in range(n_runs):
        n = rng.randrange(1, block * 4)
        keys = np.array([rng.randrange(6) for _ in range(n)])
        order = np.argsort(keys, kind="stable")
        chunk = DataChunk([
            Vector(BIGINT, position + order),
            Vector(BIGINT, np.full(n, run)),
            Vector(BIGINT, keys[order]),
            Vector(BIGINT, keys[order]),
        ])
        position += n
        runs.append([chunk.slice(slice(s, s + block))
                     for s in range(0, n, block)])
    return runs


class TestBlockMerge:
    @pytest.mark.parametrize("n_runs", [1, 2, 3, 9])
    def test_stable_and_one_block_per_run(self, n_runs):
        rng = random.Random(n_runs)
        block = 16
        runs = _sorted_runs(rng, n_runs, block)
        pulled = [0] * n_runs  # rows read from each run so far

        def reader(run):
            for chunk in runs[run]:
                pulled[run] += chunk.count
                yield chunk

        sent = [0] * n_runs
        out = []
        for chunk in kernels.merge_sorted_runs(
            [(reader(r), len(runs[r])) for r in range(n_runs)],
            1, [(True, None)],
        ):
            # Whatever a run has read and not yet handed over is what the
            # merge holds of it: never more than one block.
            for run in range(n_runs):
                assert pulled[run] - sent[run] <= block
            assert len(chunk.vectors) == 3  # key column dropped
            for run in chunk.vectors[1].to_list():
                sent[run] += 1
            out.extend(chunk.rows())
        assert sent == pulled == [sum(c.count for c in r) for r in runs]
        # Ties keep input order: (key, input position) ascending.
        assert [(k, p) for p, _, k in out] == \
            sorted((k, p) for p, _, k in out)

    def test_comparator_fallback_for_unorderable_keys(self):
        keys = np.empty(4, dtype=object)
        keys[:] = [_BOXES[2], _BOXES[0], _BOXES[3], _BOXES[1]]
        vector = Vector(STBOX_TYPE, keys)
        with pytest.raises(kernels.KernelFallback):
            kernels.sort_permutation([vector], [(True, None)])
        perm, from_kernel = kernels.order_permutation([vector],
                                                      [(True, None)])
        assert not from_kernel
        assert perm.tolist() == sorted(range(4),
                                       key=lambda i: repr(keys[i]))


_BATTERY_ROWS = STANDARD_VECTOR_SIZE * 6 + 37
_FLOATS = [None, _NAN, -0.0, 0.0, _INF, -_INF, 1.5, -2.25, _NAN, None]


def _battery_rows():
    rng = random.Random(14)
    return [
        (i, i % 5, _FLOATS[i % len(_FLOATS)] if i % 3
         else rng.uniform(-3, 3),
         None if i % 17 == 0 else f"s{(i * 7919) % 211:03d}")
        for i in range(_BATTERY_ROWS)
    ]


@pytest.fixture(scope="module")
def battery():
    rows = _battery_rows()
    cons = []
    for factory in (Database, Database, RowDatabase):
        con = factory().connect()
        con.execute("CREATE TABLE t(id BIGINT, g BIGINT, x DOUBLE, "
                    "s VARCHAR)")
        con.database.catalog.get_table("t").append_rows(rows)
        cons.append(con)
    return cons  # in-memory quack, spilling quack, pgsim


_ORDERINGS = [
    f"{key} {direction} NULLS {nulls}"
    for key in ("x", "s")
    for direction in ("ASC", "DESC")
    for nulls in ("FIRST", "LAST")
] + [
    "g",                      # heavy ties: stability across runs/blocks
    "g DESC, x NULLS FIRST, s",
    "x + 1, id DESC",         # expression key
    "g % 3, s DESC NULLS LAST",
    "x, s, id",
]


class TestExternalSortBattery:
    """External sort == in-memory sort == pgsim, row for row in order."""

    @pytest.mark.parametrize("ordering", _ORDERINGS)
    @pytest.mark.parametrize("limit_mb", [0.3, 0.01])
    def test_matches_in_memory_and_pgsim(self, battery, ordering,
                                         limit_mb):
        memory, spilling, pgsim = battery
        sql = f"SELECT id, x, s FROM t ORDER BY {ordering}"
        expected = repr(memory.execute(sql).fetchall())
        assert memory.last_query_stats.counter(
            "storage.spilled_sorts") == 0
        spilling.execute(f"SET memory_limit = {limit_mb}")
        got = spilling.execute(sql).fetchall()
        stats = spilling.last_query_stats
        assert stats.counter("storage.spilled_sorts") == 1
        assert stats.counter("storage.spill_runs") >= 2
        assert repr(got) == expected
        assert repr(pgsim.execute(sql).fetchall()) == expected

    def test_two_three_and_many_runs(self, battery):
        memory, spilling, _ = battery
        sql = "SELECT id, g FROM t ORDER BY g"
        expected = memory.execute(sql).fetchall()
        # Seven chunks of two BIGINT columns (18 bytes a row): a run
        # closes with the chunk that takes it past the limit.
        chunk = STANDARD_VECTOR_SIZE * 18
        for chunks_per_run, runs in [(4, 2), (3, 3), (1, 7)]:
            limit = (chunks_per_run - 0.5) * chunk / (1024 * 1024)
            spilling.execute(f"SET memory_limit = {limit}")
            assert spilling.execute(sql).fetchall() == expected
            assert spilling.last_query_stats.counter(
                "storage.spill_runs") == runs

    def test_order_by_limit_and_empty(self, battery):
        memory, spilling, pgsim = battery
        spilling.execute("SET memory_limit = 0.05")
        for sql in [
            "SELECT id, x FROM t ORDER BY x DESC, id LIMIT 10",
            "SELECT id FROM t ORDER BY s NULLS FIRST, id LIMIT 5 OFFSET "
            f"{STANDARD_VECTOR_SIZE + 3}",
            "SELECT id FROM t WHERE id < 0 ORDER BY x",
        ]:
            expected = repr(memory.execute(sql).fetchall())
            assert repr(spilling.execute(sql).fetchall()) == expected
            assert repr(pgsim.execute(sql).fetchall()) == expected

    def test_counts_as_one_kernel_op(self, battery):
        _, spilling, _ = battery
        spilling.execute("SET memory_limit = 0.05")
        spilling.execute("SELECT id FROM t ORDER BY x")
        stats = spilling.last_query_stats
        assert stats.counter("storage.spilled_sorts") == 1
        assert stats.counter("quack.kernel_ops") == 1
        assert stats.counter("quack.fallback_ops") == 0
        text = spilling.execute(
            "EXPLAIN ANALYZE SELECT id FROM t ORDER BY x"
        ).plan_text
        assert (f"rows_in={_BATTERY_ROWS}, kernel=1, fallback=0, "
                "spill_runs=") in text

    def test_every_block_is_read_once(self, battery, monkeypatch):
        _, spilling, _ = battery
        pulls = []
        read_chunks = storage.SpillFile.read_chunks

        def counting(self):
            for chunk in read_chunks(self):
                pulls.append(chunk.count)
                yield chunk

        monkeypatch.setattr(storage.SpillFile, "read_chunks", counting)
        spilling.execute("SET memory_limit = 0.05")
        spilling.execute("SELECT id FROM t ORDER BY g")
        assert sum(pulls) == _BATTERY_ROWS
        assert max(pulls) <= STANDARD_VECTOR_SIZE

    def test_unorderable_key_takes_the_comparator(self):
        con = core.connect()
        con.execute("CREATE TABLE b(id BIGINT, box STBOX)")
        con.database.catalog.get_table("b").append_rows(
            [(i, _BOXES[(i * 7) % 4] if i % 9 else None)
             for i in range(STANDARD_VECTOR_SIZE * 2 + 5)]
        )
        sql = "SELECT id FROM b ORDER BY box DESC"
        expected = con.execute(sql).fetchall()
        assert con.last_query_stats.counter("quack.fallback_ops") == 1
        con.execute("SET memory_limit = 0.05")
        assert con.execute(sql).fetchall() == expected
        stats = con.last_query_stats
        assert stats.counter("storage.spill_runs") >= 2
        assert stats.counter("quack.fallback_ops") == 1
        assert stats.counter("quack.kernel_ops") == 0

    def test_rechecked_against_comparator_under_verification(self,
                                                             battery):
        _, spilling, _ = battery
        spilling.execute("SET memory_limit = 0.05")
        set_verification_enabled(True)
        try:
            spilling.execute("SELECT id FROM t ORDER BY x DESC, s")
            stats = spilling.last_query_stats
            assert stats.counter("storage.spilled_sorts") == 1
            assert stats.counter("verify.kernel_crosschecks") == 1
        finally:
            set_verification_enabled(
                os.environ.get("REPRO_VERIFICATION") == "1"
            )


class TestPartitionCodes:
    def test_equal_keys_share_a_bucket_across_types_and_chunks(self):
        ints = Vector.from_values(BIGINT, [1, 2, 0, None, 7])
        floats = Vector.from_values(DOUBLE, [1.0, 2.0, -0.0, None, _NAN])
        more = Vector.from_values(DOUBLE, [_NAN, 0.0, 7.0, 1.0, 2.0])
        a = kernels.partition_codes([ints], 5, 8).tolist()
        b = kernels.partition_codes([floats], 5, 8).tolist()
        c = kernels.partition_codes([more], 5, 8).tolist()
        assert a[:4] == b[:4]
        assert (c[0], c[1], c[2], c[3], c[4]) == \
            (b[4], b[2], a[4], b[0], b[1])
        words = Vector.from_values(VARCHAR, ["x", "y", None, "x"])
        w = kernels.partition_codes([words], 4, 8)
        assert w[0] == w[3] and ((0 <= w) & (w < 8)).all()

    def test_small_integers_spread_over_buckets(self):
        keys = Vector.from_values(BIGINT, list(range(97)))
        buckets = set(kernels.partition_codes([keys], 97, 8).tolist())
        assert buckets == set(range(8))


# ---------------------------------------------------------------------------
# Array-native CHECKPOINT: vectorized zone entries, verbatim copy, rename
# ---------------------------------------------------------------------------


def _reference_zone_entry(vector):
    """The per-value loop ``compute_zone_entry`` replaced (test-only):
    numbers and text walked, each value's box from the rule."""
    from repro.quack.stats import as_number

    rows = len(vector)
    nulls = int(np.count_nonzero(~vector.validity))
    boxed = vector.ltype.is_user and \
        getattr(vector.ltype.codec, "zone_box", True)
    lo = hi = slo = shi = None
    n_num = n_str = n_box = 0
    axes, axis_hits, srids = {}, {}, set()
    for i in range(rows):
        value = vector.value(i)
        if value is None:
            continue
        number = as_number(value)
        if number is not None:
            n_num += 1
            if number == number:
                lo = number if lo is None else min(lo, number)
                hi = number if hi is None else max(hi, number)
            continue
        if isinstance(value, str):
            n_str += 1
            slo = value if slo is None or value < slo else slo
            shi = value if shi is None or value > shi else shi
            continue
        box = bounding_box(value) if boxed else None
        if box is not None:
            n_box += 1
            srids.add(box[1])
            for axis, (alo, ahi) in box[0].items():
                known = axes.get(axis)
                axes[axis] = (alo, ahi) if known is None else \
                    (min(known[0], alo), max(known[1], ahi))
                axis_hits[axis] = axis_hits.get(axis, 0) + 1
    non_null = rows - nulls
    entry = storage.ZoneMapEntry(
        rows=rows, nulls=nulls, lo=lo, hi=hi, slo=slo, shi=shi,
        numeric_complete=non_null > 0 and n_num == non_null,
        string_complete=non_null > 0 and n_str == non_null,
    )
    srids.discard(0)
    if non_null and n_box == non_null and len(srids) <= 1:
        entry.box = {a: iv for a, iv in axes.items()
                     if axis_hits[a] == n_box} or None
        entry.box_complete = True
        entry.srid = srids.pop() if srids else 0
    return entry


def _segments(ltype, values):
    return st.lists(st.one_of(st.none(), values), max_size=40).map(
        lambda items: Vector.from_values(ltype, items)
    )


_ZONE_VECTORS = st.one_of(
    _segments(BIGINT, st.integers(-(2**63), 2**63 - 1)),
    _segments(BIGINT, st.integers(-3, 3)),
    _segments(DOUBLE, st.floats(allow_nan=True, allow_infinity=True)),
    _segments(DOUBLE, st.sampled_from([0.0, -0.0, _NAN, 1.0])),
    _segments(BOOLEAN, st.booleans()),
    _segments(VARCHAR, st.text(max_size=3)),
    _segments(STBOX_TYPE, st.sampled_from(_BOXES)),
    _segments(TEMPORAL_TYPES["tgeompoint"], st.sampled_from(_TRIPS)),
    # A box column that also holds values of other shapes.
    _segments(STBOX_TYPE, st.sampled_from(_BOXES + _TRIPS + ["text", 7])),
)


class TestZoneEntryProperty:
    @given(_ZONE_VECTORS)
    @settings(max_examples=300, deadline=None)
    def test_vectorized_equals_value_loop(self, vector):
        got = storage.compute_zone_entry(vector)
        expected = _reference_zone_entry(vector)
        assert got == expected
        # to_json keeps the sign of a zero bound: what the footer holds.
        assert repr(got.to_json()) == repr(expected.to_json())

    @given(st.one_of(
        _segments(_TGEOMPOINT, st.sampled_from(_TEMPORALS)),
        _segments(_TSTZSPAN, st.sampled_from(_SPANS)),
        _segments(GEOMETRY_TYPE,
                  st.deferred(lambda: st.sampled_from(_GEOMETRIES))),
    ))
    @settings(max_examples=200, deadline=None)
    def test_column_arrays_equal_the_rule(self, vector):
        """Temporal points, spans and geometries give their boxes off the
        codec's arrays, never off the objects: row by row, the box and
        SRID the rule gives each value."""
        boxes = vector.ltype.codec.boxes(vector)
        for i, value in enumerate(vector.to_list()):
            got = {axis: (lo[i], hi[i]) for axis in AXES
                   for lo, hi in (boxes.bounds(axis),) if not np.isnan(lo[i])}
            assert ((got, int(boxes.srid[i])) if boxes.ok[i] else None) \
                == bounding_box(value)

    @pytest.mark.parametrize("ltype", [BIGINT, DOUBLE, BOOLEAN, VARCHAR,
                                       STBOX_TYPE, _TGEOMPOINT, _TSTZSPAN])
    def test_empty_and_all_null_segments(self, ltype):
        for values in ([], [None] * 5):
            vector = Vector.from_values(ltype, values)
            assert storage.compute_zone_entry(vector) == \
                _reference_zone_entry(vector)


_GROUP = STANDARD_VECTOR_SIZE


def _checkpoint_base(path, connect=Database):
    """A file of five two-and-a-half-group tables, re-attached and then
    left alone / appended to / deleted from / UPDATEd, plus a table that
    only ever lived in memory."""
    con = connect().connect() if connect is Database else connect()
    rows = [
        (i, float(i % 13) if i % 7 else None, f"w{i % 29}", i % 3 == 0)
        for i in range(_GROUP * 2 + _GROUP // 2)
    ]
    for name in ("untouched", "appended", "deleted", "updated", "cut"):
        con.execute(f"CREATE TABLE {name}(id BIGINT, x DOUBLE, s VARCHAR, "
                    "b BOOLEAN)")
        con.database.catalog.get_table(name).append_rows(rows)
    con.execute(f"CHECKPOINT '{path}'")
    att = connect().connect() if connect is Database else connect()
    att.execute(f"ATTACH '{path}'")
    att.execute("INSERT INTO appended SELECT id + 100000, x, s, b "
                "FROM appended WHERE id < 700")
    att.execute(f"DELETE FROM deleted WHERE id = {_GROUP + 5}")
    att.execute("UPDATE updated SET x = x + 1 WHERE id < 10")
    att.execute("DELETE FROM cut WHERE id = 3")  # shifts every boundary
    att.execute("CREATE TABLE fresh(id BIGINT, s VARCHAR)")
    att.database.catalog.get_table("fresh").append_rows(
        [(i, f"f{i}") for i in range(_GROUP + 9)]
    )
    return att


_CHECKPOINT_TABLES = ("untouched", "appended", "deleted", "updated", "cut",
                      "fresh")


def _snapshot(con):
    """Rows, zone maps and ANALYZE statistics per table."""
    out = {}
    for name in _CHECKPOINT_TABLES:
        table = con.database.catalog.get_table(name)
        con.execute(f"ANALYZE {name}")
        out[name] = (
            repr(con.execute(f"SELECT * FROM {name}").fetchall()),
            [[zone.to_json() for zone in group]
             for group in table.zone_maps()],
            repr(table.stats),
        )
    return out


class TestCheckpointCopy:
    def test_copied_file_is_byte_identical_to_reencoded(self, tmp_path,
                                                        monkeypatch):
        att = _checkpoint_base(tmp_path / "base.quackdb")
        live = {name: repr(att.execute(f"SELECT * FROM {name}").fetchall())
                for name in _CHECKPOINT_TABLES}
        copied, encoded = tmp_path / "copy.quackdb", tmp_path / "enc.quackdb"
        att.execute(f"CHECKPOINT '{copied}'")
        # untouched: 3 groups x 4 columns; appended: its 2 full groups;
        # deleted: groups 0 (full) — group 1 holds the tombstone and
        # everything after it is re-chunked; updated: every segment but
        # x's first (the one UPDATE wrote); cut: nothing lands on a
        # boundary.
        assert att.last_query_stats.counter("storage.segments_copied") == \
            12 + 8 + 4 + 11
        monkeypatch.setattr(storage, "_stored_segment",
                            lambda column, seg: False)
        att.execute(f"CHECKPOINT '{encoded}'")
        assert att.last_query_stats.counter("storage.segments_copied") == 0
        assert copied.read_bytes() == encoded.read_bytes()
        fresh = Database().connect()
        fresh.execute(f"ATTACH '{copied}'")
        snapshot = _snapshot(fresh)
        assert {name: rows for name, (rows, _, _) in snapshot.items()} == \
            live
        # Footer zone maps == zone maps computed from the decoded rows.
        for name in _CHECKPOINT_TABLES:
            table = fresh.database.catalog.get_table(name)
            assert snapshot[name][1] == [
                [storage.compute_zone_entry(
                    column.segment_vector(seg)).to_json()
                 for column in table._columns]
                for seg in range(len(snapshot[name][1]))
            ]

    def test_extension_payloads_copy_to_the_same_database(self, tmp_path,
                                                          monkeypatch):
        con = core.connect()
        con.execute("CREATE TABLE g(id BIGINT, box STBOX, trip TGEOMPOINT)")
        con.database.catalog.get_table("g").append_rows(
            [(i, _BOXES[i % 4] if i % 5 else None, _TRIPS[i % 4])
             for i in range(_GROUP + 100)]
        )
        base = tmp_path / "g.quackdb"
        con.execute(f"CHECKPOINT '{base}'")
        att = core.connect()
        att.execute(f"ATTACH '{base}'")
        # Touch the payloads first: memoized boxes must not matter.
        att.execute("SELECT count(*) FROM g WHERE box && "
                    "stbox('STBOX X((0,0),(9,9))')")
        copied, encoded = tmp_path / "copy.quackdb", tmp_path / "enc.quackdb"
        att.execute(f"CHECKPOINT '{copied}'")
        assert att.last_query_stats.counter("storage.segments_copied") == 6
        monkeypatch.setattr(storage, "_stored_segment",
                            lambda column, seg: False)
        att.execute(f"CHECKPOINT '{encoded}'")
        snapshots = []
        for path in (copied, encoded):
            fresh = core.connect()
            fresh.execute(f"ATTACH '{path}'")
            fresh.execute("ANALYZE g")
            table = fresh.database.catalog.get_table("g")
            snapshots.append((
                repr(fresh.execute("SELECT * FROM g").fetchall()),
                [[z.to_json() for z in group]
                 for group in table.zone_maps()],
                repr(table.stats),
            ))
        assert snapshots[0] == snapshots[1]

    def test_array_payloads_copy_byte_exact(self, tmp_path, monkeypatch):
        """Temporal points, spans and geometries persist as arrays/WKB:
        boxes memoized by queries never reach the file, so a touched
        column writes what a freshly loaded one does, and a verbatim
        copy is what re-encoding writes."""
        def loaded():
            con = core.connect()
            con.execute("CREATE TABLE g(id BIGINT, trip TGEOMPOINT, "
                        "span TSTZSPAN, geom GEOMETRY)")
            con.database.catalog.get_table("g").append_rows([
                (i, meos.tgeompoint(_TEMPORAL_TEXTS[i % 5])
                 if i % 6 else None,
                 meos.tstzspan(_SPAN_TEXTS[i % 5]),
                 geo.Point(i, -i, 4326) if i % 7 else None)
                for i in range(_GROUP + 50)
            ])
            return con

        touches = ["SELECT count(*) FROM g WHERE trip && "
                   "stbox('STBOX X((0,0),(2,2))')",
                   "SELECT count(*) FROM g WHERE trip && span",
                   "SELECT stbox(trip), ST_AsText(geom) FROM g"]
        touched, fresh = loaded(), loaded()
        for sql in touches:
            touched.execute(sql).fetchall()
        paths = {name: tmp_path / f"{name}.quackdb"
                 for name in ("touched", "fresh", "copied", "encoded")}
        touched.execute(f"CHECKPOINT '{paths['touched']}'")
        fresh.execute(f"CHECKPOINT '{paths['fresh']}'")
        assert paths["touched"].read_bytes() == paths["fresh"].read_bytes()
        att = core.connect()
        att.execute(f"ATTACH '{paths['touched']}'")
        for sql in touches:
            att.execute(sql).fetchall()
        att.execute(f"CHECKPOINT '{paths['copied']}'")
        assert att.last_query_stats.counter("storage.segments_copied") == 8
        monkeypatch.setattr(storage, "_stored_segment",
                            lambda column, seg: False)
        att.execute(f"CHECKPOINT '{paths['encoded']}'")
        assert paths["copied"].read_bytes() == \
            paths["encoded"].read_bytes() == paths["touched"].read_bytes()

    def test_copies_are_reencoded_under_verification(self, tmp_path):
        att = _checkpoint_base(tmp_path / "base.quackdb")
        set_verification_enabled(True)
        try:
            att.execute(f"CHECKPOINT '{tmp_path / 'out.quackdb'}'")
            stats = att.last_query_stats
            assert stats.counter("storage.segments_copied") == 35
            assert stats.counter("verify.segment_copy_crosschecks") == 35
        finally:
            set_verification_enabled(
                os.environ.get("REPRO_VERIFICATION") == "1"
            )


class TestCheckpointInPlace:
    """CHECKPOINT over the attached file used to truncate the mapping its
    own tables decode from (SIGBUS); it now renames a sibling over it."""

    def test_in_place_then_reattach(self, tmp_path):
        path = tmp_path / "a.quackdb"
        con = _seeded_con(_GROUP * 3 + 10)
        con.execute(f"CHECKPOINT '{path}'")
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")  # nothing decoded yet
        att.execute("INSERT INTO t VALUES (-1, 'new'), (-2, 'newer')")
        att.execute("CHECKPOINT")
        assert att.last_query_stats.counter("storage.segments_copied") == 6
        # The old mapping stays readable for the connection that holds it.
        assert att.execute("SELECT count(*), min(a) FROM t").fetchall() == \
            [(_GROUP * 3 + 12, -2)]
        fresh = Database().connect()
        fresh.execute(f"ATTACH '{path}'")
        assert fresh.execute("SELECT a, b FROM t").fetchall() == \
            [(i, f"k{i:08d}") for i in range(_GROUP * 3 + 10)] + \
            [(-1, "new"), (-2, "newer")]
        assert os.listdir(tmp_path) == ["a.quackdb"]

    def test_failed_checkpoint_keeps_the_old_file(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "a.quackdb"
        con = _seeded_con(_GROUP + 10)
        con.execute(f"CHECKPOINT '{path}'")
        before = path.read_bytes()
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")
        att.execute("INSERT INTO t VALUES (-1, 'new')")
        calls = []

        def failing(vector):
            calls.append(vector)
            if len(calls) > 1:
                raise RuntimeError("disk on fire")
            return encode(vector)

        encode = storage.encode_segment
        monkeypatch.setattr(storage, "encode_segment", failing)
        with pytest.raises(RuntimeError, match="disk on fire"):
            att.execute("CHECKPOINT")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["a.quackdb"]
        monkeypatch.setattr(storage, "encode_segment", encode)
        att.execute("CHECKPOINT")
        fresh = Database().connect()
        fresh.execute(f"ATTACH '{path}'")
        assert fresh.execute("SELECT count(*) FROM t").scalar() == \
            _GROUP + 11


class TestSpilledOperatorsOnChunks:
    """Aggregate and Grace join over the columnar spill format."""

    def _con(self):
        con = Database().connect()
        con.execute("CREATE TABLE f(id BIGINT, k VARCHAR, x DOUBLE)")
        con.execute("CREATE TABLE d(k VARCHAR, w BIGINT)")
        con.database.catalog.get_table("f").append_rows([
            (i, None if i % 31 == 0 else f"key{(i * 13) % 57:02d}",
             _FLOATS[i % len(_FLOATS)] if i % 4 else i / 7.0)
            for i in range(STANDARD_VECTOR_SIZE * 4 + 11)
        ])
        con.database.catalog.get_table("d").append_rows(
            [(f"key{i:02d}" if i % 10 else None, i) for i in range(70)]
        )
        return con

    def test_aggregate_float_sums_and_null_groups(self):
        con = self._con()
        sql = ("SELECT k, count(*), sum(x), min(x), max(id), "
               "count(DISTINCT x) FROM f GROUP BY k")
        expected = repr(con.execute(sql).fetchall())
        con.execute("SET memory_limit = 0.05")
        assert repr(con.execute(sql).fetchall()) == expected
        stats = con.last_query_stats
        assert stats.counter("storage.spilled_aggregates") == 1
        assert stats.counter("quack.kernel_ops") >= 4

    def test_join_with_residual_and_text_keys(self, from_order):
        con = self._con()
        # d first in FROM order: f lands on the build side and overflows.
        sql = ("SELECT f.id, d.w, f.x FROM d, f "
               "WHERE f.k = d.k AND f.id % 3 <> d.w % 3")
        with from_order():
            expected = repr(con.execute(sql).fetchall())
            con.execute("SET memory_limit = 0.05")
            assert repr(con.execute(sql).fetchall()) == expected
            assert con.last_query_stats.counter(
                "storage.spilled_joins") == 1


class TestColumnarInsertSelect:
    """INSERT … SELECT appends arrays; pgsim's row-wise INSERT is the
    oracle for what lands in the table."""

    _SETUP = [
        "CREATE TABLE src(id BIGINT, x DOUBLE, s VARCHAR, n VARCHAR)",
        "CREATE TABLE dst(a BIGINT, b DOUBLE, c VARCHAR, d BIGINT)",
    ]
    _INSERTS = [
        "INSERT INTO dst SELECT id, x, s, id * 2 FROM src",       # as is
        "INSERT INTO dst SELECT id, id, s, n FROM src",   # int->float, text->int
        "INSERT INTO dst(c, a) SELECT s, id + 1 FROM src WHERE id % 2 = 0",
        "INSERT INTO dst SELECT a, b, c, d FROM dst WHERE a < 3",  # itself
        "INSERT INTO dst SELECT NULL, NULL, NULL, NULL FROM src WHERE id = 1",
        "INSERT INTO dst SELECT id, x, s, id FROM src WHERE id < 0",  # none
    ]

    def _both(self):
        rows = [(i, None if i % 5 == 0 else i / 4.0,
                 None if i % 7 == 0 else f"s{i}", str(i * 3))
                for i in range(STANDARD_VECTOR_SIZE + 300)]
        cons = []
        for factory in (Database, RowDatabase):
            con = factory().connect()
            for sql in self._SETUP:
                con.execute(sql)
            con.database.catalog.get_table("src").append_rows(rows)
            cons.append(con)
        return cons

    def test_matches_row_engine(self):
        duck, pgsim = self._both()
        for sql in self._INSERTS:
            assert duck.execute(sql).fetchall() == \
                pgsim.execute(sql).fetchall(), sql
            query = "SELECT * FROM dst"
            assert repr(duck.execute(query).fetchall()) == \
                repr(pgsim.execute(query).fetchall()), sql
        table = duck.database.catalog.get_table("dst")
        assert all(chunk.count <= STANDARD_VECTOR_SIZE
                   for chunk, _ in table.scan())

    def test_wrong_arity_rejected(self):
        duck, _ = self._both()
        with pytest.raises(ExecutionError, match="expected 4 values, got 2"):
            duck.execute("INSERT INTO dst SELECT id, x FROM src")

    def test_feeds_indexes_and_marks_attached_tables(self, tmp_path):
        con = core.connect()
        con.execute("CREATE TABLE g(id BIGINT, box STBOX)")
        con.execute("CREATE INDEX rt ON g USING TRTREE(box)")
        con.database.catalog.get_table("g").append_rows(
            [(i, _BOXES[i % 4]) for i in range(50)]
        )
        path = tmp_path / "g.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        att = core.connect()
        att.execute(f"ATTACH '{path}'")
        probe = ("SELECT count(*) FROM g WHERE box && "
                 "stbox('STBOX X((100,100),(110,110))')")
        assert att.execute(probe).scalar() == 0
        att.execute("INSERT INTO g SELECT id + 100, "
                    "'STBOX X((101,101),(102,102))' FROM g WHERE id < 5")
        assert att.execute(probe).scalar() == 5
        att.execute("ANALYZE g")
        assert att.database.catalog.get_table("g").stats.row_count == 55


# ---------------------------------------------------------------------------
# Extension codecs: temporal points, time spans and geometries as arrays
# ---------------------------------------------------------------------------

import gc
import re
import zlib

from repro.analysis.config import verification_enabled
from repro.berlinmod import generate, get_query, prepare_scenario

_NAN_TRIP = TSequence(TGEOMPOINT, [
    TInstant(TGEOMPOINT, geo.Point(0.0, 0.0), 0),
    TInstant(TGEOMPOINT, geo.Point(_NAN, 1.0), 10**6),
])
_GEOMETRIES = [
    geo.Point(1.5, -0.0, 4326),
    geo.LineString([(0, 0), (1, 1), (2, 0)], 4326),
    geo.Polygon([(0, 0), (4, 0), (4, 4)], [[(1, 1), (2, 1), (2, 2)]], 4326),
    geo.MultiPolygon([geo.Polygon([(0, 0), (1, 0), (1, 1)], srid=4326)],
                     4326),
    geo.GeometryCollection([geo.Point(1, 2, 4326),
                            geo.LineString([(0, 0), (3, 3)], 4326)], 4326),
    geo.LineString([], 4326),
    geo.Polygon([], srid=4326),
    geo.GeometryCollection((), 4326),
]


def _shape(value):
    """The classes a payload is built of, all the way down."""
    if isinstance(value, TSequenceSet):
        return ("set", [_shape(s) for s in value._sequences])
    if isinstance(value, TSequence):
        return (type(value._instants).__name__, value.interp,
                value.lower_inc, value.upper_inc,
                [_shape(i) for i in value._instants])
    if isinstance(value, TInstant):
        return ("instant", _shape(value.value), value.t)
    if isinstance(value, geo.Geometry):
        return (type(value).__name__, value.srid, repr(value._key()),
                [_shape(g) for g in getattr(value, "geoms", ())])
    return type(value).__name__, repr(value)


_CODEC_CASES = {
    "tgeompoint": (_TGEOMPOINT, _PLANAR + [None], "tcsr"),
    "tgeompoint-srid": (_TGEOMPOINT, [None, _TEMPORALS[5]], "tcsr"),
    "tgeompoint-single": (_TGEOMPOINT, [_TEMPORALS[4]], "tcsr"),
    "tgeompoint-all-null": (_TGEOMPOINT, [None] * 5, "tcsr"),
    "tgeompoint-empty": (_TGEOMPOINT, [], "tcsr"),
    "tstzspan": (_TSTZSPAN, [None] + _SPANS + [None], "span"),
    "tstzspan-all-null": (_TSTZSPAN, [None] * 3, "span"),
    "tstzspan-empty": (_TSTZSPAN, [], "span"),
    "geometry": (GEOMETRY_TYPE, _GEOMETRIES + [None], "wkb"),
    "geometry-no-srid": (GEOMETRY_TYPE, [geo.Point(0, 0),
                                         geo.MultiPoint([geo.Point(1, 1)])],
                         "wkb"),
    # what the arrays cannot give back bit for bit takes the pickle
    "declined-nan": (_TGEOMPOINT, [_TEMPORALS[0], _NAN_TRIP], "pickle"),
    "declined-mixed-srid": (_TGEOMPOINT, _TEMPORALS, "pickle"),
    "declined-polygon": (TEMPORAL_TYPES["tgeometry"], [meos.tgeometry(
        "Polygon((0 0, 1 0, 1 1, 0 0))@2020-01-01")], "pickle"),
    "declined-member-srid": (GEOMETRY_TYPE, [geo.MultiPoint(
        [geo.Point(1, 1)], 4326)], "pickle"),
}


class TestPayloadCodecs:
    @pytest.mark.parametrize("case", sorted(_CODEC_CASES))
    def test_round_trip(self, case):
        ltype, values, expected_codec = _CODEC_CASES[case]
        codec, back = _round_trip_vector(ltype, values)
        assert codec == expected_codec
        if codec in ("tcsr", "span"):
            # the kernels' view, no object built yet
            assert isinstance(back, ViewVector) and not back._materialized()
        got = back.to_list()
        assert [_shape(v) for v in got] == [_shape(v) for v in values]
        if case != "declined-nan":  # a NaN coordinate has no WKT
            assert repr(got) == repr(values)

    def test_through_the_file(self, tmp_path):
        con = core.connect()
        con.execute("CREATE TABLE g(id BIGINT, trip TGEOMPOINT, "
                    "span TSTZSPAN, geom GEOMETRY)")
        rows = [(i, None if i == 3 else _PLANAR[i % len(_PLANAR)],
                 None if i == 4 else _SPANS[i % len(_SPANS)],
                 _GEOMETRIES[i % len(_GEOMETRIES)])
                for i in range(40)]
        con.database.catalog.get_table("g").append_rows(rows)
        path = tmp_path / "g.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        raw = path.read_bytes()
        (footer_offset,) = struct.unpack("<Q", raw[-16:-8])
        footer = json.loads(raw[footer_offset:-16])
        (group,) = footer["tables"][0]["row_groups"]
        assert [c["codec"] for c in group["columns"]] == \
            ["int", "tcsr", "span", "wkb"]
        att = core.connect()
        att.execute(f"ATTACH '{path}'")
        got = att.execute("SELECT * FROM g").fetchall()
        assert repr(got) == repr(rows)
        assert [_shape(v) for row in got for v in row] == \
            [_shape(v) for row in rows for v in row]


def _round_trip_vector(ltype, values):
    vector = Vector.from_values(ltype, values)
    codec, payload = storage.encode_segment(vector)
    validity = storage.decode_validity(
        storage.encode_validity(vector.validity), len(values)
    )
    return codec, storage.decode_segment(codec, payload, len(values),
                                         ltype, validity)


_TRIP_ROWS = 12


def _trip_file(tmp_path):
    """One row group: an id column, then a ``tcsr`` trip column."""
    con = core.connect()
    con.execute("CREATE TABLE t(id BIGINT, trip TGEOMPOINT)")
    con.database.catalog.get_table("t").append_rows(
        [(i, _PLANAR[i % len(_PLANAR)]) for i in range(_TRIP_ROWS)]
    )
    path = tmp_path / "t.quackdb"
    con.execute(f"CHECKPOINT '{path}'")
    return path


def _replace_last_segment(path, mutate):
    """Rewrite the payload of the file's last segment as
    ``mutate(payload)``, moving what follows it."""
    raw = path.read_bytes()
    (footer_offset,) = struct.unpack("<Q", raw[-16:-8])
    footer = json.loads(raw[footer_offset:-16])
    column = footer["tables"][0]["row_groups"][0]["columns"][-1]
    start, stop = column["offset"], column["offset"] + column["length"]
    payload = mutate(raw[start:stop])
    shift = len(payload) - column["length"]
    column["length"] += shift
    column["voffset"] += shift
    path.write_bytes(
        raw[:start] + payload + raw[stop:footer_offset]
        + json.dumps(footer).encode()
        + struct.pack("<Q", footer_offset + shift) + storage._MAGIC
    )


def _inflated(mutate_blob):
    return lambda payload: zlib.compress(
        mutate_blob(bytearray(zlib.decompress(payload)))
    )


def _at_counts(blob, which, value):
    """Set the first sequence count (``which == 0``) or instant count
    (``which == 1``) of a ``tcsr`` blob whose counts are one byte wide."""
    (temporals,) = struct.unpack_from("<I", blob)
    pos = 17 + blob[16]  # header, type name
    pos += 1 + _TRIP_ROWS + temporals  # row index steps, subtypes
    if which:
        pos += 1 + temporals  # the sequence counts
    assert blob[pos] == 0  # int8 counts
    blob[pos + 1] = value
    return bytes(blob)


#: case -> (how the payload is broken, what the error says)
_CORRUPTIONS = {
    "truncated": (_inflated(lambda blob: bytes(blob[:-7])),
                  "truncated segment"),
    "bad-zlib": (lambda payload: payload[:6] + bytes(
        b ^ 0xFF for b in payload[6:14]) + payload[14:],
                 "while decompressing"),
    "non-monotone-offsets": (_inflated(lambda blob: _at_counts(blob, 1, 0)),
                             "offsets do not increase"),
    "out-of-range-offsets": (_inflated(lambda blob: _at_counts(blob, 0, 90)),
                             "offsets do not increase|truncated segment"),
    "instants-disagree-with-rows": (_inflated(
        lambda blob: struct.pack("<I", struct.unpack_from("<I", blob)[0] + 1)
        + bytes(blob[4:])), f"temporals for {_TRIP_ROWS} rows"),
}


class TestCorruptArraySegments:
    @pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
    def test_typed_error_naming_file_and_segment(self, tmp_path, case):
        mutate, reason = _CORRUPTIONS[case]
        path = _trip_file(tmp_path)
        _replace_last_segment(path, mutate)
        att = core.connect()
        att.execute(f"ATTACH '{path}'")
        gc.collect()
        handles = len(os.listdir("/proc/self/fd"))
        for _ in range(2):  # nothing half-decoded is kept
            with pytest.raises(QuackError, match=re.escape(
                    f"{path}: corrupt tcsr segment 0") + f".*({reason})"):
                att.execute("SELECT id, trip FROM t").fetchall()
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == handles


@pytest.fixture(scope="module")
def small_city():
    return generate(0.0002, 4711)


class TestViewsStayArrays:
    def test_attached_kernels_build_no_object(self, small_city, tmp_path,
                                              monkeypatch):
        """ATTACH, the ``&&``/``trajectory``/``ST_Intersects`` (Q4) and
        ``atTime``/``eIntersects`` (Q13) kernels, a spilling sort and
        both kinds of CHECKPOINT read the decoded arrays: not one
        temporal object is built."""
        if verification_enabled():
            pytest.skip("the cross-check runs the row loop on purpose")
        built = []
        build = temporal_kernels._Store._build
        monkeypatch.setattr(temporal_kernels._Store, "_build",
                            lambda self, g: built.append(g) or build(self, g))
        duck = prepare_scenario("mobilityduck", small_city)
        pgsim = prepare_scenario("mobilitydb", small_city)
        base = tmp_path / "city.quackdb"
        duck.execute(f"CHECKPOINT '{base}'")
        att = core.connect()
        att.execute(f"ATTACH '{base}'")
        for number in (4, 13):
            sql = get_query(number).sql
            got = att.execute(sql).fetchall()
            assert got == duck.execute(sql).fetchall() == \
                pgsim.execute(sql).fetchall()
        sql = ("SELECT t.TripId, length(t.Trip) FROM (SELECT TripId, "
               "VehicleId, Trip FROM Trips ORDER BY VehicleId DESC, TripId) t")
        att.execute("SET memory_limit = 0.000001")
        got = att.execute(sql).fetchall()
        assert att.last_query_stats.counter("storage.spilled_sorts") == 1
        att.execute("SET memory_limit = 0")
        assert got == duck.execute(sql).fetchall()
        att.execute(f"CHECKPOINT '{tmp_path / 'copied.quackdb'}'")
        assert att.last_query_stats.counter("storage.segments_copied") > 0
        monkeypatch.setattr(storage, "_stored_segment",
                            lambda column, seg: False)
        att.execute(f"CHECKPOINT '{tmp_path / 'encoded.quackdb'}'")
        assert (tmp_path / "copied.quackdb").read_bytes() == \
            (tmp_path / "encoded.quackdb").read_bytes()
        assert built == []

    @pytest.mark.parametrize("number", [4, 13])
    def test_analyze_and_scan_decode_each_segment_once(
            self, small_city, tmp_path, monkeypatch, unverified, number):
        """The join's implicit ANALYZE reads the attached tables through
        their columns' decode cache: the scan after it decodes nothing
        again, and neither builds a temporal object."""
        built = []
        build = temporal_kernels._Store._build
        monkeypatch.setattr(temporal_kernels._Store, "_build",
                            lambda self, g: built.append(g) or build(self, g))
        duck = prepare_scenario("mobilityduck", small_city)
        base = tmp_path / "city.quackdb"
        duck.execute(f"CHECKPOINT '{base}'")
        att = core.connect()
        att.execute(f"ATTACH '{base}'")
        sql = get_query(number).sql
        assert att.execute(sql).fetchall() == duck.execute(sql).fetchall()
        stats = att.last_query_stats
        joined = [table for table in att.database.catalog.tables.values()
                  if table.stats is not None]
        assert stats.counter("optimizer.cbo.tables_analyzed") == len(joined)
        assert stats.counter("storage.segments_decoded") == sum(
            len(column.segments)
            for table in joined for column in table._columns
        )
        assert built == []

    def test_footprint_per_row(self, small_city, tmp_path):
        """The BerlinMOD city's checkpoint: payload columns as arrays
        keep it at or under 91.5 B/row (114.4 under the pickle)."""
        con = prepare_scenario("mobilityduck", small_city)
        path = tmp_path / "city.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        rows = sum(t.num_rows() for t in con.database.catalog.tables.values())
        assert path.stat().st_size / rows <= 91.5
