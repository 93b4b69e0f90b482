"""The lightweight segment codecs (``repro.quack.compression``): the
bit-packer, ``int``/``alp``/``dict`` round trips bit for bit through
``encode_segment``/``decode_segment``, CHECKPOINT/ATTACH and spill files,
the version-3 fixture, and where a file's bytes go."""

import importlib.util
import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core
from repro.quack import Database, compression, storage
from repro.quack.types import BIGINT, BOOLEAN, DOUBLE, TIMESTAMP, VARCHAR
from repro.quack.vector import DataChunk, Vector

_DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "v3_fixture", _DATA / "v3_fixture.py")
v3_fixture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(v3_fixture)

_INT64 = st.integers(-(2**63), 2**63 - 1)
_EXTREMES = st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 1])
_SPECIAL = [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, 2.2e-308,
            1e300, -1e300, 0.1, 2**53, 2.0**53 + 2]
_LEGACY = {"delta", "bitpack"}


def _round_trip(ltype, values):
    vector = Vector.from_values(ltype, values)
    codec, payload = compression.encode_segment(vector)
    back = compression.decode_segment(codec, payload, len(values), ltype,
                                      vector.validity.copy())
    # an encoding depends on the valid rows alone: the decoded vector
    # encodes to the same bytes
    assert compression.encode_segment(back) == (codec, payload)
    return codec, payload, back.to_list()


def _bits(values):
    return [None if v is None else struct.pack("<d", v) for v in values]


class TestBitPacking:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 64).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.integers(0, 2**w - 1), max_size=200))))
    def test_widths_round_trip(self, case):
        width, values = case
        array = np.array(values, dtype=np.uint64)
        blob = compression.pack(array, width)
        assert len(blob) == -(-len(values) * width // 8)
        assert compression.unpack(blob, len(values), width).tolist() == values

    def test_wrong_length_is_refused(self):
        blob = compression.pack(np.arange(10, dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            compression.unpack(blob[:-1], 10, 4)


class TestIntCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), _INT64, _EXTREMES), max_size=300))
    def test_round_trip(self, values):
        codec, _, got = _round_trip(BIGINT, values)
        assert codec == "int" and got == values

    @pytest.mark.parametrize("values,mode", [
        ([7] * 100, compression._CONSTANT),
        ([None] * 100, compression._CONSTANT),
        ([None, 5, None, 5], compression._CONSTANT),
        ([42], compression._CONSTANT),
        ([], compression._CONSTANT),
        (list(range(10, 2058)), compression._STEP),
        (list(range(0, -300, -3)), compression._STEP),
        ([3, 1, 2, 0] * 50, compression._FOR),
        ([i * 1000 + i % 2 for i in range(100)], compression._DELTA),
    ])
    def test_the_smallest_mode_is_chosen(self, values, mode):
        codec, payload, got = _round_trip(BIGINT, values)
        assert got == values
        assert compression._INT.unpack_from(payload)[0] == mode
        if mode in (compression._CONSTANT, compression._STEP):
            assert len(payload) == compression._INT.size

    def test_frame_minimum_codes_the_nulls(self):
        _, payload, _ = _round_trip(BIGINT, [1000, None, 1003, None])
        mode, width, base, _ = compression._INT.unpack_from(payload)
        assert (mode, width, base) == (compression._FOR, 2, 1000)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.booleans()), max_size=200))
    def test_booleans(self, values):
        codec, _, got = _round_trip(BOOLEAN, values)
        assert codec == "int" and got == values

    def test_timestamps(self):
        values = [1_577_836_800_000_000 + i * 1_000_000 for i in range(50)]
        codec, payload, got = _round_trip(TIMESTAMP, values)
        assert (codec, got, len(payload)) == ("int", values, 18)


class TestAlpCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.floats(), st.sampled_from(
        _SPECIAL)), max_size=300))
    def test_bit_for_bit(self, values):
        codec, _, got = _round_trip(DOUBLE, values)
        assert codec in ("alp", "raw")
        assert _bits(got) == _bits(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.decimals(-10**6, 10**6, places=3, allow_nan=False,
                                allow_infinity=False).map(float),
                    min_size=50, max_size=300))
    def test_decimals_take_alp(self, values):
        codec, payload, got = _round_trip(DOUBLE, values)
        assert codec == "alp" and _bits(got) == _bits(values)
        assert compression._ALP.unpack_from(payload)[0] <= 3

    def test_exceptions_keep_their_bits(self):
        values = [i / 4 for i in range(200)] + _SPECIAL + [None]
        codec, payload, got = _round_trip(DOUBLE, values)
        exponent, _, exceptions, _ = compression._ALP.unpack_from(payload)
        assert (codec, exponent) == ("alp", 2)
        # NaN, -0.0, both infinities, the two tiny ones, the two 1e300s,
        # and 2**53 (and past it) times 100
        assert exceptions == 10
        assert _bits(got) == _bits(values)

    def test_sixty_fourths_below_a_million(self):
        """``relational.kernels``' ``fact.x``: exponent 6, 40 bits."""
        rng = random.Random(7)
        values = [rng.randrange(64_000_000) / 64.0 for _ in range(2048)]
        codec, payload, got = _round_trip(DOUBLE, values)
        assert compression._ALP.unpack_from(payload)[:3] == (6, 40, 0)
        assert len(payload) == compression._ALP.size + 2048 * 5
        assert got == values

    def test_raw_when_alp_is_not_smaller(self):
        rng = random.Random(3)
        values = [rng.random() for _ in range(100)]
        codec, payload, got = _round_trip(DOUBLE, values)
        assert (codec, len(payload), got) == ("raw", 800, values)

    @pytest.mark.parametrize("values", [[None] * 9, [1.5] * 9, [2.5], []])
    def test_small_and_constant_segments(self, values):
        codec, payload, got = _round_trip(DOUBLE, values)
        assert got == values
        assert len(payload) <= max(8 * len(values), compression._ALP.size)


class TestDictCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.text(), st.sampled_from(
        ["", "\x00", "a\x00b", "😀", "北京"])), max_size=200))
    def test_round_trip(self, values):
        codec, _, got = _round_trip(VARCHAR, values)
        assert codec == "dict" and got == values

    def test_layout(self):
        values = [f"name{i:06d}" for i in range(1000)]
        codec, payload, got = _round_trip(VARCHAR, values)
        assert got == values
        entries, lwidth, cwidth = compression._DICT.unpack_from(payload)
        assert (entries, lwidth, cwidth) == (1000, 4, 10)
        assert len(payload) == compression._DICT.size + 500 + 10_000 + 1250


def _footer(path):
    raw = Path(path).read_bytes()
    (offset,) = struct.unpack("<Q", raw[-16:-8])
    return json.loads(raw[offset:-16])


def _codecs(path):
    return {column["codec"] for table in _footer(path)["tables"]
            for group in table["row_groups"] for column in group["columns"]}


_ROW = st.tuples(
    st.one_of(st.none(), _INT64, _EXTREMES),
    st.one_of(st.none(), st.floats(), st.sampled_from(_SPECIAL)),
    st.one_of(st.none(), st.text()),
    st.one_of(st.none(), st.booleans()),
)


class TestThroughTheFile:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_ROW, max_size=60), st.integers(1, 3))
    def test_checkpoint_attach(self, tmp_path_factory, rows, copies):
        rows = rows * copies
        path = tmp_path_factory.mktemp("c") / "t.quackdb"
        con = Database().connect()
        con.execute("CREATE TABLE t(k BIGINT, x DOUBLE, s VARCHAR, "
                    "b BOOLEAN)")
        con.database.catalog.get_table("t").append_rows(rows)
        con.execute(f"CHECKPOINT '{path}'")
        att = Database().connect()
        att.execute(f"ATTACH '{path}'")
        got = att.execute("SELECT * FROM t").fetchall()
        assert [(k, _bits([x]), s, b) for k, x, s, b in got] == \
            [(k, _bits([x]), s, b) for k, x, s, b in rows]
        assert not _codecs(path) & _LEGACY

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_ROW, min_size=1, max_size=60))
    def test_spill_file(self, rows):
        types = [BIGINT, DOUBLE, VARCHAR, BOOLEAN]
        chunk = DataChunk([Vector.from_values(t, list(column))
                           for t, column in zip(types, zip(*rows))])
        with storage.SpillFile(types) as spill:
            spill.write_chunk(chunk)
            (back,) = list(spill.read_chunks())
        got = back.rows()
        assert [(k, _bits([x]), s, b) for k, x, s, b in got] == \
            [(k, _bits([x]), s, b) for k, x, s, b in rows]

    def test_spill_writes_native_columns_raw(self, monkeypatch):
        written = []
        encode = storage.encode_segment
        monkeypatch.setattr(storage, "encode_segment", lambda v: (
            written.append(encode(v)[0]) or encode(v)))
        chunk = DataChunk([Vector.from_values(BIGINT, [1, 2]),
                           Vector.from_values(DOUBLE, [0.5, None]),
                           Vector.from_values(VARCHAR, ["a", None])])
        with storage.SpillFile([BIGINT, DOUBLE, VARCHAR]) as spill:
            spill.write_chunk(chunk)
            assert [v.to_list() for v in next(spill.read_chunks()).vectors] \
                == [[1, 2], [0.5, None], ["a", None]]
        # only the text column went through the database file's codecs
        assert written == ["dict"]

    def test_the_writer_is_deterministic(self, tmp_path):
        con = core.connect()
        v3_fixture.build(con)
        con.execute(f"CHECKPOINT '{tmp_path / 'a.quackdb'}'")
        con.execute(f"CHECKPOINT '{tmp_path / 'b.quackdb'}'")
        again = core.connect()
        v3_fixture.build(again)
        again.execute(f"CHECKPOINT '{tmp_path / 'c.quackdb'}'")
        a, b, c = ((tmp_path / f"{n}.quackdb").read_bytes() for n in "abc")
        assert a == b == c
        codecs = _codecs(tmp_path / "a.quackdb")
        # x is mostly NaN, infinities and other exceptions: raw in the
        # full group, alp in the short one
        assert codecs == {"int", "raw", "alp", "dict", "tcsr", "span",
                          "wkb"}
        assert all("meta" not in column
                   for table in _footer(tmp_path / "a.quackdb")["tables"]
                   for group in table["row_groups"]
                   for column in group["columns"])


class TestVersion3Fixture:
    """``data/v3.quackdb`` was written by the last version-3 writer."""

    def _expected(self):
        con = core.connect()
        v3_fixture.build(con)
        return con

    def test_attaches_with_identical_rows(self):
        assert _footer(_DATA / "v3.quackdb")["format_version"] == 3
        assert _codecs(_DATA / "v3.quackdb") == {
            "delta", "raw", "dict", "bitpack", "tcsr", "span", "wkb"}
        expected = self._expected()
        att = core.connect()
        att.execute(f"ATTACH '{_DATA / 'v3.quackdb'}'")
        for table in ("fact", "trips"):
            sql = f"SELECT * FROM {table}"
            assert repr(att.execute(sql).fetchall()) == \
                repr(expected.execute(sql).fetchall())

    def test_rewrites_as_version_4(self, tmp_path):
        att = core.connect()
        att.execute(f"ATTACH '{_DATA / 'v3.quackdb'}'")
        path = tmp_path / "v4.quackdb"
        att.execute(f"CHECKPOINT '{path}'")
        assert att.last_query_stats.counters.get(
            "storage.segments_copied", 0) == 0
        assert _footer(path)["format_version"] == storage.FORMAT_VERSION
        assert not _codecs(path) & _LEGACY
        fresh = core.connect()
        fresh.execute(f"ATTACH '{path}'")
        expected = self._expected()
        for table in ("fact", "trips"):
            sql = f"SELECT * FROM {table}"
            assert repr(fresh.execute(sql).fetchall()) == \
                repr(expected.execute(sql).fetchall())


class TestDescribe:
    def test_from_the_footer(self, tmp_path):
        con = core.connect()
        v3_fixture.build(con)
        path = tmp_path / "d.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        rows = storage.describe(str(path))
        assert [r[:3] for r in rows[:6]] == [
            ("fact", "id", "int"), ("fact", "k", "int"),
            ("fact", "x", "raw"), ("fact", "s", "dict"),
            ("fact", "b", "int"), ("fact", "ts", "int")]
        for column in ("id", "k", "x", "s", "b", "ts"):
            assert sum(r[5] for r in rows if r[:2] == ("fact", column)) \
                == v3_fixture.ROWS
        assert ("fact", "id", "int", 36, 0, v3_fixture.ROWS) in rows
        footer = _footer(path)
        assert sum(r[3] + r[4] for r in rows) == sum(
            c["length"] + c["vlength"] for t in footer["tables"]
            for g in t["row_groups"] for c in g["columns"])

    def test_relational_bytes_per_row(self, tmp_path):
        """A seeded ``fact`` table of the ``relational.kernels`` shape."""
        rng = random.Random(11)
        words = [f"w{i:04d}" for i in range(500)]
        rows = [(i, rng.randrange(1000), rng.randrange(64),
                 rng.randrange(64_000_000) / 64.0, rng.choice(words))
                for i in range(10_240)]
        con = Database().connect()
        con.execute("CREATE TABLE fact(id BIGINT, k BIGINT, g BIGINT, "
                    "x DOUBLE, s VARCHAR)")
        con.database.catalog.get_table("fact").append_rows(rows)
        path = tmp_path / "f.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        per_row = {column: (payload + validity) / count for
                   _, column, _, payload, validity, count in
                   storage.describe(str(path))}
        assert per_row["id"] < 0.01
        assert per_row["g"] < 0.76
        assert per_row["x"] < 5.01
        assert per_row["s"] < 3.0
        assert path.stat().st_size / len(rows) < 11.0
