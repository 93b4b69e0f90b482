"""INSERT converts every value like ``CAST`` and ``UPDATE … SET`` do.

INSERT VALUES and INSERT … SELECT bind the column type's cast for each
value whose type differs, on both engines, before anything is appended:
a value that does not convert fails the statement with a typed error,
the same text on both engines, and leaves the table as it was.
"""

import pytest

from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.errors import BinderError, ConversionError, ExecutionError

ENGINES = [Database, RowDatabase]


@pytest.fixture(params=ENGINES, ids=["quack", "pgsim"])
def con(request):
    con = request.param().connect()
    con.execute("CREATE TABLE t(a BIGINT)")
    con.execute("CREATE TABLE s(v VARCHAR, d DOUBLE)")
    return con


def rows(con, table="t"):
    return con.execute(f"SELECT * FROM {table}").fetchall()


class TestNumericToBigint:
    @pytest.mark.parametrize("value", ["2.5", "3.5", "-2.5", "1e3"])
    def test_values_round_like_cast(self, con, value):
        cast = con.execute(f"SELECT CAST({value} AS BIGINT)").scalar()
        con.execute(f"INSERT INTO t VALUES ({value})")
        con.execute(f"INSERT INTO t SELECT {value}")
        assert rows(con) == [(cast,), (cast,)]
        assert all(type(a) is int for (a,) in rows(con))

    def test_half_rounds_to_even(self, con):
        con.execute("INSERT INTO t VALUES (2.5), (3.5)")
        con.execute("INSERT INTO t SELECT 3.5")
        assert rows(con) == [(2,), (4,), (4,)]

    @pytest.mark.parametrize("insert", [
        "INSERT INTO t VALUES (7), (1e19)",
        "INSERT INTO t SELECT 1e19",
        "INSERT INTO t SELECT x FROM (SELECT 7.0 AS x UNION ALL "
        "SELECT 1e19) AS u",
    ])
    def test_out_of_range_fails_and_appends_nothing(self, con, insert):
        con.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConversionError) as info:
            con.execute(insert)
        assert str(info.value) == (
            "cannot cast 1e+19 from DOUBLE to BIGINT: BIGINT out of range"
        )
        assert rows(con) == [(1,)]
        con.execute("INSERT INTO t VALUES (2)")
        assert rows(con) == [(1,), (2,)]

    @pytest.mark.parametrize("literal", [
        "9223372036854775808", "-9223372036854775809",
    ])
    def test_integer_literal_past_int64_is_a_typed_error(self, con,
                                                         literal):
        with pytest.raises(BinderError, match="out of range for BIGINT"):
            con.execute(f"INSERT INTO t VALUES ({literal})")
        with pytest.raises(BinderError, match="out of range for BIGINT"):
            con.execute(f"SELECT CAST({literal} AS BIGINT)")
        assert rows(con) == []

    def test_int64_extremes_insert_exactly(self, con):
        con.execute("INSERT INTO t VALUES (-9223372036854775808), "
                    "(9223372036854775807)")
        assert rows(con) == [(-(2**63),), (2**63 - 1,)]
        assert con.execute("SELECT -2147483648").scalar() == -(2**31)

    def test_text_converts(self, con):
        con.execute("INSERT INTO t VALUES ('12')")
        con.execute("INSERT INTO t SELECT '13'")
        assert rows(con) == [(12,), (13,)]
        with pytest.raises(ConversionError):
            con.execute("INSERT INTO t VALUES ('x')")
        assert rows(con) == [(12,), (13,)]

    def test_no_cast_is_a_binder_error(self, con):
        with pytest.raises(BinderError, match="no cast from BOOLEAN"):
            con.execute("INSERT INTO t VALUES (true)")
        with pytest.raises(BinderError, match="no cast from BOOLEAN"):
            con.execute("INSERT INTO t SELECT true")
        assert rows(con) == []


class TestOtherColumns:
    def test_varchar_column_stores_text_like_update(self, con):
        con.execute("INSERT INTO s VALUES (1, 2), (2.5, '3.5')")
        con.execute("INSERT INTO s SELECT 3, 4")
        con.execute("INSERT INTO s(v) VALUES (true)")
        assert rows(con, "s") == [
            ("1", 2.0), ("2.5", 3.5), ("3", 4.0), ("true", None),
        ]
        con.execute("UPDATE s SET v = 2 WHERE v = '1'")
        assert rows(con, "s")[0] == ("2", 2.0)

    def test_null_and_same_type_pass_through(self, con):
        con.execute("INSERT INTO s VALUES (NULL, NULL), ('x', 1.5)")
        con.execute("INSERT INTO s SELECT v, d FROM s")
        assert rows(con, "s") == [(None, None), ("x", 1.5)] * 2

    def test_width_mismatch(self, con):
        for insert in ("INSERT INTO s VALUES ('a')",
                       "INSERT INTO s SELECT 'a'",
                       "INSERT INTO s SELECT 'a' WHERE false"):
            with pytest.raises(ExecutionError,
                               match="INSERT expected 2 values, got 1"):
                con.execute(insert)
        assert rows(con, "s") == []


def test_engines_agree():
    script = [
        "CREATE TABLE m(a BIGINT, b DOUBLE, c VARCHAR)",
        "INSERT INTO m VALUES (1.5, 2, 3), ('4', '5.25', 6.5)",
        "INSERT INTO m SELECT b, a, a FROM m",
        "INSERT INTO m(c, a) SELECT 7, 8.5",
    ]
    out = []
    for engine in ENGINES:
        con = engine().connect()
        for sql in script:
            con.execute(sql)
        out.append(repr(rows(con, "m")))
    assert out[0] == out[1]
    assert out[0] == repr([
        (2, 2.0, "3"), (4, 5.25, "6.5"), (2, 2.0, "2"), (5, 4.0, "4"),
        (8, None, "7"),
    ])
