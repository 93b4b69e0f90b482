"""The result boundary: ``DataChunk.rows`` / ``Vector.to_list`` hand out
whole columns (one ``tolist`` each), never one cell at a time, and the
tuples still hold the plain Python values the per-cell walk produced."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.types import BIGINT, BOOLEAN, DOUBLE, LIST, VARCHAR
from repro.quack.vector import DataChunk, Vector

_INT64 = np.iinfo(np.int64)


def _reference_rows(chunk: DataChunk) -> list[tuple]:
    """The pre-columnar materialisation: ``Vector.value`` per cell."""
    return [
        tuple(v.value(i) for v in chunk.vectors) for i in range(chunk.count)
    ]


_CELLS = {
    BOOLEAN: st.booleans(),
    BIGINT: st.one_of(st.integers(_INT64.min, _INT64.max),
                      st.sampled_from([_INT64.min, _INT64.max, 0, -1])),
    DOUBLE: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), -0.0, 0.0, float("inf"),
                         float("-inf")]),
    ),
    VARCHAR: st.text(max_size=3),
    # object payloads, including NumPy scalars that must unwrap
    LIST: st.one_of(
        st.text(max_size=2),
        st.lists(st.integers(-3, 3), max_size=2),
        st.tuples(st.integers(-3, 3), st.floats(-1, 1)),
        st.integers(-3, 3).map(np.int64),
        st.floats(allow_nan=True).map(np.float64),
        st.booleans().map(np.bool_),
    ),
}


@st.composite
def _chunks(draw):
    count = draw(st.integers(0, 12))
    vectors = []
    for ltype in draw(st.lists(st.sampled_from(list(_CELLS)), max_size=4)):
        cells = draw(st.lists(_CELLS[ltype], min_size=count, max_size=count))
        validity = np.array(
            draw(st.lists(st.booleans(), min_size=count, max_size=count)),
            dtype=np.bool_,
        )
        if ltype.physical == "object":
            data = np.empty(count, dtype=object)
            for i, cell in enumerate(cells):
                data[i] = cell
        else:
            data = np.array(cells, dtype=ltype.physical)
        # NULL slots keep whatever payload they were drawn with
        vectors.append(Vector(ltype, data, validity))
    return DataChunk(vectors)


def _typed_repr(rows):
    return [[(type(cell).__name__, repr(cell)) for cell in row]
            for row in rows]


class TestRowsMatchPerCellReference:
    @given(_chunks())
    @settings(max_examples=300, deadline=None)
    def test_rows(self, chunk):
        rows = chunk.rows()
        assert isinstance(rows, list)
        assert all(type(row) is tuple for row in rows)
        assert _typed_repr(rows) == _typed_repr(_reference_rows(chunk))

    def test_zero_columns_and_zero_rows(self):
        assert DataChunk([]).rows() == []
        empty = DataChunk([Vector.from_values(BIGINT, []),
                           Vector.from_values(VARCHAR, [])])
        assert empty.rows() == []

    def test_object_cells_stay_the_same_objects(self):
        payload = [object(), [1, 2], ("a",)]
        vector = Vector.from_values(LIST, payload)
        assert all(a is b for a, b in zip(vector.to_list(), payload))

    def test_result_is_eager(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT, x DOUBLE, s VARCHAR)")
        con.execute("INSERT INTO t VALUES (1, 0.5, 'p'), (NULL, NULL, NULL)")
        result = con.execute("SELECT a, x, s FROM t")
        assert type(result.rows) is list
        assert result.rows == [(1, 0.5, "p"), (None, None, None)]
        assert [type(c) for c in result.rows[0]] == [int, float, str]


class TestNoPerCellReads:
    """A count, not a timer: with kernels on, sorting and DISTINCT
    aggregation read no cell through ``Vector.value``."""

    @pytest.fixture()
    def value_calls(self, monkeypatch):
        calls = []
        value = Vector.value

        def counting(self, index):
            calls.append(index)
            return value(self, index)

        monkeypatch.setattr(Vector, "value", counting)
        return calls

    @pytest.fixture(scope="class")
    def con(self):
        con = Database().connect()
        con.execute("CREATE TABLE f(id BIGINT, g BIGINT, x DOUBLE, s VARCHAR)")
        con.database.catalog.get_table("f").append_rows([
            (i, i % 7 if i % 31 else None, (i * 37 % 1009) / 8.0,
             f"w{i % 53}")
            for i in range(10_000)
        ])
        return con

    @pytest.mark.parametrize("sql, rows", [
        ("SELECT id, g, x, s FROM f ORDER BY g, x, id", 10_000),
        ("SELECT g, count(DISTINCT s), sum(DISTINCT x) FROM f GROUP BY g", 8),
        ("SELECT DISTINCT s FROM f", 53),
    ])
    def test_zero_value_calls(self, con, value_calls, sql, rows):
        assert len(con.execute(sql).fetchall()) == rows
        assert value_calls == []
        assert con.last_query_stats.counter("quack.fallback_ops") == 0


class TestCreateTableAsSelect:
    """CTAS appends the query's columns as arrays; the row engine's
    row-at-a-time CTAS is the oracle."""

    ROWS = [
        (i, i % 3 if i % 5 else None, i / 4.0 if i % 7 else None,
         f"s{i % 4}" if i % 6 else None)
        for i in range(5000)
    ]

    @pytest.mark.parametrize("query", [
        "SELECT * FROM t",
        "SELECT a, x * 2 AS y, s FROM t WHERE b = 1",
        "SELECT b, count(*) AS n, sum(x) AS total FROM t GROUP BY b",
        "SELECT a, NULL AS nothing, CASE WHEN b = 1 THEN a ELSE x END AS m"
        " FROM t ORDER BY a DESC",
        "SELECT a FROM t WHERE a < 0",
    ])
    def test_matches_row_engine(self, query):
        def run(factory):
            con = factory().connect()
            con.execute(
                "CREATE TABLE t(a BIGINT, b INTEGER, x DOUBLE, s VARCHAR)"
            )
            con.database.catalog.get_table("t").append_rows(self.ROWS)
            con.execute(f"CREATE TABLE c AS {query}")
            table = con.database.catalog.get_table("c")
            return (
                table.column_names, table.column_types,
                Counter(map(repr, con.execute("SELECT * FROM c").fetchall())),
            )

        assert run(Database) == run(RowDatabase)

    def test_source_may_be_replaced_by_its_own_query(self):
        con = Database().connect()
        con.execute("CREATE TABLE t(a BIGINT)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        con.execute("CREATE OR REPLACE TABLE t AS SELECT a + 1 AS a FROM t")
        assert con.execute("SELECT a FROM t ORDER BY a").fetchall() == [
            (2,), (3,), (4,)
        ]
