"""``=`` and ``<>`` on DOUBLE make NaN equal to NaN, as PostgreSQL and
DuckDB do, whatever evaluates them: a hash join, a nested-loop residual,
IN, ANY/ALL or a filter, on both engines and over stored segments.  The
ordering comparisons stay IEEE 754: NaN is neither below nor above
anything, itself included."""

import pytest

from repro.pgsim import RowDatabase
from repro.quack import Database

NAN = float("nan")

#: (statement, count) over l(x) = r(y) = {NaN, 1.0}
STATEMENTS = [
    ("SELECT count(*) FROM l, r WHERE l.x = r.y", 2),
    ("SELECT count(*) FROM l, r WHERE l.x = r.y OR l.x < -5", 2),
    ("SELECT count(*) FROM l JOIN r ON l.x = r.y", 2),
    ("SELECT count(*) FROM l JOIN r ON l.x = r.y OR l.x < -5", 2),
    ("SELECT count(*) FROM l WHERE x IN (SELECT y FROM r)", 2),
    ("SELECT count(*) FROM l WHERE x = ANY (SELECT y FROM r)", 2),
    ("SELECT count(*) FROM l WHERE x NOT IN (SELECT y FROM r)", 0),
    ("SELECT count(*) FROM l WHERE x <> ALL (SELECT y FROM r)", 0),
    ("SELECT count(*) FROM l, r WHERE l.x <> r.y", 2),
    ("SELECT count(*) FROM l WHERE x = x", 2),
    ("SELECT count(*) FROM l, r WHERE l.x <= r.y", 1),
    ("SELECT count(*) FROM l, r WHERE l.x < r.y OR l.x > r.y", 0),
]


def _load(con):
    con.execute("CREATE TABLE l(x DOUBLE)")
    con.execute("CREATE TABLE r(y DOUBLE)")
    for name in ("l", "r"):
        con.database.catalog.get_table(name).append_rows([(NAN,), (1.0,)])
    return con


@pytest.fixture(scope="module", params=["quack", "pgsim", "attached"])
def con(request, tmp_path_factory):
    if request.param == "pgsim":
        return _load(RowDatabase().connect())
    con = _load(Database().connect())
    if request.param == "attached":
        path = tmp_path_factory.mktemp("nan") / "nan.quackdb"
        con.execute(f"CHECKPOINT '{path}'")
        con = Database().connect()
        con.execute(f"ATTACH '{path}'")
    return con


@pytest.mark.parametrize("sql, count", STATEMENTS)
def test_nan_equals_nan(con, sql, count):
    assert con.execute(sql).fetchall() == [(count,)]


def test_btree_index_finds_nan():
    """pgsim's BTREE probe keys values as ``=`` compares them, so an
    index scan returns the rows the sequential scan does."""
    con = _load(RowDatabase().connect())
    sql = "SELECT count(*) FROM l WHERE x = CAST('NaN' AS DOUBLE)"
    assert con.execute(sql).fetchall() == [(1,)]
    con.execute("CREATE INDEX lx ON l USING BTREE(x)")
    assert "BTREE_INDEX_SCAN" in con.execute("EXPLAIN " + sql).rows[0][0]
    assert con.execute(sql).fetchall() == [(1,)]
