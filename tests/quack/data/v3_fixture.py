"""The tables of the version-3 fixture file ``v3.quackdb``.

The fixture is what a version-3 writer made of :func:`build`'s tables:
two row groups of native columns (NULLs, int64 extremes, special
doubles, unicode, empty and NUL-bearing text) and the extension codecs.
A current reader must attach it with the same rows.  Rebuild it from a
version-3 checkout::

    PYTHONPATH=<v3 checkout>/src python tests/quack/data/v3_fixture.py \\
        tests/quack/data/v3.quackdb
"""

import math
import random
import sys

#: one full row group and a short one
ROWS = 2100

_TEXT = ["", "a\x00b", "ünïcödé", "北京", "😀", "plain", "w0001"]
_DOUBLES = [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, 1e300, 0.1,
            2.5, -1234.5678]


def fact_rows() -> list[tuple]:
    rng = random.Random(46)
    return [
        (
            i,
            None if i % 11 == 0 else rng.choice(
                [-(2**63), 2**63 - 1, rng.randrange(-1000, 1000)]),
            None if i % 13 == 0 else rng.choice(_DOUBLES),
            None if i % 17 == 0 else rng.choice(_TEXT),
            None if i % 19 == 0 else rng.random() < 0.5,
            1_577_836_800_000_000 + i * 1_000_000,
        )
        for i in range(ROWS)
    ]


def build(con) -> None:
    """The fixture's tables on a ``repro.core`` connection."""
    con.execute("CREATE TABLE fact(id BIGINT, k BIGINT, x DOUBLE, "
                "s VARCHAR, b BOOLEAN, ts TIMESTAMP)")
    con.database.catalog.get_table("fact").append_rows(fact_rows())
    con.execute("CREATE TABLE trips(id BIGINT, trip TGEOMPOINT, "
                "span TSTZSPAN, geom GEOMETRY)")
    con.execute(
        "INSERT INTO trips VALUES (1, '[Point(0 0)@2020-01-01, "
        "Point(1 1)@2020-01-02]', '[2020-01-01, 2020-01-02)', "
        "ST_Point(1, 2)), (2, NULL, NULL, NULL), (3, '[Point(2 3)@"
        "2020-01-03, Point(4 4)@2020-01-04, Point(5 1)@2020-01-05]', "
        "'[2020-01-03, 2020-01-05]', ST_Point(-1, 0.5))"
    )


if __name__ == "__main__":
    from repro import core

    connection = core.connect()
    build(connection)
    connection.execute(f"CHECKPOINT '{sys.argv[1]}'")
