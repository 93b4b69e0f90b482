"""Index differential: every box index returns the unindexed scan's rows.

Seeded rows of ``stbox``, ``tgeompoint``, ``geometry`` and ``tstzspan``
are loaded once with the index created before the inserts (the append
path, paper §4.2.1) and once with it created after (the bulk path,
§4.2.2).  For TRTREE and RTREE on quack and GIST on pgsim, a constant
probe and a join probe must return the rows of the same query without
the index, and the two builds must report the same candidate counts: an
R-tree's candidate set does not depend on the shape of the tree.
"""

import random
from collections import Counter

import pytest

from repro import core
from repro.berlinmod import QUERIES, generate, prepare_scenario

def _ts(seconds):
    hours, rest = divmod(seconds, 3600)
    day, hour = divmod(hours, 24)
    minute, second = divmod(rest, 60)
    return f"2025-01-{day + 1:02d} {hour:02d}:{minute:02d}:{second:02d}+00"


def _span(rng, longest=6 * 3600):
    start = rng.randrange(0, 20 * 86_400)
    return start, start + rng.randrange(60, longest)


def _stbox(rng, kinds=True):
    side = 8 if kinds else 30
    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
    w, h = rng.uniform(0, side), rng.uniform(0, side)
    lo, hi = _span(rng, 6 * 3600 if kinds else 4 * 86_400)
    corners = f"(({x:.3f},{y:.3f}),({x + w:.3f},{y + h:.3f}))"
    kind = rng.random() if kinds else 1.0
    if kind < 0.15:
        return f"STBOX X{corners}"
    if kind < 0.25:
        return f"STBOX T([{_ts(lo)}, {_ts(hi)}])"
    return f"STBOX XT({corners},[{_ts(lo)}, {_ts(hi)}])"


def _tgeompoint(rng):
    lo, _ = _span(rng)
    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
    instants = []
    for step in range(rng.randrange(1, 5)):
        instants.append(f"POINT({x:.3f} {y:.3f})@{_ts(lo + 600 * step)}")
        x += rng.uniform(-4, 4)
        y += rng.uniform(-4, 4)
    return f"[{', '.join(instants)}]"


def _geometry(rng):
    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
    if rng.random() < 0.5:
        return f"POINT({x:.3f} {y:.3f})"
    w, h = rng.uniform(0.5, 8), rng.uniform(0.5, 8)
    return (f"POLYGON(({x:.3f} {y:.3f}, {x + w:.3f} {y:.3f}, "
            f"{x + w:.3f} {y + h:.3f}, {x:.3f} {y + h:.3f}, "
            f"{x:.3f} {y:.3f}))")


def _tstzspan(rng):
    lo, hi = _span(rng)
    return f"[{_ts(lo)}, {_ts(hi)}]"


_MAKERS = (_stbox, _tgeompoint, _geometry, _tstzspan)


def _rows(seed, count, probes=False):
    """``(id, stbox, tgeompoint, geometry, tstzspan)`` text rows, about
    one value in twelve NULL.  A probe row's stbox is larger and has
    both dimensions, so ``&&`` against any data box shares one."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        values = [None if rng.random() < 0.08 else make(rng)
                  for make in _MAKERS]
        if probes and values[0] is not None:
            values[0] = _stbox(rng, kinds=False)
        rows.append((i, *values))
    return rows


_DDL = ("CREATE TABLE {name}(id INTEGER, b STBOX, p TGEOMPOINT, "
        "g GEOMETRY, s TSTZSPAN)")
_DATA = _rows(4711, 240)
_PROBES = _rows(815, 30, probes=True)


def _literal(value):
    return "NULL" if value is None else "'" + value + "'"


def _insert(con, name, rows):
    for start in range(0, len(rows), 60):
        values = ", ".join(
            f"({row[0]}, {', '.join(map(_literal, row[1:]))})"
            for row in rows[start:start + 60]
        )
        con.execute(f"INSERT INTO {name} VALUES {values}")


def _load(connect, index_ddl, build):
    """``t`` holds the data and, unless ``build`` is None, the index —
    created before the inserts (``append``) or after them (``bulk``);
    ``q`` holds the probe rows."""
    con = connect()
    con.execute(_DDL.format(name="t"))
    con.execute(_DDL.format(name="q"))
    _insert(con, "q", _PROBES)
    if build == "append":
        con.execute(index_ddl)
    _insert(con, "t", _DATA)
    if build == "bulk":
        con.execute(index_ddl)
    return con


_QBOX = ("STBOX XT(((30,30),(55,60)),"
         "[2025-01-03 00:00:00+00, 2025-01-12 00:00:00+00])")
_QSPAN = "[2025-01-05 00:00:00+00, 2025-01-07 12:00:00+00]"
_QPOLY = "POLYGON((20 20, 70 25, 60 75, 25 60, 20 20))"

#: (engine, index type, column, probe SQL: a constant probe, then join
#: probes)
_CASES = [
    ("quack", "TRTREE", "b", (
        f"SELECT id FROM t WHERE b && STBOX '{_QBOX}'",
        "SELECT q.id, t.id FROM q, t WHERE q.b && t.b",
    )),
    ("quack", "TRTREE", "p", (
        f"SELECT id FROM t WHERE p && STBOX '{_QBOX}'",
        "SELECT q.id, t.id FROM q, t WHERE t.p && q.b",
        # A time-only probe of a temporal point: rectangle unbounded in x, y
        "SELECT q.id, t.id FROM q, t WHERE t.p && q.s",
    )),
    ("quack", "TRTREE", "s", (
        f"SELECT id FROM t WHERE s && TSTZSPAN '{_QSPAN}'",
        "SELECT q.id, t.id FROM q, t WHERE q.s && t.s",
    )),
    ("quack", "RTREE", "g", (
        "SELECT id FROM t WHERE "
        f"ST_Intersects(g, ST_GeomFromText('{_QPOLY}'))",
    )),
    ("pgsim", "GIST", "b", (
        f"SELECT id FROM t WHERE b && STBOX '{_QBOX}'",
        "SELECT q.id, t.id FROM q, t WHERE q.b && t.b",
    )),
    ("pgsim", "GIST", "p", (
        f"SELECT id FROM t WHERE p && STBOX '{_QBOX}'",
        "SELECT q.id, t.id FROM q, t WHERE t.p && q.s",
    )),
    ("pgsim", "GIST", "s", (
        f"SELECT id FROM t WHERE s && TSTZSPAN '{_QSPAN}'",
        "SELECT q.id, t.id FROM q, t WHERE q.s && t.s",
    )),
]
_IDS = [f"{engine}-{kind}-{column}" for engine, kind, column, _ in _CASES]


def _connect(engine):
    return core.connect if engine == "quack" else core.connect_baseline


def _run(con, sql):
    result = con.execute(sql)
    rows = Counter(result.fetchall())
    counters = result.stats().counters
    return rows, counters


def _candidates(counters):
    return {name: value for name, value in counters.items()
            if name.startswith("index.") and name.endswith(".candidates")}


@pytest.fixture(scope="module")
def unindexed():
    return {engine: _load(_connect(engine), None, None)
            for engine in ("quack", "pgsim")}


@pytest.mark.parametrize("engine,kind,column,queries", _CASES, ids=_IDS)
def test_index_rows_equal_unindexed_scan(unindexed, unverified, engine,
                                         kind, column, queries):
    ddl = f"CREATE INDEX ti ON t USING {kind}({column})"
    builds = {build: _load(_connect(engine), ddl, build)
              for build in ("append", "bulk")}
    live = sum(1 for row in _DATA if row[1 + "bpgs".index(column)])
    for con in builds.values():
        assert len(con.database.catalog.indexes["ti"]._tree) == live
    for sql in queries:
        want, _ = _run(unindexed[engine], sql)
        assert want, f"{sql!r} selects no row: the probe proves nothing"
        seen = {}
        for build, con in builds.items():
            got, counters = _run(con, sql)
            assert got == want, f"{build}: {sql}"
            used = counters.get("executor.index_scans", 0) + \
                counters.get("executor.join_index_probes", 0)
            assert used, f"{build}: {sql} did not probe the index"
            seen[build] = _candidates(counters)
        assert seen["append"] == seen["bulk"], sql
        assert seen["bulk"][f"index.{kind.lower()}.candidates"], sql


def test_rtree_join_probe_equals_unindexed_scan(unindexed, unverified):
    """No SQL operator plans an RTREE join, so the join probe is the
    index's batched probe of every probe geometry: its candidates must
    be exactly the rows whose bounding boxes meet the probe's, on both
    builds."""
    ddl = "CREATE INDEX ti ON t USING RTREE(g)"
    probes = [row[0] for row in unindexed["quack"].execute(
        "SELECT g FROM q WHERE g IS NOT NULL ORDER BY id").fetchall()]
    data = unindexed["quack"].execute("SELECT id, g FROM t").fetchall()
    want = []
    for probe in probes:
        pxmin, pymin, pxmax, pymax = probe.bounds()
        hits = set()
        for row_id, geom in data:
            if geom is None:
                continue
            xmin, ymin, xmax, ymax = geom.bounds()
            if xmin <= pxmax and pxmin <= xmax and \
                    ymin <= pymax and pymin <= ymax:
                hits.add(row_id)
        want.append(hits)
    assert any(want)
    for build in ("append", "bulk"):
        con = _load(core.connect, ddl, build)
        index = con.database.catalog.indexes["ti"]
        got = index.probe_batch("st_intersects", probes)
        assert [set(ids or ()) for ids in got] == want, build
        assert [set(index.probe("st_intersects", p) or ())
                for p in probes] == want, build


#: Per-query ``index.gist.probes`` / ``index.gist.candidates`` of the
#: BerlinMOD queries on ``mobilitydb_idx`` at SF 0.0002, seed 4711 (the
#: benchmark's city); queries that probe no GiST index are absent.
_GIST_COUNTERS = {
    4: (10, 156), 7: (10, 156), 8: (10, 164), 9: (100, 1356),
    10: (52, 177), 13: (10, 164), 15: (10, 164), 16: (43, 1097),
}


def test_berlinmod_gist_counters_pinned(unverified):
    con = prepare_scenario("mobilitydb_idx", generate(0.0002, 4711))
    seen = {}
    for query in QUERIES:
        counters = con.execute(query.sql).stats().counters
        probes = counters.get("index.gist.probes", 0)
        if probes:
            seen[query.number] = (probes,
                                  counters.get("index.gist.candidates", 0))
    assert seen == _GIST_COUNTERS
