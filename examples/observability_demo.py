#!/usr/bin/env python3
"""Observability demo: query statistics, traces, and EXPLAIN ANALYZE.

Walks what ``repro.observability`` records about each query:

1. per-query statistics — counters, peak gauges, and phase timings
   captured on every ``execute`` (``Result.stats()``);
2. structured ``EXPLAIN ANALYZE`` — per-operator rows/timings with
   index-probe annotations, as text and as a JSON tree, on both the
   columnar engine and the row-store baseline;
3. each connection's query log — every statement run so far, with its
   latency, phase timings and headline counters.

Run with::

    python examples/observability_demo.py
"""

import json

from repro import core

INSERT_SCRIPT = """
INSERT INTO trips_geo
SELECT i,
  ('STBOX X((' || i || ',' || i || '),('
   || (i + 2) || ',' || (i + 2) || '))')
FROM generate_series(1, 2000) AS t(i)
"""

PROBE_QUERY = (
    "SELECT count(*) FROM trips_geo "
    "WHERE box && stbox('STBOX X((500,500),(600,600))')"
)


def setup(con, index_ddl):
    con.execute("CREATE TABLE trips_geo(id INTEGER, box STBOX)")
    con.execute(index_ddl)
    con.execute(INSERT_SCRIPT)


def main():
    duck = core.connect()
    setup(duck, "CREATE INDEX rt ON trips_geo USING TRTREE(box)")

    print("=== 1. Per-query statistics (columnar engine) ===")
    result = duck.execute(PROBE_QUERY)
    stats = result.stats()
    print(f"rows: {result.scalar()}")
    print(f"phases: {stats.format_phases()}")
    print(f"counters: {stats.format_counters()}")
    print()

    print("=== 2a. EXPLAIN ANALYZE, text ===")
    print(duck.explain_analyze(PROBE_QUERY))
    print()

    print("=== 2b. EXPLAIN ANALYZE, json (row-store baseline) ===")
    base = core.connect_baseline()
    setup(base, "CREATE INDEX gx ON trips_geo USING GIST(box)")
    tree = base.explain_analyze(PROBE_QUERY, format="json")
    print(json.dumps(tree, indent=2, sort_keys=True)[:1500])
    print()

    print("=== 3. Query logs ===")
    base.execute(PROBE_QUERY)
    for con in (duck, base):
        records = con.query_log()
        seconds = [rec.seconds for rec in records]
        probe = [rec for rec in records if rec.sql == PROBE_QUERY][-1]
        print(
            f"{probe.engine}: {len(records)} queries, "
            f"mean={sum(seconds) / len(seconds) * 1000:.2f}ms "
            f"max={max(seconds) * 1000:.2f}ms; probe query counters:"
        )
        for name, value in sorted(probe.counters.items()):
            if name.startswith(("rtree.", "index.", "pgsim.")):
                print(f"  {name} = {value}")
    print(duck.query_log(n=2, format="text"))


if __name__ == "__main__":
    main()
