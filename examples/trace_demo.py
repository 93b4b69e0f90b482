#!/usr/bin/env python3
"""Timeline tracing demo: where a query's time actually goes.

Runs an aggregation, then walks the two observability surfaces this
repo adds on top of per-query stats:

1. the execution timeline — Chrome trace-event JSON with one flame
   track per query, written to ``trace_demo_out/`` (drag a file into
   https://ui.perfetto.dev or ``chrome://tracing`` to explore);
2. the rolling query log — every completed query with phase timings,
   filtered by a slow-query threshold (``SET log_min_duration``).

Run with::

    python examples/trace_demo.py
"""

import json
import os

from repro import core

OUT_DIR = "trace_demo_out"


def lane_summary(trace: dict) -> str:
    lanes = [
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    begins = [e for e in trace["traceEvents"] if e["ph"] == "B"]
    cats = sorted({e["cat"] for e in begins})
    return (
        f"{len(begins)} intervals on {len(lanes)} lanes "
        f"({', '.join(lanes)}); categories: {', '.join(cats)}"
    )


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    con = core.connect()

    print("=== 1. execution timeline ===")
    con.execute("CREATE TABLE readings(sensor INTEGER, value DOUBLE)")
    con.execute(
        "INSERT INTO readings SELECT i % 50, i * 0.25 FROM "
        "generate_series(1, 20000) AS t(i)"
    )
    result = con.execute(
        "SELECT sensor, avg(value), count(*) FROM readings "
        "GROUP BY sensor ORDER BY sensor"
    )
    trace = result.trace()
    path = os.path.join(OUT_DIR, "aggregate.trace.json")
    con.export_trace(path)
    print(f"aggregate over 20k rows: {lane_summary(trace)}")
    print(f"wrote {path}")

    # the profiled form adds per-operator lifetimes and the plan text
    deep = con.explain_analyze(
        "SELECT sensor, max(value) FROM readings GROUP BY sensor",
        format="trace",
    )
    path = os.path.join(OUT_DIR, "profiled.trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(deep, handle)
    print(f"profiled run:            {lane_summary(deep)}")
    print(f"wrote {path}  (plan in otherData)")

    print()
    print("=== 2. rolling query log ===")
    con.execute("SET log_min_duration = 0")  # log everything
    print(con.query_log(n=3, format="text"))
    con.execute("SET log_min_duration = 10000")
    con.execute("SELECT count(*) FROM readings")  # fast: suppressed
    print("with a 10s threshold the fast count(*) was suppressed; "
          f"log still has {len(con.query_log())} entries")

if __name__ == "__main__":
    main()
