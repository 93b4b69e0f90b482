"""repro.observability — per-query observability for both engines.

Everything here describes one query; nothing aggregates across queries
or outlives the connection:

* :mod:`.context` — a contextvar holding the active query's
  :class:`QueryStatistics`.  The connection's statement entry points
  (``execute``, ``explain_analyze``) create and :func:`activate` it;
  everything below them — optimizer, verifier, executors, functions,
  indexes, storage — records only through :func:`count`,
  :func:`gauge_max` and :func:`span`, which no-op when nothing is
  active.  No statistics handle is passed or stored below the
  connection.
* :mod:`.stats` — per-query counters, gauges, and the phase tracer's
  span tree (parse → bind → optimize → execute).
* :mod:`.trace` — the execution timeline inside the execute phase and
  its Chrome trace-event export.
* :mod:`.querylog` — each connection's rolling log of finished queries.

Surfaced through ``Result.stats()`` / ``Connection.last_query_stats``,
``EXPLAIN ANALYZE`` (text with a phase header, or ``format="json"`` /
``"trace"`` via ``Connection.explain_analyze``), ``Connection.query_log``
and ``export_trace``, and the BerlinMOD runner's ``BENCH_*.json``
profile artifacts.
"""

from .context import (
    activate,
    collection_enabled,
    count,
    current_stats,
    gauge_max,
    set_collection_enabled,
    span,
)
from .querylog import QueryLog, QueryRecord
from .stats import PHASES, QueryStatistics, Span, Tracer
from .trace import TraceCollector, TraceEvent, chrome_trace, write_trace

__all__ = [
    "PHASES",
    "QueryLog",
    "QueryRecord",
    "QueryStatistics",
    "Span",
    "TraceCollector",
    "TraceEvent",
    "Tracer",
    "activate",
    "chrome_trace",
    "collection_enabled",
    "count",
    "current_stats",
    "gauge_max",
    "set_collection_enabled",
    "span",
    "write_trace",
]
