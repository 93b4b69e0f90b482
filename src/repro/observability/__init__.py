"""repro.observability — per-query observability for both engines.

Everything here describes one query; nothing aggregates across queries
or outlives the connection:

* :mod:`.context` — a contextvar holding the active query's
  :class:`QueryStatistics`; hot subsystems (R-tree, index probes,
  kernels, TOAST) call :func:`count` unconditionally and it no-ops when
  nothing is active.
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
    maybe_span,
    set_collection_enabled,
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
    "maybe_span",
    "set_collection_enabled",
    "write_trace",
]
