"""Per-connection rolling query log.

``last_query_stats`` remembers exactly one query; this module retains a
bounded FIFO window of completed-query records — what ran, how long each
phase took, the headline counters, how many rows came back, and the
error if it failed.  Each connection owns one :class:`QueryLog`; the
engines append a :class:`QueryRecord` per executed statement batch when
collection is enabled.

A slow-query threshold filters what gets retained: ``SET
log_min_duration = <ms>`` on a connection keeps only queries at least
that slow.  ``0`` logs everything (the default), a negative value
disables logging entirely.  Errors are always logged regardless of the
threshold — a fast failure is still worth keeping.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Ring-buffer capacity: how many completed queries a connection retains.
DEFAULT_CAPACITY = 128

@dataclass
class QueryRecord:
    """One completed (or failed) query."""

    sql: str
    seconds: float
    rows: int | None = None
    engine: str = ""
    error: str | None = None
    #: wall-clock completion time (``time.time()``), for log rendering
    finished_at: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "sql": self.sql,
            "seconds": self.seconds,
            "rows": self.rows,
            "engine": self.engine,
            "finished_at": self.finished_at,
            "phases": dict(self.phases),
            "counters": dict(self.counters),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


#: How many of the largest counters each record keeps (the full counter
#: dict for every logged query would dwarf the queries themselves).
TOP_COUNTERS = 8


class QueryLog:
    """Bounded FIFO ring of :class:`QueryRecord` (oldest evicted first)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 min_duration_ms: float = 0.0):
        self._records: deque[QueryRecord] = deque(maxlen=capacity)
        #: threshold in milliseconds; 0 logs all, negative disables
        self.min_duration_ms = float(min_duration_ms)
        #: lifetime totals (independent of eviction)
        self.recorded = 0
        self.suppressed = 0

    @property
    def capacity(self) -> int:
        return self._records.maxlen or 0

    def should_log(self, seconds: float, error: str | None = None) -> bool:
        if error is not None:
            return True
        if self.min_duration_ms < 0:
            return False
        return seconds * 1000.0 >= self.min_duration_ms

    def record(self, record: QueryRecord) -> bool:
        """Append if the record passes the threshold; True if kept."""
        if not self.should_log(record.seconds, record.error):
            self.suppressed += 1
            return False
        if not record.finished_at:
            record.finished_at = time.time()
        if len(record.counters) > TOP_COUNTERS:
            top = sorted(
                record.counters.items(), key=lambda kv: (-kv[1], kv[0])
            )[:TOP_COUNTERS]
            record.counters = dict(top)
        self._records.append(record)
        self.recorded += 1
        return True

    def records(self, n: int | None = None) -> list[QueryRecord]:
        """The most recent ``n`` records (all by default), oldest first."""
        if n is None or n >= len(self._records):
            return list(self._records)
        return list(self._records)[-n:]

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[QueryRecord]:
        return iter(self._records)

    # -- rendering ------------------------------------------------------------

    def format_text(self, n: int | None = None) -> str:
        """Human-readable log lines, one query per line, oldest first."""
        lines = []
        for rec in self.records(n):
            stamp = time.strftime(
                "%H:%M:%S", time.localtime(rec.finished_at)
            )
            sql = " ".join(rec.sql.split())
            if len(sql) > 60:
                sql = sql[:57] + "..."
            status = f"ERROR: {rec.error}" if rec.error else (
                f"{rec.rows} rows" if rec.rows is not None else "ok"
            )
            phases = " ".join(
                f"{name}={seconds * 1000:.2f}ms"
                for name, seconds in sorted(rec.phases.items())
            )
            line = (
                f"[{stamp}] {rec.engine or '?'} "
                f"{rec.seconds * 1000:.2f}ms {status} | {sql}"
            )
            if phases:
                line += f" | {phases}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self, n: int | None = None) -> str:
        return json.dumps([rec.to_dict() for rec in self.records(n)])
