"""Execution-timeline tracing: what ran when inside the execute phase.

The phase tracer (:class:`.stats.Tracer`) answers *how long* each query phase
took; this module answers *where the time went inside the execute phase*
— how operators nest and how long each one stayed open.

One :class:`TraceCollector` is attached per query (on
``QueryStatistics.trace``) by the connection entry points whenever
collection is enabled.  Emission sites in the engines record *complete*
intervals (a name, the perf-counter start, a duration, a row count).
Nothing is emitted when collection is off: every site is guarded by a
``trace is not None`` check (enforced by lint rule ANL009), and the
collector only exists when a ``QueryStatistics`` was created.

:func:`chrome_trace` merges the phase-span tree and the collected events
into Chrome trace-event JSON (the ``{"traceEvents": [...]}`` shape) with
paired ``B``/``E`` events per interval on one lane per query, so
``chrome://tracing`` and Perfetto render it as one flame track.  All
intervals share one clock: raw ``time.perf_counter()`` readings, exported
relative to the earliest one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stats import QueryStatistics

#: Event categories (the Chrome ``cat`` field): ``phase`` spans from the
#: phase tracer, ``operator`` lifetimes from profiled execution.
CATEGORIES = ("phase", "operator")

#: The lane (Chrome ``tid``) every event of a query is drawn on.
_LANE = 1


@dataclass
class TraceEvent:
    """One timed interval (all times ``perf_counter``)."""

    name: str
    category: str
    start: float
    seconds: float
    rows: int | None = None
    args: dict[str, Any] | None = None


class TraceCollector:
    """Per-query event sink."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[TraceEvent] = []

    def emit(self, name: str, category: str, start: float, seconds: float,
             rows: int | None = None,
             args: dict[str, Any] | None = None) -> None:
        """Record one completed interval."""
        self.events.append(
            TraceEvent(name, category, start, seconds, rows, args)
        )

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def _collect_events(stats: "QueryStatistics") -> list[TraceEvent]:
    """Phase spans + collector events as one flat interval list."""
    events: list[TraceEvent] = []

    def walk(span) -> None:
        events.append(TraceEvent(span.name, "phase", span.start,
                                 span.seconds))
        for child in span.children:
            walk(child)

    for span in stats.tracer.spans:
        walk(span)
    if stats.trace is not None:
        events.extend(stats.trace.events)
    return events


def chrome_trace(stats: "QueryStatistics",
                 meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """Export one query's timeline as a Chrome trace-event JSON object.

    Intervals either nest or are disjoint (operators enclose their
    children), so the stream is emitted as properly paired/nested
    ``B``/``E`` events — Perfetto renders them as one flame track.
    Timestamps are microseconds relative to the earliest interval.
    """
    events = _collect_events(stats)
    trace_events: list[dict[str, Any]] = []
    if events:
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": _LANE,
            "args": {"name": "query"},
        })
    t0 = min((e.start for e in events), default=0.0)
    # start-ascending, longest-first on ties: parents open before their
    # children, so the open-interval stack below nests.
    events.sort(key=lambda e: (e.start, -e.seconds))
    open_stack: list[TraceEvent] = []

    def close(event: TraceEvent) -> None:
        trace_events.append({
            "ph": "E", "pid": 1, "tid": _LANE,
            "ts": (event.start + event.seconds - t0) * 1e6,
        })

    for event in events:
        while open_stack and (
            open_stack[-1].start + open_stack[-1].seconds <= event.start
        ):
            close(open_stack.pop())
        begin: dict[str, Any] = {
            "ph": "B", "name": event.name, "cat": event.category,
            "pid": 1, "tid": _LANE, "ts": (event.start - t0) * 1e6,
        }
        args = dict(event.args) if event.args else {}
        if event.rows is not None:
            args["rows"] = event.rows
        if args:
            begin["args"] = args
        trace_events.append(begin)
        open_stack.append(event)
    while open_stack:
        close(open_stack.pop())
    out: dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if meta:
        out["otherData"] = dict(meta)
    return out


def write_trace(stats: "QueryStatistics", path: str,
                meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """Serialize :func:`chrome_trace` to ``path``; returns the dict."""
    out = chrome_trace(stats, meta=meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return out
