"""Ambient per-query statistics (contextvar-scoped, concurrency-safe).

The previous profiler swapped module-level functions to observe
execution, which corrupted state when two profiled queries overlapped.
This module replaces that pattern: the active :class:`QueryStatistics`
lives in a :class:`contextvars.ContextVar`, so nested and concurrent
queries (threads, asyncio tasks, interleaved generators within one
thread via explicit activation) each see their own statistics object.

The connection's statement entry points create and activate the
statistics; everything below them records through :func:`count`,
:func:`gauge_max` and :func:`span`.  All three are no-ops when no query
is active (collection disabled activates none), so library code
instruments unconditionally and never holds a statistics handle.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Iterator

from .stats import QueryStatistics

_ACTIVE: ContextVar[QueryStatistics | None] = ContextVar(
    "repro_active_query_stats", default=None
)

#: Global kill switch for always-on collection (overhead escape hatch).
_COLLECTION_ENABLED = True


def set_collection_enabled(enabled: bool) -> bool:
    """Toggle statistics collection; returns the previous setting."""
    global _COLLECTION_ENABLED
    previous = _COLLECTION_ENABLED
    _COLLECTION_ENABLED = bool(enabled)
    return previous


def collection_enabled() -> bool:
    return _COLLECTION_ENABLED


def current_stats() -> QueryStatistics | None:
    """The statistics object of the query running in this context."""
    return _ACTIVE.get()


@contextmanager
def activate(stats: QueryStatistics) -> Iterator[QueryStatistics]:
    """Make ``stats`` ambient for the duration of the block."""
    token = _ACTIVE.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)


def count(name: str, n: int = 1) -> None:
    """Increment a counter on the active query's statistics, if any."""
    stats = _ACTIVE.get()
    if stats is not None:
        stats.bump(name, n)


def gauge_max(name: str, value: float) -> None:
    """Record a peak gauge on the active query's statistics, if any."""
    stats = _ACTIVE.get()
    if stats is not None:
        stats.gauge_max(name, value)


def span(name: str):
    """A tracer span on the active query's statistics, or a no-op
    context when no query is active."""
    stats = _ACTIVE.get()
    if stats is None:
        return nullcontext()
    return stats.tracer.span(name)
