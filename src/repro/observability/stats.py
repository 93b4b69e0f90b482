"""Per-query statistics: counters, gauges, and the phase tracer.

One :class:`QueryStatistics` is created per ``Connection.execute`` call
(in both engines) and made ambient via :mod:`repro.observability.context`
so everything below the connection — optimizer, executors, the R-tree,
index probes, kernels, TOAST detoasting — reports without a handle.

Counters use dotted names grouped by subsystem, e.g.::

    rtree.nodes_visited      R-tree nodes touched during searches
    index.trtree.probes      TRTREE index probes (quack)
    index.gist.probes        GiST index probes (pgsim)
    quack.kernel_ops         vectorized kernel dispatches
    quack.fallback_ops       row-loop fallbacks
    pgsim.detoast            fetches of out-of-line (TOASTed) datums
    optimizer.rule.<name>    optimizer rule fire counts

Each query's :class:`Tracer` records a tree of named, timed spans,
opened through the ambient :func:`~repro.observability.context.span`::

    with span("optimize"):
        with span("filter_pushdown"):
            ...

Top-level spans are the query *phases* (parse, bind, analyze,
optimize, execute); :meth:`Tracer.phase_seconds` aggregates them by name
so repeated phases (multi-statement scripts) sum up.  Spans nest arbitrarily deep and the
whole tree serializes with :meth:`Span.to_dict` for the structured
EXPLAIN output.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..analysis.config import verification_enabled
from ..analysis.errors import VerificationError
from .registry import is_declared_counter, is_declared_gauge

#: The canonical phase order for rendering; ``analyze`` is the statistics
#: a join gathers before it is planned, present only when it ran.
PHASES = ("parse", "bind", "analyze", "optimize", "execute")


@dataclass
class Span:
    """One timed region; ``seconds`` is inclusive of child spans.

    ``start`` is a raw ``time.perf_counter()`` reading — meaningless on
    its own, meaningful as an offset from the query's first span (the
    query-local clock trace events share; see
    :mod:`repro.observability.trace`)."""

    name: str
    start: float = 0.0
    seconds: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def to_dict(self, t0: float | None = None) -> dict:
        """Serialize the subtree; ``t0`` (the query's first span start)
        turns the raw perf-counter ``start`` into a timeline offset so
        serialized span trees can be placed on the same clock as trace
        events."""
        node: dict = {"name": self.name, "seconds": self.seconds}
        if t0 is not None:
            node["start"] = self.start - t0
        if self.children:
            node["children"] = [c.to_dict(t0) for c in self.children]
        return node


class Tracer:
    """Collects a tree of spans for one query (or one script)."""

    __slots__ = ("spans", "_stack")

    def __init__(self):
        #: completed (or in-flight) top-level spans, in start order
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.seconds += time.perf_counter() - span.start
            self._stack.pop()

    def phase_seconds(self) -> dict[str, float]:
        """Top-level span durations aggregated by name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def total_seconds(self) -> float:
        return sum(span.seconds for span in self.spans)

    def t0(self) -> float | None:
        """The query's clock origin: the first span's start (None when
        nothing was traced)."""
        return self.spans[0].start if self.spans else None

    def to_list(self) -> list[dict]:
        t0 = self.t0()
        return [span.to_dict(t0) for span in self.spans]


class QueryStatistics:
    """Counters, gauges, and the span trace of one query/script."""

    __slots__ = ("counters", "gauges", "tracer", "trace")

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.tracer = Tracer()
        #: optional timeline-event collector
        #: (:class:`repro.observability.trace.TraceCollector`), attached
        #: by the connection entry points; None keeps emission free.
        self.trace = None

    # -- recording ------------------------------------------------------------

    def bump(self, name: str, n: int = 1) -> None:
        if verification_enabled() and not is_declared_counter(name):
            raise VerificationError(
                f"undeclared counter {name!r}: declare it in "
                f"repro.observability.registry"
            )
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the largest observed value (peak gauges)."""
        if verification_enabled() and not is_declared_gauge(name):
            raise VerificationError(
                f"undeclared gauge {name!r}: declare it in "
                f"repro.observability.registry"
            )
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- reading --------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def phase_seconds(self) -> dict[str, float]:
        return self.tracer.phase_seconds()

    def total_seconds(self) -> float:
        return self.tracer.total_seconds()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (the ``BENCH_*.json`` cell shape)."""
        return {
            "phases": self.phase_seconds(),
            "total_seconds": self.total_seconds(),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": self.tracer.to_list(),
        }

    def format_phases(self) -> str:
        """One-line phase summary for the EXPLAIN ANALYZE header."""
        phases = self.phase_seconds()
        parts = [
            f"{name}={phases[name] * 1000:.2f}ms"
            for name in PHASES
            if name in phases
        ]
        for name in phases:  # non-standard phases, stable order after
            if name not in PHASES:
                parts.append(f"{name}={phases[name] * 1000:.2f}ms")
        parts.append(f"total={self.total_seconds() * 1000:.2f}ms")
        return " ".join(parts)

    def format_counters(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.counters.items())]
        parts += [f"{k}={v:g}" for k, v in sorted(self.gauges.items())]
        return " ".join(parts)

    def __repr__(self) -> str:
        return (
            f"<QueryStatistics {self.total_seconds() * 1000:.2f}ms "
            f"{len(self.counters)} counters>"
        )
