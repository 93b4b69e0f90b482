"""Per-query statistics: counters, gauges, and the phase trace.

One :class:`QueryStatistics` is created per ``Connection.execute`` call
(in both engines) and made ambient via :mod:`repro.observability.context`
so hot subsystems — the R-tree, index probes, kernels, TOAST detoasting —
can report without threading a handle through every call site.

Counters use dotted names grouped by subsystem, e.g.::

    rtree.nodes_visited      R-tree nodes touched during searches
    index.trtree.probes      TRTREE index probes (quack)
    index.gist.probes        GiST index probes (pgsim)
    quack.kernel_ops         vectorized kernel dispatches
    quack.fallback_ops       row-loop fallbacks
    pgsim.detoast            varlena deserializations
    optimizer.rule.<name>    optimizer rule fire counts
"""

from __future__ import annotations

from typing import Any

from ..analysis.config import verification_enabled
from ..analysis.errors import VerificationError
from .registry import is_declared_counter, is_declared_gauge
from .tracer import Tracer

#: The canonical phase order for rendering.
PHASES = ("parse", "bind", "optimize", "execute")


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

    def set_gauge(self, name: str, value: float) -> None:
        if verification_enabled() and not is_declared_gauge(name):
            raise VerificationError(
                f"undeclared gauge {name!r}: declare it in "
                f"repro.observability.registry"
            )
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
