"""Span recorder for the traced run: wraps the calls *into* each layer.

Nothing in ``src/`` knows about this file.  :func:`install` replaces, by
attribute patching from outside, the public entry points of every layer
with timing wrappers that push a frame on one shared stack:

========  =================================================================
layer     wrapped entry points
========  =================================================================
frontend  ``parse_sql``, ``Binder.bind_select``, ``optimizer.optimize``
executor  ``executor.execute_plan`` (time spent pulling chunks),
          ``DataChunk.rows`` (result materialisation)
pgsim     ``RowConnection.execute``
function  ``ScalarFunction.evaluate`` / ``evaluate_row``,
          ``CastFunction.apply``, every ``AggregateFunction`` callback
meos/geo  every public function and public method of ``repro.meos`` /
          ``repro.geo``
index     ``RTree``, ``RTreeIndex``, ``GistIndex``, ``BTreeIndex``
storage   ``write_database``, ``read_database``, ``decode_segment``,
          ``SpillFile``
========  =================================================================

A call that arrives while the same layer is already on top of the stack
passes straight through (only the outermost span of a layer counts;
re-entry merges).  Self time is duration minus the time covered by child
frames.  Coarse spans (statements, phases, chunk-level function calls,
storage and index builds) are kept individually for the Chrome trace;
per-row calls (``evaluate_row``, casts, ``meos``/``geo``, index probes)
only accumulate into ``totals`` -- a pgsim pass makes millions of them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

#: the program's own counter, read (never redefined) to tell whether a
#: chunk went through a batch kernel or the per-row scalar loop
_BATCH_COUNTER = "quack.function_batch_ops"


class Recorder:
    """The shared frame stack, per-(layer, name) totals and kept spans."""

    def __init__(self):
        self.enabled = False
        #: open frames: [layer, child_seconds, span_index]
        self.stack: list[list] = []
        #: (layer, name) -> [calls, inclusive_s, self_s, rows]
        self.totals: dict[tuple[str, str], list] = {}
        #: kept spans: [name, layer, start, end, parent_index, statement]
        self.spans: list[list] = []
        self.statement: str | None = None
        #: rows by evaluation path of ``ScalarFunction.evaluate``
        self.batch_rows = 0
        self.scalar_rows = 0

    # -- frames -----------------------------------------------------------------

    def open(self, layer: str, name: str, keep: bool) -> tuple[list, float]:
        index = -1
        if keep:
            parent = next(
                (f[2] for f in reversed(self.stack) if f[2] >= 0), -1
            )
            index = len(self.spans)
            self.spans.append([name, layer, 0.0, 0.0, parent, self.statement])
        frame = [layer, 0.0, index]
        self.stack.append(frame)
        return frame, perf_counter()

    def close(self, frame: list, start: float, name: str,
              rows: int = 0) -> float:
        end = perf_counter()
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        total = self.totals.get((frame[0], name))
        if total is None:
            total = self.totals[(frame[0], name)] = [0, 0.0, 0.0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        total[3] += rows
        if frame[2] >= 0:
            span = self.spans[frame[2]]
            span[2], span[3] = start, end
        return duration

    def take_totals(self) -> tuple[dict[tuple[str, str], list], int, int]:
        """Hand over the totals and the batch and scalar row counts
        gathered so far and start afresh (the set-up phase and the traced
        passes are accounted separately)."""
        taken = self.totals, self.batch_rows, self.scalar_rows
        self.totals, self.batch_rows, self.scalar_rows = {}, 0, 0
        return taken

    # -- wrapping -----------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, keep: bool = False,
             rows: int = 0):
        """A timing wrapper for a plain function or method."""
        rec = self
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame, start = rec.open(layer, name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(frame, start, name, rows)

        return traced

    def wrap_iterator(self, fn, layer: str, name: str, keep: bool = False):
        """A wrapper for a function returning an iterator: every pull is
        one span, so only time spent producing items is counted."""
        rec = self
        stack = self.stack

        def pulls(iterator):
            while True:
                timed = rec.enabled and not (stack and stack[-1][0] == layer)
                if timed:
                    frame, start = rec.open(layer, name, keep)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if timed:
                        rec.close(frame, start, name)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            return pulls(iter(fn(*args, **kwargs)))

        return traced

    # -- per-layer patching ---------------------------------------------------------

    def patch_function(self, module, attr: str, layer: str,
                       keep: bool = False, iterator: bool = False) -> None:
        """Wrap a module-level function and rebind every ``repro`` module
        global that holds it (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if iterator or inspect.isgeneratorfunction(original):
            wrapped = self.wrap_iterator(original, layer, name, keep)
        else:
            wrapped = self.wrap(original, layer, name, keep)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith(
                "repro"
            ):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)

    def patch_class(self, cls, layer: str, keep: bool = False,
                    extra: tuple[str, ...] = ()) -> None:
        """Wrap every public method defined on ``cls`` itself (plus the
        dunder names in ``extra``, e.g. an index's building ``__init__``)."""
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{cls.__name__}.{attr}"
            binder = None
            if isinstance(member, (staticmethod, classmethod)):
                binder = type(member)
                member = member.__func__
            if not inspect.isfunction(member):
                continue
            if inspect.isgeneratorfunction(member):
                wrapped = self.wrap_iterator(member, layer, name, keep)
            else:
                wrapped = self.wrap(member, layer, name, keep)
            setattr(cls, attr, binder(wrapped) if binder else wrapped)

    def patch_package(self, package: str, layer: str) -> None:
        """Wrap the public functions and classes of every loaded module of
        ``package``."""
        for module in [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]:
            for attr, member in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if getattr(member, "__module__", None) != module.__name__:
                    continue  # re-export: patched where it is defined
                if inspect.isfunction(member):
                    self.patch_function(module, attr, layer)
                elif inspect.isclass(member):
                    self.patch_class(member, layer)

    def _patch_functions_layer(self) -> None:
        """``quack.functions``: chunk-level ``evaluate`` keeps its spans and
        sorts rows into the batch or the scalar path; the per-row entry
        points only accumulate."""
        from repro.observability import current_stats
        from repro.quack import functions

        rec = self
        stack = self.stack
        evaluate = functions.ScalarFunction.evaluate

        @functools.wraps(evaluate)
        def traced_evaluate(self, args, count):
            if not rec.enabled or (stack and stack[-1][0] == "function"):
                return evaluate(self, args, count)
            stats = current_stats()
            before = stats.counter(_BATCH_COUNTER) if stats else 0
            frame, start = rec.open("function", self.name, True)
            try:
                return evaluate(self, args, count)
            finally:
                rec.close(frame, start, self.name, count)
                after = stats.counter(_BATCH_COUNTER) if stats else 0
                if self.fn_vector is not None or after > before:
                    rec.batch_rows += count
                else:
                    rec.scalar_rows += count

        functions.ScalarFunction.evaluate = traced_evaluate

        evaluate_row = functions.ScalarFunction.evaluate_row

        @functools.wraps(evaluate_row)
        def traced_evaluate_row(self, args):
            if not rec.enabled or (stack and stack[-1][0] == "function"):
                return evaluate_row(self, args)
            frame, start = rec.open("function", self.name, False)
            try:
                return evaluate_row(self, args)
            finally:
                rec.close(frame, start, self.name, 1)
                rec.scalar_rows += 1

        functions.ScalarFunction.evaluate_row = traced_evaluate_row

        apply = functions.CastFunction.apply

        @functools.wraps(apply)
        def traced_apply(self, value):
            if not rec.enabled or (stack and stack[-1][0] == "function"):
                return apply(self, value)
            name = f"cast:{self.source.name}->{self.target.name}"
            frame, start = rec.open("function", name, False)
            try:
                return apply(self, value)
            finally:
                rec.close(frame, start, name, 1)

        functions.CastFunction.apply = traced_apply

        # Aggregates have no dispatch method: the executors call the
        # callbacks stored on the instance, so wrap them as each
        # aggregate is constructed (registration happens on connect).
        init = functions.AggregateFunction.__init__

        @functools.wraps(init)
        def traced_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for attr in ("step", "final", "step_batch", "combine"):
                callback = getattr(self, attr)
                if callback is not None:
                    setattr(self, attr, rec.wrap(
                        callback, "function", f"agg:{self.name}.{attr}"
                    ))

        functions.AggregateFunction.__init__ = traced_init

    def install(self) -> None:
        """Patch every layer.  Call before ``core.connect()``: extension
        registration captures ``meos``/``geo`` function references."""
        import repro.core  # noqa: F401 - loads every layer's modules
        from repro.core import rtree_index
        from repro.index import rtree
        from repro.pgsim import database as row_database, indexes
        from repro.quack import binder, executor, optimizer, storage, vector
        from repro.quack.sql import parser

        self.patch_function(parser, "parse_sql", "frontend", keep=True)
        binder.Binder.bind_select = self.wrap(
            binder.Binder.bind_select, "frontend", "Binder.bind_select", True
        )
        self.patch_function(optimizer, "optimize", "frontend", keep=True)
        self.patch_function(executor, "execute_plan", "executor", keep=True,
                            iterator=True)
        vector.DataChunk.rows = self.wrap(
            vector.DataChunk.rows, "executor", "DataChunk.rows", True
        )
        row_database.RowConnection.execute = self.wrap(
            row_database.RowConnection.execute, "pgsim",
            "RowConnection.execute", True
        )
        self._patch_functions_layer()
        self.patch_package("repro.meos", "meos")
        self.patch_package("repro.geo", "geo")
        for cls in (rtree.RTree, rtree_index.RTreeIndex, indexes.GistIndex,
                    indexes.BTreeIndex):
            self.patch_class(cls, "index", extra=("__init__",))
        for attr in ("write_database", "read_database", "decode_segment"):
            self.patch_function(storage, attr, "storage", keep=True)
        self.patch_class(storage.SpillFile, "storage")

    # -- reading --------------------------------------------------------------------

    def write_trace(self, path: str) -> None:
        """The kept spans as Chrome trace-event JSON (Perfetto-loadable)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent,
                         "statement": statement},
            }
            for index, (name, layer, start, end, parent, statement)
            in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events},
                      handle)


def layer_seconds(totals: dict, layer: str, field: int = 2,
                  names: tuple[str, ...] | None = None) -> float:
    """Sum one field (1 inclusive, 2 self) over a layer's totals, optionally
    only over entries whose name contains one of ``names``."""
    return sum(
        value[field] for (lay, name), value in totals.items()
        if lay == layer
        and (names is None or any(part in name for part in names))
    )


def layer_calls(totals: dict, layer: str, field: int = 0) -> int:
    return sum(v[field] for (lay, _), v in totals.items() if lay == layer)
