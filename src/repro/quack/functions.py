"""Scalar/aggregate/cast function registry with overload resolution.

The registry is the engine half of the paper's §3.4: extensions register
scalar functions (including operators, whose "name" is the operator symbol,
e.g. ``&&``), cast functions between types, and aggregates.  Overloads are
resolved by implicit-cast cost, like DuckDB's binder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import kernels
from ..analysis.config import verification_enabled
from ..analysis.errors import VerificationError
from ..observability import count as _count
from .errors import BinderError, ConversionError, ExecutionError, QuackError
from .types import ANY, LogicalType, VARCHAR, implicit_cast_cost
from .vector import _PHYSICAL_DTYPES, Vector

#: Engine errors (and verification failures) pass through unwrapped.
_ENGINE_ERRORS = (QuackError, VerificationError)


@dataclass
class ScalarFunction:
    """A scalar SQL function or operator.

    ``fn_scalar`` is the row-wise implementation (used by the row engine and
    as a fallback); ``fn_vector`` is an optional whole-vector implementation
    operating on NumPy arrays for speed.  Null handling defaults to
    null-in/null-out.
    """

    name: str
    arg_types: tuple[LogicalType, ...]
    return_type: LogicalType
    fn_scalar: Callable[..., Any] | None = None
    fn_vector: Callable[[list[Vector], int], Vector] | None = None
    #: When True, fn_scalar receives None inputs instead of short-circuiting.
    handles_null: bool = False
    #: Variadic functions accept any number of trailing args of the last type.
    varargs: bool = False
    #: Optional chunk-at-a-time kernel ``(args, count, row_loop) ->
    #: Vector | None``.  ``row_loop(args, count)`` is the function's own
    #: row path, for the rows the kernel does not answer; returning None
    #: declines the whole chunk (unsupported payloads) to that path.
    evaluate_batch: Callable[
        [list[Vector], int, Callable[[list[Vector], int], Vector]],
        "Vector | None",
    ] | None = None
    #: Whether ``evaluate_batch`` settles most rows with a cheap bound
    #: test (``&&`` and friends), so that the optimizer ranks the
    #: conjunct before per-row Python (``plan.cost_class`` 1).  A kernel
    #: that does the function's whole work on every row leaves it where
    #: the query wrote it (class 2): the row engine shares the ranking
    #: and has no kernels.
    batch_prefilters: bool = True
    #: Volatile functions may return different results for equal inputs
    #: (or have side effects); they run on every row instead of once per
    #: distinct argument tuple of the chunk.
    volatile: bool = False

    def evaluate(self, args: list[Vector], count: int) -> Vector:
        """Vectorized evaluation (chunk at a time).

        Exceptions raised by extension payloads surface as
        :class:`ExecutionError` with the function name attached, like
        DuckDB wrapping extension failures."""
        try:
            return self._evaluate_unchecked(args, count)
        except _ENGINE_ERRORS:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"error in function {self.name}: {exc}"
            ) from exc

    def _evaluate_unchecked(self, args: list[Vector], count: int) -> Vector:
        if self.fn_vector is not None:
            return self.fn_vector(args, count)
        if self.evaluate_batch is not None:
            result = self.evaluate_batch(args, count, self._row_loop)
            if result is not None:
                _count("quack.function_batch_ops")
                if verification_enabled():
                    # The kernel must match the plain row loop row for row.
                    from ..analysis.verifier import assert_vectors_match

                    assert_vectors_match(
                        result, self._row_loop(args, count),
                        f"scalar function {self.name!r} evaluate_batch",
                    )
                    _count("verify.kernel_crosschecks")
                return result
        if self.volatile:
            return self._row_loop(args, count)
        return kernels.per_distinct(
            self._row_loop, args, count,
            f"scalar function {self.name!r} distinct-argument evaluation",
        )

    def _row_loop(self, args: list[Vector], count: int) -> Vector:
        """The function's row path: ``fn_scalar`` on every row
        (:func:`row_loop`).  A kernel gets it for the rows it declines;
        it is also the cross-check reference under verification mode."""
        return row_loop(self.fn_scalar, args, count, self.return_type,
                        self.handles_null)

    def evaluate_row(self, args: list[Any]) -> Any:
        """Row-wise evaluation (used by the pgsim volcano engine)."""
        if not self.handles_null and any(a is None for a in args):
            return None
        if self.fn_scalar is not None:
            try:
                return self.fn_scalar(*args)
            except _ENGINE_ERRORS:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"error in function {self.name}: {exc}"
                ) from exc
        # Fall back to the vector implementation on a 1-row chunk.
        vectors = [
            Vector.from_values(t, [a])
            for t, a in zip(self._padded_types(len(args)), args)
        ]
        result = self.fn_vector(vectors, 1)
        return result.value(0)

    def _padded_types(self, n: int) -> list[LogicalType]:
        types = list(self.arg_types)
        while len(types) < n:
            types.append(types[-1] if types else ANY)
        return types[:n]


def row_loop(fn: Callable[..., Any], args: list[Vector], count: int,
             return_type: LogicalType,
             handles_null: bool = False) -> Vector:
    """The one per-row path: ``fn`` on each row's plain Python values
    (:meth:`Vector.to_list`, the values the row engine's
    ``evaluate_row`` passes), skipping a row with a NULL argument unless
    ``handles_null``; a ``None`` result is NULL.  Scalar functions, the
    rows a kernel declines and casts (``CastFunction.apply``) all run
    here."""
    rows = value_rows(args, count)
    if handles_null or all(a.all_valid() for a in args):
        live = range(count)
    else:
        live = np.flatnonzero(
            np.logical_and.reduce([a.validity for a in args])
        ).tolist()
    out = np.empty(count, dtype=object)
    for i in live:
        out[i] = fn(*rows[i])
    validity = np.fromiter((v is not None for v in out.tolist()),
                           dtype=np.bool_, count=count)
    return _materialize(return_type, out, validity, count)


def value_rows(vectors: list[Vector], count: int) -> list[tuple]:
    """One tuple of plain Python values per row, read column-wise
    (``count`` empty tuples when there are no vectors)."""
    if not vectors:
        return [()] * count
    return list(zip(*[v.to_list() for v in vectors]))


def _materialize(
    ltype: LogicalType, out: np.ndarray, validity: np.ndarray, count: int
) -> Vector:
    """Results in an object array as a vector of ``ltype``: a native
    type converts the valid cells at once (NULL slots stay zero)."""
    if ltype.physical == "object":
        return Vector(ltype, out, validity)
    dtype = _PHYSICAL_DTYPES[ltype.physical]
    try:
        if validity.all():
            return Vector(ltype, out.astype(dtype), validity)
        data = np.zeros(count, dtype=dtype)
        data[validity] = out[validity].astype(dtype)
    except (TypeError, ValueError, OverflowError):
        # Cells NumPy cannot narrow in bulk (objects whose
        # ``__int__``/``__float__`` must run): one at a time.
        data = np.zeros(count, dtype=dtype)
        for i in np.flatnonzero(validity).tolist():
            data[i] = out[i]
    return Vector(ltype, data, validity)


@dataclass
class AggregateFunction:
    """An aggregate: fold rows of one (optional) argument into one value."""

    name: str
    arg_types: tuple[LogicalType, ...]
    return_type: LogicalType
    #: () -> state
    init: Callable[[], Any]
    #: (state, *values) -> state; called once per (non-filtered) row.
    step: Callable[..., Any]
    #: state -> final value
    final: Callable[[Any], Any]
    #: When False, NULL inputs are skipped (SQL semantics for sum/min/…).
    accepts_null: bool = False
    #: Optional vectorized kernel computing every group at once:
    #: ``(args, codes, n_groups, result_type) -> Vector | None`` where
    #: ``codes`` assigns each input row a dense group id.  Returning None
    #: declines (e.g. unsupported physical type) and the executor falls
    #: back to the row-wise ``step`` loop.  A DISTINCT aggregate calls
    #: it on the first row of every distinct ``(group, args)`` tuple.
    step_batch: Callable[
        [list[Vector], Any, int, LogicalType], "Vector | None"
    ] | None = None
    #: Unused: perfbench/spans.py reads it; ROADMAP item 1(g) removes it.
    combine: Callable[..., Any] | None = None

    def result_type_for(self, args: tuple[LogicalType, ...]) -> LogicalType:
        if self.return_type == ANY:
            return args[0] if args else ANY
        return self.return_type


@dataclass
class CastFunction:
    """An explicit/implicit cast between two logical types."""

    source: LogicalType
    target: LogicalType
    fn: Callable[[Any], Any]
    implicit: bool = False

    def apply(self, value: Any) -> Any:
        if value is None:
            return None
        try:
            return self.fn(value)
        except Exception as exc:
            raise ConversionError(
                f"cannot cast {value!r} from {self.source.name} to "
                f"{self.target.name}: {exc}"
            ) from exc


class FunctionRegistry:
    """Per-database registry of scalar, aggregate and cast functions."""

    def __init__(self):
        self._scalars: dict[str, list[ScalarFunction]] = {}
        self._aggregates: dict[str, list[AggregateFunction]] = {}
        self._casts: dict[tuple[str, str], CastFunction] = {}
        # Overload resolutions per (kind, name, argument types); any
        # registration can change the best overload, so it clears them.
        self._resolved: dict[tuple, Any] = {}

    # -- registration ---------------------------------------------------------

    def register_scalar(self, fn: ScalarFunction) -> None:
        self._scalars.setdefault(fn.name.lower(), []).append(fn)
        self._resolved.clear()

    def register_aggregate(self, fn: AggregateFunction) -> None:
        self._aggregates.setdefault(fn.name.lower(), []).append(fn)
        self._resolved.clear()

    def register_cast(self, cast: CastFunction) -> None:
        self._casts[(cast.source.name, cast.target.name)] = cast
        self._resolved.clear()

    # -- lookup ------------------------------------------------------------------

    def has_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    def has_aggregate(self, name: str) -> bool:
        return name.lower() in self._aggregates

    def find_cast(
        self, source: LogicalType, target: LogicalType
    ) -> CastFunction | None:
        return self._casts.get((source.name, target.name))

    def resolve_scalar(
        self, name: str, args: Sequence[LogicalType]
    ) -> tuple[ScalarFunction, list[LogicalType]]:
        """Pick the best overload; returns (function, target arg types)."""
        fn, targets = self._memoized("scalar", name, args,
                                     self._resolve_scalar)
        return fn, list(targets)

    def _resolve_scalar(
        self, name: str, args: Sequence[LogicalType]
    ) -> tuple[ScalarFunction, list[LogicalType]]:
        candidates = self._scalars.get(name.lower())
        if not candidates:
            raise BinderError(f"unknown function {name!r}")
        best: tuple[int, ScalarFunction, list[LogicalType]] | None = None
        for fn in candidates:
            target = self._match(fn, args)
            if target is None:
                continue
            cost = sum(
                self._cast_cost(a, t) for a, t in zip(args, target)
            )
            if best is None or cost < best[0]:
                best = (cost, fn, target)
        if best is None:
            sig = ", ".join(t.name for t in args)
            raise BinderError(
                f"no overload of {name}({sig}); candidates: "
                + "; ".join(
                    f"{name}({', '.join(t.name for t in c.arg_types)})"
                    for c in candidates
                )
            )
        return best[1], best[2]

    def resolve_aggregate(
        self, name: str, args: Sequence[LogicalType]
    ) -> AggregateFunction:
        return self._memoized("aggregate", name, args,
                              self._resolve_aggregate)

    def _memoized(self, kind: str, name: str, args: Sequence[LogicalType],
                  resolve: Callable[[str, Sequence[LogicalType]], Any]
                  ) -> Any:
        key = (kind, name.lower(), tuple(args))
        resolved = self._resolved.get(key)
        if resolved is None:
            resolved = self._resolved[key] = resolve(name, args)
        return resolved

    def _resolve_aggregate(
        self, name: str, args: Sequence[LogicalType]
    ) -> AggregateFunction:
        candidates = self._aggregates.get(name.lower())
        if not candidates:
            raise BinderError(f"unknown aggregate {name!r}")
        best: tuple[int, AggregateFunction] | None = None
        for fn in candidates:
            if len(fn.arg_types) != len(args) and not (
                fn.arg_types and fn.arg_types[-1] == ANY
            ):
                if len(fn.arg_types) != len(args):
                    continue
            costs = []
            ok = True
            for a, t in zip(args, fn.arg_types):
                cost = self._cast_cost(a, t)
                if cost is None or cost >= 100:
                    ok = False
                    break
                costs.append(cost)
            if not ok:
                continue
            total = sum(costs)
            if best is None or total < best[0]:
                best = (total, fn)
        if best is None:
            sig = ", ".join(t.name for t in args)
            raise BinderError(f"no overload of aggregate {name}({sig})")
        return best[1]

    def _match(
        self, fn: ScalarFunction, args: Sequence[LogicalType]
    ) -> list[LogicalType] | None:
        types = list(fn.arg_types)
        if fn.varargs:
            if len(args) < len(types):
                return None
            while len(types) < len(args):
                types.append(types[-1] if types else ANY)
        elif len(types) != len(args):
            return None
        for a, t in zip(args, types):
            if self._cast_cost(a, t) is None:
                return None
        return types

    def _cast_cost(self, source: LogicalType, target: LogicalType) -> int | None:
        builtin = implicit_cast_cost(source, target)
        if builtin is not None:
            return builtin
        cast = self._casts.get((source.name, target.name))
        if cast is not None and cast.implicit:
            return 4
        # Registered VARCHAR "in" casts act as implicit for literals.
        if source == VARCHAR and cast is not None:
            return 5
        return None
