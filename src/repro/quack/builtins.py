"""Built-in scalar functions, operators, aggregates and casts.

Everything a vanilla SQL engine needs before any extension loads:
comparisons and arithmetic (with vectorized NumPy paths for numeric
vectors), string functions, date/time arithmetic, and the standard
aggregates including DuckDB's ``list()``.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

import numpy as np

from ..meos.timetypes import (
    Interval,
    add_interval,
    format_date,
    format_timestamptz,
    interval_from_usecs,
    parse_date,
    parse_timestamptz,
)
from .errors import ConversionError, ExecutionError
from .functions import (
    AggregateFunction,
    CastFunction,
    FunctionRegistry,
    ScalarFunction,
)
from .types import (
    ANY,
    BIGINT,
    BLOB,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    INTERVAL,
    LIST,
    TIMESTAMP,
    VARCHAR,
)
from .vector import Vector


# ---------------------------------------------------------------------------
# Vectorized helpers
# ---------------------------------------------------------------------------


def _numeric_binop(op: Callable[[Any, Any], Any]):
    def fn_vector(args: list[Vector], count: int) -> Vector:
        left, right = args
        with np.errstate(divide="ignore", invalid="ignore"):
            data = op(left.data, right.data)
        validity = np.logical_and(left.validity, right.validity)
        ltype = DOUBLE if data.dtype.kind == "f" else BIGINT
        if data.dtype == np.bool_:
            ltype = BOOLEAN
        return Vector(ltype, data, validity)

    return fn_vector


_BIGINT_MIN, _BIGINT_MAX = -(1 << 63), (1 << 63) - 1

#: Below this magnitude (as a float64 estimate) an int64 product or sum
#: is exact: float rounding stays far inside the factor of two to 2**63.
_BIGINT_SAFE = 2.0 ** 62


def _bigint(value: Any) -> int:
    """``value`` as a BIGINT, or the typed error PostgreSQL and DuckDB
    raise when integer arithmetic leaves int64."""
    value = int(value)
    if not _BIGINT_MIN <= value <= _BIGINT_MAX:
        raise ExecutionError("BIGINT out of range")
    return value


def _round_bigint(value: float) -> int:
    """A DOUBLE rounded to BIGINT; NaN, ±inf and values past int64 raise
    the typed range error, like arithmetic that leaves int64."""
    if not math.isfinite(value):
        raise ExecutionError("BIGINT out of range")
    return _bigint(round(value))


def _bigint_binop(np_op, py_op: Callable[[int, int], int]):
    """Vectorized int64 ``+``/``-``/``*``: NumPy wraps on overflow, so
    the valid rows that may have left int64 are re-done exactly."""
    def fn_vector(args: list[Vector], count: int) -> Vector:
        left, right = args
        a, b = left.data, right.data
        data = np_op(a, b)
        validity = np.logical_and(left.validity, right.validity)
        if np_op is np.add:
            suspect = ((a ^ data) & (b ^ data)) < 0
        elif np_op is np.subtract:
            suspect = ((a ^ b) & (a ^ data)) < 0
        else:
            suspect = np.abs(a.astype(np.float64)
                             * b.astype(np.float64)) >= _BIGINT_SAFE
        for i in np.flatnonzero(suspect & validity).tolist():
            data[i] = _bigint(py_op(int(a[i]), int(b[i])))
        return Vector(BIGINT, data, validity)

    return fn_vector


def _power(base: float, exponent: float) -> float:
    """C ``pow``, as DuckDB computes ``power``: NaN where the result is
    not real (Python's ``pow`` returns a complex there) and ±inf for
    zero to a negative power (where Python's raises)."""
    with np.errstate(all="ignore"):
        return float(np.power(float(base), float(exponent)))


def _nan(value: Any) -> bool:
    return isinstance(value, float) and value != value


def _equal(a: Any, b: Any) -> bool:
    """SQL ``=``: IEEE equality, except that NaN equals NaN (PostgreSQL
    and DuckDB; the hash join and GROUP BY agree)."""
    return bool(a == b) or (_nan(a) and _nan(b))


def _equal_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.asarray(a == b, dtype=np.bool_)
    if a.dtype.kind == "f" and b.dtype.kind == "f":
        out = out | (np.isnan(a) & np.isnan(b))
    return out


#: The six comparison operators: a function of two values and one of two
#: NumPy arrays.  ``=``/``<>`` make NaN equal to NaN; the ordering
#: comparisons stay IEEE.
_COMPARISONS: dict[str, tuple[Callable, Callable]] = {
    "=": (_equal, _equal_arrays),
    "<>": (lambda a, b: not _equal(a, b),
           lambda a, b: ~_equal_arrays(a, b)),
    "<": (lambda a, b: bool(a < b), np.less),
    "<=": (lambda a, b: bool(a <= b), np.less_equal),
    ">": (lambda a, b: bool(a > b), np.greater),
    ">=": (lambda a, b: bool(a >= b), np.greater_equal),
}


def _compare_vectors(py_op: Callable, array_op: Callable):
    def fn_vector(args: list[Vector], count: int) -> Vector:
        left, right = args
        validity = np.logical_and(left.validity, right.validity)
        if left.ltype.physical != "object" and right.ltype.physical != "object":
            data = np.asarray(array_op(left.data, right.data), dtype=np.bool_)
            return Vector(BOOLEAN, data, validity)
        out = np.zeros(count, dtype=np.bool_)
        ldata, rdata = left.data, right.data
        for i in range(count):
            if validity[i]:
                try:
                    out[i] = py_op(ldata[i], rdata[i])
                except TypeError as exc:
                    raise ExecutionError(
                        f"cannot compare {type(ldata[i]).__name__} with "
                        f"{type(rdata[i]).__name__}: {exc}"
                    ) from None
        return Vector(BOOLEAN, out, validity)

    return fn_vector


def _register_comparisons(registry: FunctionRegistry) -> None:
    for name, (py_op, array_op) in _COMPARISONS.items():
        registry.register_scalar(
            ScalarFunction(
                name,
                (ANY, ANY),
                BOOLEAN,
                fn_scalar=py_op,
                fn_vector=_compare_vectors(py_op, array_op),
            )
        )


def _register_arithmetic(registry: FunctionRegistry) -> None:
    specs = [
        ("+", lambda a, b: a + b, np.add),
        ("-", lambda a, b: a - b, np.subtract),
        ("*", lambda a, b: a * b, np.multiply),
    ]
    for name, py_op, np_op in specs:
        for ltype in (INTEGER, BIGINT):
            registry.register_scalar(
                ScalarFunction(
                    name, (ltype, ltype), BIGINT,
                    fn_scalar=lambda a, b, _op=py_op: _bigint(
                        _op(int(a), int(b))),
                    fn_vector=_bigint_binop(np_op, py_op),
                )
            )
        registry.register_scalar(
            ScalarFunction(name, (DOUBLE, DOUBLE), DOUBLE,
                           fn_scalar=py_op,
                           fn_vector=_numeric_binop(np_op))
        )
    # Division always yields DOUBLE (DuckDB semantics for '/').
    registry.register_scalar(
        ScalarFunction(
            "/", (DOUBLE, DOUBLE), DOUBLE,
            fn_scalar=lambda a, b: (a / b) if b != 0 else None,
            handles_null=False,
        )
    )
    registry.register_scalar(
        ScalarFunction("%", (BIGINT, BIGINT), BIGINT,
                       fn_scalar=lambda a, b: (a % b) if b != 0 else None)
    )
    registry.register_scalar(
        ScalarFunction("-", (BIGINT,), BIGINT,
                       fn_scalar=lambda a: _bigint(-int(a)))
    )
    registry.register_scalar(
        ScalarFunction("-", (DOUBLE,), DOUBLE, fn_scalar=lambda a: -a)
    )
    # Timestamp/interval arithmetic.
    registry.register_scalar(
        ScalarFunction("+", (TIMESTAMP, INTERVAL), TIMESTAMP,
                       fn_scalar=lambda t, iv: add_interval(t, iv))
    )
    registry.register_scalar(
        ScalarFunction("+", (INTERVAL, TIMESTAMP), TIMESTAMP,
                       fn_scalar=lambda iv, t: add_interval(t, iv))
    )
    registry.register_scalar(
        ScalarFunction("-", (TIMESTAMP, INTERVAL), TIMESTAMP,
                       fn_scalar=lambda t, iv: add_interval(t, -iv))
    )
    registry.register_scalar(
        ScalarFunction("-", (TIMESTAMP, TIMESTAMP), INTERVAL,
                       fn_scalar=lambda a, b: interval_from_usecs(a - b))
    )
    registry.register_scalar(
        ScalarFunction("+", (INTERVAL, INTERVAL), INTERVAL,
                       fn_scalar=lambda a, b: a + b)
    )
    registry.register_scalar(
        ScalarFunction("+", (DATE, INTERVAL), TIMESTAMP,
                       fn_scalar=lambda d, iv: add_interval(
                           d * 86_400_000_000, iv))
    )


def _to_text(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _register_strings(registry: FunctionRegistry) -> None:
    registry.register_scalar(
        ScalarFunction("||", (VARCHAR, VARCHAR), VARCHAR,
                       fn_scalar=lambda a, b: _to_text(a) + _to_text(b))
    )
    # DuckDB concatenates any operand with a string; stringify both sides.
    registry.register_scalar(
        ScalarFunction("||", (ANY, ANY), VARCHAR,
                       fn_scalar=lambda a, b: _to_text(a) + _to_text(b))
    )
    registry.register_scalar(
        ScalarFunction("concat", (VARCHAR, VARCHAR), VARCHAR,
                       fn_scalar=lambda *parts: "".join(
                           _to_text(p) for p in parts),
                       varargs=True, handles_null=True)
    )
    registry.register_scalar(
        ScalarFunction("length", (VARCHAR,), BIGINT, fn_scalar=len)
    )
    registry.register_scalar(
        ScalarFunction("upper", (VARCHAR,), VARCHAR, fn_scalar=str.upper)
    )
    registry.register_scalar(
        ScalarFunction("lower", (VARCHAR,), VARCHAR, fn_scalar=str.lower)
    )
    registry.register_scalar(
        ScalarFunction(
            "substring", (VARCHAR, BIGINT, BIGINT), VARCHAR,
            fn_scalar=lambda s, start, count: s[start - 1 : start - 1 + count],
        )
    )
    registry.register_scalar(
        ScalarFunction("trim", (VARCHAR,), VARCHAR, fn_scalar=str.strip)
    )
    registry.register_scalar(
        ScalarFunction(
            "contains", (VARCHAR, VARCHAR), BOOLEAN,
            fn_scalar=lambda s, sub: sub in s,
        )
    )

    def like_impl(text: str, pattern: str, case_insensitive: bool = False) -> bool:
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        # re.escape escapes % and _ as themselves (no-op), handle both forms.
        regex = regex.replace(re.escape("%"), ".*").replace(re.escape("_"), ".")
        flags = re.IGNORECASE if case_insensitive else 0
        return re.fullmatch(regex, text, flags) is not None

    registry.register_scalar(
        ScalarFunction("like", (VARCHAR, VARCHAR), BOOLEAN,
                       fn_scalar=lambda s, p: like_impl(s, p, False))
    )
    registry.register_scalar(
        ScalarFunction("ilike", (VARCHAR, VARCHAR), BOOLEAN,
                       fn_scalar=lambda s, p: like_impl(s, p, True))
    )


def _register_math(registry: FunctionRegistry) -> None:
    registry.register_scalar(
        ScalarFunction("abs", (DOUBLE,), DOUBLE, fn_scalar=abs)
    )
    registry.register_scalar(
        ScalarFunction("abs", (BIGINT,), BIGINT,
                       fn_scalar=lambda a: _bigint(abs(int(a))))
    )
    registry.register_scalar(
        ScalarFunction("round", (DOUBLE,), DOUBLE,
                       fn_scalar=lambda x: float(round(x)))
    )
    registry.register_scalar(
        ScalarFunction("round", (DOUBLE, BIGINT), DOUBLE,
                       fn_scalar=lambda x, n: round(x, int(n)))
    )
    registry.register_scalar(
        ScalarFunction("floor", (DOUBLE,), BIGINT,
                       fn_scalar=lambda x: int(math.floor(x)))
    )
    registry.register_scalar(
        ScalarFunction("ceil", (DOUBLE,), BIGINT,
                       fn_scalar=lambda x: int(math.ceil(x)))
    )
    registry.register_scalar(
        ScalarFunction("sqrt", (DOUBLE,), DOUBLE, fn_scalar=math.sqrt)
    )
    registry.register_scalar(
        ScalarFunction("power", (DOUBLE, DOUBLE), DOUBLE, fn_scalar=_power)
    )
    registry.register_scalar(
        ScalarFunction("ln", (DOUBLE,), DOUBLE, fn_scalar=math.log)
    )
    registry.register_scalar(
        ScalarFunction(
            "coalesce", (ANY, ANY), ANY, varargs=True, handles_null=True,
            fn_scalar=lambda *xs: next((x for x in xs if x is not None), None),
        )
    )
    registry.register_scalar(
        ScalarFunction(
            "nullif", (ANY, ANY), ANY, handles_null=True,
            fn_scalar=lambda a, b: None if a == b else a,
        )
    )
    registry.register_scalar(
        ScalarFunction(
            "greatest", (ANY, ANY), ANY, varargs=True,
            fn_scalar=lambda *xs: max(xs),
        )
    )
    registry.register_scalar(
        ScalarFunction(
            "least", (ANY, ANY), ANY, varargs=True,
            fn_scalar=lambda *xs: min(xs),
        )
    )


def _register_datetime(registry: FunctionRegistry) -> None:
    registry.register_scalar(
        ScalarFunction("to_interval", (VARCHAR,), INTERVAL,
                       fn_scalar=Interval.parse)
    )
    registry.register_scalar(
        ScalarFunction(
            "epoch", (TIMESTAMP,), DOUBLE,
            fn_scalar=lambda t: t / 1_000_000,
        )
    )
    registry.register_scalar(
        ScalarFunction(
            "date_part", (VARCHAR, TIMESTAMP), BIGINT,
            fn_scalar=_date_part,
        )
    )

    def _date_trunc(part: str, t: int) -> int:
        from datetime import datetime, timezone

        moment = datetime.fromtimestamp(t / 1e6, tz=timezone.utc)
        part = part.lower()
        replace_args = {
            "year": dict(month=1, day=1, hour=0, minute=0, second=0,
                         microsecond=0),
            "month": dict(day=1, hour=0, minute=0, second=0, microsecond=0),
            "day": dict(hour=0, minute=0, second=0, microsecond=0),
            "hour": dict(minute=0, second=0, microsecond=0),
            "minute": dict(second=0, microsecond=0),
            "second": dict(microsecond=0),
        }.get(part)
        if replace_args is None:
            raise ExecutionError(f"unsupported date_trunc part {part!r}")
        truncated = moment.replace(**replace_args)
        return int(truncated.timestamp() * 1e6)

    registry.register_scalar(
        ScalarFunction("date_trunc", (VARCHAR, TIMESTAMP), TIMESTAMP,
                       fn_scalar=_date_trunc)
    )


def _date_part(part: str, t: int) -> int:
    from datetime import datetime, timezone

    moment = datetime.fromtimestamp(t / 1e6, tz=timezone.utc)
    part = part.lower()
    values = {
        "year": moment.year,
        "month": moment.month,
        "day": moment.day,
        "hour": moment.hour,
        "minute": moment.minute,
        "second": moment.second,
        "dow": (moment.weekday() + 1) % 7,
        "isodow": moment.weekday() + 1,
        "epoch": int(t // 1_000_000),
    }
    if part not in values:
        raise ExecutionError(f"unsupported date_part field {part!r}")
    return values[part]


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------
#
# Each standard aggregate carries an optional ``step_batch`` kernel that
# computes every group at once over NumPy arrays (see quack.kernels); the
# executor falls back to the row-wise ``step`` loop for
# extension-registered aggregates and payloads a kernel declines
# (object-typed min/max and the like).


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _min_step(state: Any, value: Any) -> Any:
    # NaN compares greater than every value, so min prefers non-NaN.
    if state is None or _is_nan(state):
        return value
    if _is_nan(value):
        return state
    return min(state, value)


def _max_step(state: Any, value: Any) -> Any:
    if state is None or _is_nan(value):
        return value
    if _is_nan(state):
        return state
    return max(state, value)


def _batch_count(args, codes, n_groups, ltype) -> Vector:
    counts = np.bincount(codes[args[0].validity], minlength=n_groups)
    return Vector(ltype, counts.astype(np.int64))


def _batch_count_star(args, codes, n_groups, ltype) -> Vector:
    counts = np.bincount(codes, minlength=n_groups)
    return Vector(ltype, counts.astype(np.int64))


def _batch_sum_int(args, codes, n_groups, ltype) -> Vector | None:
    from .kernels import segment_reduce

    vec = args[0]
    if vec.ltype.physical != "int64":
        return None
    valid = vec.validity
    values, grouped = vec.data[valid], codes[valid]
    sums, present = segment_reduce(np.add, values, grouped, n_groups)
    # int64 addition wraps, so a group whose magnitude may reach 2**63
    # is summed again exactly.
    magnitude = np.bincount(grouped, weights=np.abs(
        values.astype(np.float64)), minlength=n_groups)
    for group in np.flatnonzero(magnitude >= _BIGINT_SAFE).tolist():
        sums[group] = _bigint(sum(values[grouped == group].tolist()))
    return Vector(ltype, sums, present)


def _batch_sum_float(args, codes, n_groups, ltype) -> Vector | None:
    vec = args[0]
    if vec.ltype.physical != "float64":
        return None
    # bincount accumulates weights in row order — bit-identical to the
    # sequential row-loop fold (unlike reduceat's pairwise summation).
    valid = vec.validity
    values = vec.data[valid]
    grouped = codes[valid]
    # bincount of no rows is int64 even with weights: all-NULL input
    sums = np.bincount(grouped, weights=values,
                       minlength=n_groups).astype(np.float64, copy=False)
    counts = np.bincount(grouped, minlength=n_groups)
    # bincount folds from +0.0, the row loop from the group's first
    # addend: they differ only on a group of nothing but -0.0.
    negative_zero = np.signbit(values) & (values == 0.0)
    if negative_zero.any():
        sums[(counts > 0) & (counts == np.bincount(
            grouped[negative_zero], minlength=n_groups))] = -0.0
    return Vector(ltype, sums, counts > 0)


def _batch_avg(args, codes, n_groups, ltype) -> Vector | None:
    vec = args[0]
    if vec.ltype.physical != "float64":
        return None
    valid = vec.validity
    grouped = codes[valid]
    sums = np.bincount(grouped, weights=vec.data[valid],
                       minlength=n_groups)
    counts = np.bincount(grouped, minlength=n_groups)
    present = counts > 0
    out = np.zeros(n_groups, dtype=np.float64)
    np.divide(sums, counts, out=out, where=present)
    return Vector(ltype, out, present)


def _make_batch_extreme(is_max: bool):
    def batch(args, codes, n_groups, ltype) -> Vector | None:
        from .kernels import segment_reduce

        vec = args[0]
        physical = vec.ltype.physical
        if physical == "object":
            return None
        ufunc = np.maximum if is_max else np.minimum
        valid = vec.validity
        values = vec.data[valid]
        grouped = codes[valid]
        if physical != "float64":
            out, present = segment_reduce(ufunc, values, grouped, n_groups)
            return Vector(ltype, out, present)
        # Floats: canonicalize -0.0 for comparison, rank NaN greatest, and
        # resolve ties (-0.0 vs 0.0) to the group's FIRST tied row — the
        # same element the sequential Python min/max fold keeps.
        canon = values + 0.0
        nan = np.isnan(canon)
        out, present = segment_reduce(
            ufunc,
            np.where(nan, -np.inf if is_max else np.inf, canon),
            grouped, n_groups,
        )
        non_nan = np.bincount(grouped[~nan], minlength=n_groups)
        if is_max:
            # NaN is the greatest value: any NaN in a group wins.
            nan_wins = present & (non_nan < np.bincount(
                grouped, minlength=n_groups))
        else:
            # min skips NaN unless the group holds nothing else.
            nan_wins = present & (non_nan == 0)
        idx = np.nonzero(~nan)[0]
        match = canon[idx] == out[grouped[idx]]
        idx = idx[match]
        first, has_match = segment_reduce(
            np.minimum, idx, grouped[idx], n_groups
        )
        out[has_match] = values[first[has_match]]
        out[nan_wins] = np.nan
        return Vector(ltype, out, present)

    return batch


def _batch_first(args, codes, n_groups, ltype) -> Vector:
    from .kernels import segment_first_valid

    vec = args[0]
    rows, present = segment_first_valid(codes, vec.validity, n_groups)
    return Vector(ltype, vec.data[rows], present)


def _register_aggregates(registry: FunctionRegistry) -> None:
    registry.register_aggregate(
        AggregateFunction(
            "count", (ANY,), BIGINT,
            init=lambda: 0,
            step=lambda state, value: state + 1,
            final=lambda state: state,
            step_batch=_batch_count,
        )
    )
    registry.register_aggregate(
        AggregateFunction(
            "count_star", (), BIGINT,
            init=lambda: 0,
            step=lambda state: state + 1,
            final=lambda state: state,
            accepts_null=True,
            step_batch=_batch_count_star,
        )
    )
    registry.register_aggregate(
        AggregateFunction(
            "sum", (BIGINT,), BIGINT,
            init=lambda: None,
            step=lambda state, value: (int(value) if state is None
                                       else state + int(value)),
            final=lambda state: state if state is None else _bigint(state),
            step_batch=_batch_sum_int,
        )
    )
    registry.register_aggregate(
        AggregateFunction(
            "sum", (DOUBLE,), DOUBLE,
            init=lambda: None,
            step=lambda state, value: value if state is None else state + value,
            final=lambda state: state,
            step_batch=_batch_sum_float,
        )
    )
    registry.register_aggregate(
        AggregateFunction(
            "avg", (DOUBLE,), DOUBLE,
            init=lambda: (0.0, 0),
            step=lambda state, value: (state[0] + value, state[1] + 1),
            final=lambda state: (state[0] / state[1]) if state[1] else None,
            step_batch=_batch_avg,
        )
    )
    for name, step, is_max in (("min", _min_step, False),
                               ("max", _max_step, True)):
        registry.register_aggregate(
            AggregateFunction(
                name, (ANY,), ANY,
                init=lambda: None,
                step=step,
                final=lambda state: state,
                step_batch=_make_batch_extreme(is_max),
            )
        )
    registry.register_aggregate(
        AggregateFunction(
            "list", (ANY,), LIST,
            init=lambda: [],
            step=lambda state, value: state + [value],
            final=lambda state: state,
        )
    )
    registry.register_aggregate(
        AggregateFunction(
            "string_agg", (VARCHAR, VARCHAR), VARCHAR,
            init=lambda: [],
            step=lambda state, value, sep: state + [(value, sep)],
            final=lambda state: (
                (state[0][1] if state else ",").join(v for v, _ in state)
                if state
                else None
            ),
        )
    )
    registry.register_aggregate(
        AggregateFunction(
            "first", (ANY,), ANY,
            init=lambda: None,
            step=lambda state, value: value if state is None else state,
            final=lambda state: state,
            step_batch=_batch_first,
        )
    )


# ---------------------------------------------------------------------------
# Casts
# ---------------------------------------------------------------------------


def _varchar_to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("t", "true", "1", "yes"):
        return True
    if lowered in ("f", "false", "0", "no"):
        return False
    raise ConversionError(f"invalid boolean {text!r}")


_INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _varchar_to_bigint(text: str) -> int:
    """Integer text parses exactly (a float would round past 2**53 and
    clamp past int64); other numeric text, such as ``'1.5'`` or
    ``'1e3'``, truncates through a double."""
    if _INTEGER_TEXT.fullmatch(text):
        return _bigint(int(text))
    return _bigint(int(float(text)))


def _register_casts(registry: FunctionRegistry) -> None:
    casts = [
        (INTEGER, BIGINT, int, True),
        (INTEGER, DOUBLE, float, True),
        (BIGINT, DOUBLE, float, True),
        (BIGINT, INTEGER, int, False),
        (DOUBLE, BIGINT, _round_bigint, False),
        (DOUBLE, INTEGER, _round_bigint, False),
        (BIGINT, VARCHAR, str, False),
        (INTEGER, VARCHAR, str, False),
        (DOUBLE, VARCHAR, _to_text, False),
        (BOOLEAN, VARCHAR, lambda v: "true" if v else "false", False),
        (VARCHAR, INTEGER, _varchar_to_bigint, False),
        (VARCHAR, BIGINT, _varchar_to_bigint, False),
        (VARCHAR, DOUBLE, float, False),
        (VARCHAR, BOOLEAN, _varchar_to_bool, False),
        (VARCHAR, TIMESTAMP, parse_timestamptz, False),
        (VARCHAR, DATE, parse_date, False),
        (VARCHAR, INTERVAL, Interval.parse, False),
        (TIMESTAMP, VARCHAR, format_timestamptz, False),
        (DATE, VARCHAR, format_date, False),
        (DATE, TIMESTAMP, lambda d: d * 86_400_000_000, True),
        (TIMESTAMP, DATE, lambda t: t // 86_400_000_000, False),
        (INTERVAL, VARCHAR, str, False),
        (VARCHAR, BLOB, lambda s: s.encode(), False),
        (BLOB, VARCHAR, lambda b: b.decode(errors="replace"), False),
    ]
    for source, target, fn, implicit in casts:
        registry.register_cast(CastFunction(source, target, fn, implicit))


def register_builtins(registry: FunctionRegistry) -> None:
    """Install all built-in functions into a fresh registry."""
    _register_comparisons(registry)
    _register_arithmetic(registry)
    _register_strings(registry)
    _register_math(registry)
    _register_datetime(registry)
    _register_aggregates(registry)
    _register_casts(registry)
