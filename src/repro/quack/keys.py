"""Canonicalized row-wise key helpers shared by both engines.

:func:`hashable_key`, :func:`row_key` and :func:`sort_comparator`
define the engines' common grouping/ordering semantics (one NaN group,
``-0.0`` joins ``0.0``, NULL placement, NaN sorts greatest);
:func:`exact_key` keys the correlated-subquery memo.  They live here —
not in :mod:`.kernels` — because the pgsim row engine needs them too
and must not import quack executor internals; this module is part of
the shared frontend surface alongside the plan IR and the binder.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Sequence


#: Sentinels that cannot collide with real column values.
_NULL_KEY = ("__quack_null__",)
_NAN_KEY = ("__quack_nan__",)


def hashable_key(value: Any) -> Any:
    """A hashable grouping key for ``value`` with SQL equality semantics.

    Floats are canonicalized so that all NaN payloads fall into one group
    and ``-0.0`` joins ``0.0`` (IEEE equality); unhashable values fall back
    to a ``(module, qualname, repr)`` key so two distinct types with equal
    ``repr`` never merge.
    """
    if isinstance(value, float):  # also covers np.float64
        if math.isnan(value):
            return _NAN_KEY
        return value + 0.0  # -0.0 -> +0.0
    if isinstance(value, list):
        return tuple(hashable_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, hashable_key(v)) for k, v in value.items()))
    try:
        hash(value)
        return value
    except TypeError:
        return (
            type(value).__module__,
            type(value).__qualname__,
            repr(value),
        )


def exact_key(value: Any) -> Any:
    """A hashable key for ``value`` that only values no SQL expression
    tells apart share: unlike :func:`hashable_key`, ``-0.0`` and ``0.0``
    differ (``CAST(x AS VARCHAR)`` shows the sign).  Lists and structs
    key by their items; other unhashable values as in
    :func:`hashable_key`."""
    if isinstance(value, float):
        return (float, value.hex())
    if isinstance(value, list):
        return (list, tuple(map(exact_key, value)))
    if isinstance(value, dict):
        return (dict, tuple(sorted(
            (k, exact_key(v)) for k, v in value.items()
        )))
    return hashable_key(value)


def row_key(row: Sequence[Any]) -> tuple:
    """The :func:`hashable_key` of each value of ``row``: rows equal
    under SQL grouping semantics get equal keys."""
    return tuple(map(hashable_key, row))


def sort_comparator(keys_spec: Sequence[tuple[bool, bool | None]]):
    """Row-wise ORDER BY comparator (the sort kernel's fallback, also used
    by the pgsim row engine).  Items are ``(row, key_values)`` pairs.

    Matches :func:`repro.quack.kernels.sort_permutation`: engine-default
    NULL placement, NaN compares greater than every non-NULL value.
    """

    def compare(item_a, item_b):
        for pos, (ascending, nulls_first) in enumerate(keys_spec):
            a = item_a[1][pos]
            b = item_b[1][pos]
            if a is None and b is None:
                continue
            nf = (not ascending) if nulls_first is None else nulls_first
            if a is None:
                return -1 if nf else 1
            if b is None:
                return 1 if nf else -1
            a_nan = isinstance(a, float) and math.isnan(a)
            b_nan = isinstance(b, float) and math.isnan(b)
            if a_nan or b_nan:
                if a_nan and b_nan:
                    continue
                less = b_nan  # NaN sorts as the greatest value
            elif a == b:
                continue
            else:
                try:
                    less = a < b
                except TypeError:
                    less = repr(a) < repr(b)
            if less:
                return -1 if ascending else 1
            return 1 if ascending else -1
        return 0

    return functools.cmp_to_key(compare)
