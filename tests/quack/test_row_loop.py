"""Both engines hand a registered function the same plain Python values.

quack runs a function's rows through one loop (``functions.row_loop``)
on the values ``Vector.to_list`` reads — ``int``, ``float``, ``None`` —
the values pgsim's ``evaluate_row`` passes.  The loop is reached three
ways: a function with no kernel (once per distinct argument tuple), the
rows a kernel declines, and an extension cast.  Each way must show a
function the same Python types on both engines.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import core
from repro.core.boxkernels import temporal_batch
from repro.core.types import TEMPORAL_TYPES
from repro.pgsim import RowDatabase
from repro.quack.extension import ExtensionUtil, make_user_type
from repro.quack.functions import ScalarFunction
from repro.quack.types import BIGINT, DOUBLE, VARCHAR

_TGEOMPOINT = TEMPORAL_TYPES["tgeompoint"]
#: A cast target whose only cast is the probe below.
_PROBE = make_user_type("PROBE", str)


def _types(*values) -> str:
    return ",".join(type(v).__name__ for v in values)


def _decline_every_row(views, *arrays):
    """A kernel that answers no row: all go to the function's row loop."""
    n = len(views)
    return np.empty(n, dtype=object), np.ones(n, dtype=np.bool_)


def _register(database) -> None:
    for fn in (
        ScalarFunction("pytype", (BIGINT, DOUBLE), VARCHAR,
                       fn_scalar=_types, handles_null=True),
        ScalarFunction("jdump", (BIGINT,), VARCHAR, fn_scalar=json.dumps),
        ScalarFunction(
            "kerneltype", (_TGEOMPOINT, BIGINT, DOUBLE), VARCHAR,
            fn_scalar=lambda t, a, b: _types(a, b),
            evaluate_batch=temporal_batch(_decline_every_row, 1, VARCHAR),
            batch_prefilters=False,
        ),
    ):
        ExtensionUtil.register_function(database, fn)
    ExtensionUtil.register_type(database, "PROBE", _PROBE)
    ExtensionUtil.register_cast_function(database, DOUBLE, _PROBE, _types)


def _rows(n=40):
    """Repeated tuples (so quack evaluates once per distinct tuple) and
    a NULL in each column."""
    return [
        (None if i == 7 else i % 3, None if i == 11 else (i % 2) + 0.5)
        for i in range(n)
    ]


@pytest.fixture(params=["quack", "pgsim"])
def con(request):
    con = core.connect() if request.param == "quack" else (
        core.connect_baseline()
    )
    _register(con.database)
    con.execute("CREATE TABLE t(a BIGINT, b DOUBLE, trip TGEOMPOINT)")
    trip = ("[Point(0 0)@2025-01-01 08:00:00+00, "
            "Point(1 1)@2025-01-01 08:10:00+00]")
    values = ", ".join(
        f"({'NULL' if a is None else a}, {'NULL' if b is None else b}, "
        f"'{trip}')"
        for a, b in _rows()
    )
    con.execute(f"INSERT INTO t VALUES {values}")
    return con


def _run(con, sql, counter):
    """The column of ``sql``; on quack, also that ``counter`` moved (the
    path under test ran)."""
    result = con.execute(sql)
    if not isinstance(con.database, RowDatabase):
        assert result.stats().counters.get(counter, 0) > 0
    return [row[0] for row in result.fetchall()]


def test_the_row_loop_passes_python_values(con):
    got = _run(con, "SELECT pytype(a, b) FROM t",
               "quack.distinct_rows_saved")
    assert got == [_types(a, b) for a, b in _rows()]


def test_a_function_can_serialize_its_arguments(con):
    got = _run(con, "SELECT jdump(a) FROM t", "quack.distinct_rows_saved")
    assert got == [None if a is None else json.dumps(a) for a, _ in _rows()]


def test_rows_a_kernel_declines_get_python_values(con):
    got = _run(con, "SELECT kerneltype(trip, a, b) FROM t",
               "quack.function_batch_ops")
    assert got == [
        None if a is None or b is None else _types(a, b)
        for a, b in _rows()
    ]


def test_a_cast_gets_python_values(con):
    got = _run(con, "SELECT CAST(b AS PROBE) FROM t",
               "quack.distinct_rows_saved")
    assert got == [None if b is None else _types(b) for _, b in _rows()]
