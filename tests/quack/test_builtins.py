"""Built-in scalar function and aggregate coverage (both engines)."""

import math

import pytest

from repro.pgsim import RowDatabase
from repro.quack import Database
from repro.quack.errors import BinderError
from repro.quack.functions import (
    AggregateFunction,
    CastFunction,
    FunctionRegistry,
    ScalarFunction,
)
from repro.quack.types import BIGINT, DOUBLE, VARCHAR, LogicalType


@pytest.fixture(params=[Database, RowDatabase], ids=["quack", "pgsim"])
def con(request):
    return request.param().connect()


class TestStringFunctions:
    def test_concat_variadic(self, con):
        assert con.execute(
            "SELECT concat('a', 'b', 'c')"
        ).scalar() == "abc"

    def test_concat_skips_nulls(self, con):
        assert con.execute(
            "SELECT concat('a', NULL, 'c')"
        ).scalar() == "ac"

    def test_length_upper_lower_trim(self, con):
        assert con.execute("SELECT length('hello')").scalar() == 5
        assert con.execute("SELECT upper('abc')").scalar() == "ABC"
        assert con.execute("SELECT lower('ABC')").scalar() == "abc"
        assert con.execute("SELECT trim('  x  ')").scalar() == "x"

    def test_substring(self, con):
        assert con.execute(
            "SELECT substring('mobility', 3, 4)"
        ).scalar() == "bili"

    def test_contains(self, con):
        assert con.execute(
            "SELECT contains('mobilityduck', 'duck')"
        ).scalar() is True

    def test_like_patterns(self, con):
        assert con.execute("SELECT 'hello' LIKE 'h%o'").scalar() is True
        assert con.execute("SELECT 'hello' LIKE 'h_llo'").scalar() is True
        assert con.execute("SELECT 'hello' LIKE 'H%'").scalar() is False
        assert con.execute("SELECT 'hello' ILIKE 'H%'").scalar() is True
        assert con.execute("SELECT 'hello' NOT LIKE 'x%'").scalar() is True


class TestMathFunctions:
    def test_abs_round_floor_ceil(self, con):
        assert con.execute("SELECT abs(-4.5)").scalar() == 4.5
        assert con.execute("SELECT round(2.567, 2)").scalar() == 2.57
        assert con.execute("SELECT floor(2.9)").scalar() == 2
        assert con.execute("SELECT ceil(2.1)").scalar() == 3

    def test_sqrt_power_ln(self, con):
        assert con.execute("SELECT sqrt(16.0)").scalar() == 4.0
        assert con.execute("SELECT power(2.0, 10.0)").scalar() == 1024.0
        assert con.execute("SELECT ln(1.0)").scalar() == 0.0

    def test_power_off_the_real_line(self, con):
        """NaN for a negative base to a fractional power, inf for zero to
        a negative one, on both engines (C ``pow``, as DuckDB)."""
        con.execute("CREATE TABLE p(x DOUBLE, y DOUBLE)")
        con.execute("INSERT INTO p VALUES (-8.0, 0.5), (0.0, -1.0), "
                    "(-2.0, 3.0)")
        got = [r[0] for r in con.execute("SELECT power(x, y) FROM p")
               .fetchall()]
        assert math.isnan(got[0]) and got[1:] == [math.inf, -8.0]

    def test_greatest_least(self, con):
        assert con.execute("SELECT greatest(1, 7, 3)").scalar() == 7
        assert con.execute("SELECT least(1, 7, 3)").scalar() == 1

    def test_nullif(self, con):
        assert con.execute("SELECT nullif(5, 5)").scalar() is None
        assert con.execute("SELECT nullif(5, 6)").scalar() == 5

    def test_modulo_and_negate(self, con):
        assert con.execute("SELECT 17 % 5").scalar() == 2
        assert con.execute("SELECT -(3 + 4)").scalar() == -7


class TestDateTimeFunctions:
    def test_date_part_fields(self, con):
        base = "'2025-06-15 13:45:30'::TIMESTAMP"
        assert con.execute(
            f"SELECT date_part('month', {base})"
        ).scalar() == 6
        assert con.execute(
            f"SELECT date_part('hour', {base})"
        ).scalar() == 13
        assert con.execute(
            f"SELECT date_part('isodow', {base})"
        ).scalar() == 7  # a Sunday

    def test_date_trunc(self, con):
        got = con.execute(
            "SELECT date_trunc('day', '2025-06-15 13:45:30'::TIMESTAMP)"
        ).scalar()
        from repro.meos.timetypes import parse_timestamptz

        assert got == parse_timestamptz("2025-06-15")

    def test_epoch(self, con):
        assert con.execute(
            "SELECT epoch('1970-01-02'::TIMESTAMP)"
        ).scalar() == 86400.0

    def test_interval_literal_arith(self, con):
        got = con.execute(
            "SELECT ('2025-01-31'::TIMESTAMP + INTERVAL '1 month')"
            "::VARCHAR"
        ).scalar()
        assert got.startswith("2025-02-28")

    def test_timestamp_difference_is_interval(self, con):
        got = con.execute(
            "SELECT ('2025-01-03'::TIMESTAMP - '2025-01-01'::TIMESTAMP)"
            "::VARCHAR"
        ).scalar()
        assert got == "2 days"


class TestAggregates:
    @pytest.fixture
    def data(self, con):
        con.execute("CREATE TABLE v(g VARCHAR, x DOUBLE)")
        con.execute(
            "INSERT INTO v VALUES ('a', 1.0), ('a', 3.0), ('b', 5.0), "
            "('b', NULL)"
        )
        return con

    def test_string_agg(self, data):
        got = data.execute(
            "SELECT string_agg(g, ',') FROM v WHERE x IS NOT NULL"
        ).scalar()
        assert sorted(got.split(",")) == ["a", "a", "b"]

    def test_first(self, data):
        assert data.execute("SELECT first(g) FROM v").scalar() == "a"

    def test_avg_skips_nulls(self, data):
        assert data.execute(
            "SELECT avg(x) FROM v WHERE g = 'b'"
        ).scalar() == 5.0

    def test_min_max_strings(self, data):
        assert data.execute("SELECT min(g), max(g) FROM v") \
            .fetchone() == ("a", "b")

    def test_sum_empty_group_is_null(self, data):
        assert data.execute(
            "SELECT sum(x) FROM v WHERE g = 'zzz'"
        ).scalar() is None


class TestOverloadResolutionCache:
    """Resolutions are memoized per (name, argument types); every
    registration clears them."""

    def test_scalar_registered_later_wins_next_resolution(self):
        registry = FunctionRegistry()
        registry.register_scalar(
            ScalarFunction("f", (DOUBLE,), DOUBLE, fn_scalar=float))
        fn, targets = registry.resolve_scalar("f", [BIGINT])
        assert fn.arg_types == (DOUBLE,) and targets == [DOUBLE]
        targets.append(VARCHAR)  # the caller's copy, not the cache's
        assert registry.resolve_scalar("f", [BIGINT])[1] == [DOUBLE]
        registry.register_scalar(
            ScalarFunction("f", (BIGINT,), BIGINT, fn_scalar=int))
        fn, targets = registry.resolve_scalar("F", [BIGINT])
        assert fn.arg_types == (BIGINT,) and targets == [BIGINT]

    def test_cast_registered_later_changes_next_resolution(self):
        registry = FunctionRegistry()
        point = LogicalType("POINT_T")
        registry.register_scalar(
            ScalarFunction("g", (point,), BIGINT, fn_scalar=len))
        with pytest.raises(BinderError):
            registry.resolve_scalar("g", [BIGINT])
        registry.register_cast(
            CastFunction(BIGINT, point, fn=str, implicit=True))
        fn, targets = registry.resolve_scalar("g", [BIGINT])
        assert targets == [point]

    def test_aggregate_registered_later_wins_next_resolution(self):
        registry = FunctionRegistry()
        first = AggregateFunction("agg", (DOUBLE,), DOUBLE, init=float,
                                  step=max, final=float)
        registry.register_aggregate(first)
        assert registry.resolve_aggregate("agg", [BIGINT]) is first
        second = AggregateFunction("agg", (BIGINT,), BIGINT, init=int,
                                   step=max, final=int)
        registry.register_aggregate(second)
        assert registry.resolve_aggregate("agg", [BIGINT]) is second
