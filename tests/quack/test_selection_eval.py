"""Selection-aware expression evaluation: AND/OR/CASE narrow the chunk.

``quack`` used to evaluate every conjunct and every CASE arm on every
row, so a conjunct could raise on a row an earlier conjunct had already
rejected while ``pgsim`` (which short-circuits per row) returned rows.
These tests pin that the engines now agree — on guarded errors, on the
full three-valued truth tables, and on errors that must still surface,
over in-memory and attached tables, with and without verification —
and that the work saved is visible in the counters.
"""

import functools
import itertools

import pytest

from repro import core
from repro.analysis import set_verification_enabled
from repro.analysis.errors import VerificationError
from repro.berlinmod import generate, get_query, prepare_scenario
from repro.meos import kernels as temporal_kernels
from repro.meos.temporal.base import TSequence
from repro.quack import executor
from repro.quack.errors import ConversionError, ExecutionError
from repro.quack.functions import ScalarFunction
from repro.quack.kernels import distinct_rows
from repro.quack.plan import cost_class
from repro.quack.sql.parser import parse_sql
from repro.quack.types import BIGINT, DOUBLE, VARCHAR
from repro.quack.vector import Vector

# -- fixtures ---------------------------------------------------------------------

_T_ROWS = [(0, "x", None), (1, "5", 0), (2, "1", 0), (3, None, 0),
           (4, "7", 0), (0, "oops", 0)]
_U_ROWS = [(0, 2), (0, 6)]


def _load(con):
    con.execute("CREATE TABLE t(k INTEGER, s VARCHAR, z INTEGER)")
    con.execute("CREATE TABLE u(z INTEGER, v INTEGER)")
    con.database.catalog.get_table("t").append_rows(_T_ROWS)
    con.database.catalog.get_table("u").append_rows(_U_ROWS)
    return con


@pytest.fixture(params=["memory", "attached", "memory-verified",
                        "attached-verified"])
def duck(request, configure_quack):
    """Tables in memory or attached from a file (scans decode stored
    segments), with and without the verification layer, whose dense
    re-evaluation of a narrowed AND raises on the guarded rows."""
    config, _, verified = request.param.partition("-")
    previous = set_verification_enabled(True) if verified else None
    yield configure_quack(_load(core.connect()), config, core.connect)
    if verified:
        set_verification_enabled(previous)


@pytest.fixture(scope="module")
def oracle():
    return _load(core.connect_baseline())


def _rows(con, sql):
    return sorted(con.execute(sql).fetchall(), key=repr)


# -- guarded errors: the earlier conjunct / WHEN protects the later one -------------

# ``s`` is unparsable exactly on the rows where ``k = 0``.
GUARDED = {
    "and_cast":
        "SELECT k FROM t WHERE k <> 0 AND CAST(s AS INTEGER) > 1",
    "and_cast_written_expensive_first":
        # the optimizer ranks the cheap guard first on both engines
        "SELECT k FROM t WHERE CAST(s AS INTEGER) > 1 AND k <> 0",
    "and_extension_function":
        "SELECT k FROM t WHERE k <> 0 AND numInstants(tint(s || '@2025-01-01')) = 1",
    "or_early_true":
        "SELECT k FROM t WHERE k = 0 OR CAST(s AS INTEGER) > 1",
    "case_guard":
        "SELECT k, CASE WHEN k = 0 THEN 0 ELSE CAST(s AS INTEGER) END FROM t",
    "case_guard_in_where":
        "SELECT k FROM t WHERE CASE WHEN k = 0 THEN FALSE "
        "ELSE CAST(s AS INTEGER) > 1 END",
    "select_list_and":
        "SELECT k, k <> 0 AND CAST(s AS INTEGER) > 1 FROM t",
    "nl_join_residual":
        "SELECT a.k, b.v FROM t a, u b "
        "WHERE a.k <> b.z AND CAST(a.s AS INTEGER) > b.v",
    "hash_join_residual":
        "SELECT a.k, b.v FROM t a, u b WHERE a.z = b.z "
        "AND a.k <> b.z AND CAST(a.s AS INTEGER) > b.v",
    # guards of the cast's own cost class: only written order protects
    "same_class_guard":
        "SELECT k FROM t WHERE s <> 'x' AND s <> 'oops' "
        "AND CAST(s AS INTEGER) > 1",
    "same_class_like_guard":
        "SELECT k FROM t WHERE s LIKE '%5' AND CAST(s AS INTEGER) = 5",
    "same_class_guard_in_join_residual":
        "SELECT a.k, b.v FROM t a, u b WHERE a.z = b.z "
        "AND a.s <> 'x' AND a.s <> 'oops' AND CAST(a.s AS INTEGER) > b.v",
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_guarded_errors_agree_with_row_engine(duck, oracle, name):
    sql = GUARDED[name]
    expected = _rows(oracle, sql)
    assert _rows(duck, sql) == expected
    assert expected, "the battery must not pass vacuously"


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_statistics_never_move_a_guard(duck, oracle, name):
    # Selectivity may reorder conjuncts that cannot raise; a guard must
    # protect its cast with and without ANALYZE, on both engines.
    expected = _rows(oracle, GUARDED[name])
    analyzed = _load(core.connect_baseline())
    for con in (duck, analyzed):
        con.execute("ANALYZE t")
        con.execute("ANALYZE u")
        assert _rows(con, GUARDED[name]) == expected


def test_motivating_statements_return_rows(duck):
    assert _rows(duck, GUARDED["and_cast"]) == [(1,), (4,)]
    assert _rows(duck, GUARDED["case_guard"]) == [
        (0, 0), (0, 0), (1, 5), (2, 1), (3, None), (4, 7),
    ]


# -- errors on surviving rows still surface, naming the function ------------------------


def _assert_surviving_row_errors(con):
    with pytest.raises(ConversionError, match="VARCHAR to INTEGER"):
        con.execute(
            "SELECT k FROM t WHERE k >= 0 AND CAST(s AS INTEGER) > 1"
        ).fetchall()
    with pytest.raises(ExecutionError, match="error in function tint"):
        con.execute(
            "SELECT k FROM t WHERE k >= 0 AND numInstants(tint(s)) = 1"
        ).fetchall()
    with pytest.raises(ConversionError, match="VARCHAR to INTEGER"):
        con.execute(
            "SELECT CASE WHEN k > 0 THEN 0 ELSE CAST(s AS INTEGER) END FROM t"
        ).fetchall()


def test_error_on_surviving_row_still_raises(duck):
    _assert_surviving_row_errors(duck)


def test_row_engine_raises_the_same_errors(oracle):
    _assert_surviving_row_errors(oracle)


# -- three-valued truth tables --------------------------------------------------------

_TRUTH = [True, False, None]


def _and(a, b):
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _or(a, b):
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


def _not(a):
    return None if a is None else not a


def _case(a, b):
    # CASE WHEN a THEN b ELSE NOT b END
    return b if a is True else _not(b)


def _text(value):
    return None if value is None else str(value).lower()


def _truth_table(con):
    """Boolean columns (class 0: evaluated dense) beside VARCHAR twins
    whose cast is a per-row conversion (class 2: evaluated narrowed)."""
    con.execute("CREATE TABLE tv(a BOOLEAN, b BOOLEAN, sa VARCHAR,"
                " sb VARCHAR)")
    con.database.catalog.get_table("tv").append_rows([
        (a, b, _text(a), _text(b))
        for a, b in itertools.product(_TRUTH, _TRUTH)
    ])
    return con


_FORMS = {
    "and": ("{a} AND {b}", _and),
    "or": ("{a} OR {b}", _or),
    "not_and": ("NOT ({a} AND {b})", lambda a, b: _not(_and(a, b))),
    "not_or": ("NOT ({a} OR {b})", lambda a, b: _not(_or(a, b))),
    "case": ("CASE WHEN {a} THEN {b} ELSE NOT {b} END", _case),
    "nested": ("({a} OR {b}) AND ({b} OR NOT {a})",
               lambda a, b: _and(_or(a, b), _or(b, _not(a)))),
}
_OPERANDS = {
    "dense": ("a", "b"),
    "narrowed": ("CAST(sa AS BOOLEAN)", "CAST(sb AS BOOLEAN)"),
    "mixed": ("a", "CAST(sb AS BOOLEAN)"),
}


@pytest.fixture(params=["duck", "pgsim"])
def truth_con(request):
    if request.param == "pgsim":
        return _truth_table(core.connect_baseline())
    return _truth_table(core.connect())


@pytest.mark.parametrize("operands", sorted(_OPERANDS))
@pytest.mark.parametrize("form", sorted(_FORMS))
def test_truth_tables(truth_con, form, operands):
    template, model = _FORMS[form]
    a, b = _OPERANDS[operands]
    expr = template.format(a=a, b=b)
    table = {(ra, rb): model(ra, rb)
             for ra, rb in itertools.product(_TRUTH, _TRUTH)}
    selected = truth_con.execute(f"SELECT a, b, {expr} FROM tv").fetchall()
    assert {(ra, rb): out for ra, rb, out in selected} == table
    kept = truth_con.execute(f"SELECT a, b FROM tv WHERE {expr}").fetchall()
    assert sorted(kept, key=repr) == sorted(
        (pair for pair, out in table.items() if out is True), key=repr
    )


# -- counters and EXPLAIN ANALYZE --------------------------------------------------------


def _load_wide(con):
    """64 rows repeating four string *objects*, the way a join chunk
    repeats its build side's payloads."""
    words = ["0", "1", "2", "3"]
    con.execute("CREATE TABLE wide(s VARCHAR, n INTEGER)")
    con.database.catalog.get_table("wide").append_rows(
        [(words[i % 4], i) for i in range(64)]
    )


def test_counters_are_recorded_and_rendered():
    con = _load(core.connect())
    result = con.execute(GUARDED["and_cast"])
    result.fetchall()
    # the cast runs on the 4 rows with k <> 0, not on all 6
    assert result.stats().counters["executor.conjunct_rows_skipped"] == 2
    report = con.execute("EXPLAIN ANALYZE " + GUARDED["case_guard"]
                         ).fetchall()[0][0]
    # WHEN on 6 rows, THEN on 2, ELSE on 4: 18 - 12 skipped
    assert "executor.conjunct_rows_skipped=6" in report

    _load_wide(con)
    report = con.explain_analyze(
        "SELECT n FROM wide WHERE CAST(s AS INTEGER) > 1", format="json"
    )
    # 64 casts of 4 distinct string objects
    assert report["counters"]["quack.distinct_rows_saved"] == 60


# -- conjunct ranking ---------------------------------------------------------------------


def _filter_condition(con, sql):
    plan = con._plan(parse_sql(sql)[0])
    while not hasattr(plan, "condition"):
        plan = plan.children()[0]
    return plan.condition


def test_optimizer_ranks_by_cost_class_then_selectivity():
    con = core.connect()
    con.execute("CREATE TABLE r(id INTEGER, s VARCHAR, b STBOX, c STBOX)")
    con.database.catalog.get_table("r").append_rows(
        [(i, str(i), None, None) for i in range(200)]
    )
    sql = ("SELECT id FROM r WHERE EXISTS (SELECT 1 FROM r r2 WHERE"
           " r2.id = r.id + 1) AND CAST(s AS INTEGER) > 3"
           " AND (b && c) IS NULL AND id < 150 AND id < 5")
    classes = [cost_class(c) for c in _filter_condition(con, sql).args]
    assert classes == [0, 0, 1, 2, 3]
    written = [c.args[1].value for c in _filter_condition(con, sql).args[:2]]
    assert written == [150, 5]  # stable: no statistics, written order kept
    con.execute("ANALYZE r")
    ranked = [c.args[1].value for c in _filter_condition(con, sql).args[:2]]
    assert ranked == [5, 150]  # most selective first within the class
    assert con.execute(sql).fetchall() == [(4,)]


# -- the distinct-argument helper -----------------------------------------------------------


class TestDistinctRows:
    def test_factorizes_by_identity_bits_and_validity(self):
        a, b = object(), object()
        objects = Vector.from_values(VARCHAR, [a, b, a, None] * 5)
        numbers = Vector.from_values(DOUBLE, [0.0, -0.0, 0.0, 1.0] * 5)
        first, inverse = distinct_rows([objects, numbers], 20)
        # (a, 0.0), (b, -0.0), (NULL, 1.0): -0.0 and 0.0 differ in bits
        assert first.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2] * 5

    def test_null_slots_compare_equal_whatever_they_hold(self):
        import numpy as np

        vector = Vector(BIGINT, np.arange(20, dtype=np.int64),
                        np.zeros(20, dtype=np.bool_))
        first, inverse = distinct_rows([vector], 20)
        assert first.tolist() == [0] and not inverse.any()

    def test_declines(self):
        distinct = Vector.from_values(BIGINT, list(range(32)))
        repeated = Vector.from_values(BIGINT, [7] * 32)
        assert distinct_rows([distinct], 32) is None      # nothing to save
        assert distinct_rows([repeated.slice(slice(0, 8))], 8) is None

    def test_scalar_functions_run_once_per_distinct_tuple(self, unverified):
        calls = []

        def fn(a, b):
            calls.append((a, b))
            return None if a is None else f"{a}{b}"

        args = [Vector.from_values(VARCHAR, ["p", "q", None, "p"] * 8),
                Vector.from_values(BIGINT, [1, 2, 3, 1] * 8)]
        expected = ["p1", "q2", None, "p1"] * 8
        for handles_null, n_calls in ((False, 2), (True, 3)):
            calls.clear()
            function = ScalarFunction("f", (VARCHAR, BIGINT), VARCHAR,
                                      fn_scalar=fn,
                                      handles_null=handles_null)
            assert function.evaluate(args, 32).to_list() == expected
            assert len(calls) == n_calls
        calls.clear()
        volatile = ScalarFunction("f", (VARCHAR, BIGINT), VARCHAR,
                                  fn_scalar=fn, volatile=True)
        assert volatile.evaluate(args, 32).to_list() == expected
        assert len(calls) == 24  # every row with no NULL argument


# -- verification mode -------------------------------------------------------------------------


def test_verification_crosschecks_narrowing_and_distinct(verification):
    con = _load(core.connect())
    _load_wide(con)
    result = con.execute(
        "SELECT n FROM wide WHERE n >= 8 AND CAST(s AS INTEGER) > 1"
    )
    assert len(result.fetchall()) == 28
    # the distinct-argument cast and the narrowed AND were both re-run
    assert result.stats().counters["verify.kernel_crosschecks"] >= 2
    # a dense reference that raises is not a divergence
    assert _rows(con, GUARDED["and_cast"]) == [(1,), (4,)]


def test_verification_blames_an_impure_function_by_name(verification):
    state = itertools.count()
    impure = ScalarFunction("ticker", (BIGINT,), BIGINT,
                            fn_scalar=lambda _value: next(state))
    with pytest.raises(VerificationError, match="'ticker' distinct-argument"):
        impure.evaluate([Vector.from_values(BIGINT, [1] * 32)], 32)


def test_verification_blames_a_wrong_narrowing(verification, monkeypatch):
    con = core.connect()
    _load_wide(con)
    real = executor.DataChunk.slice
    # gather the surviving rows in the wrong order: verdicts land on
    # the wrong rows when scattered back
    monkeypatch.setattr(executor.DataChunk, "slice",
                        lambda self, rows: real(self, rows[::-1]))
    with pytest.raises(VerificationError, match="selection-narrowed AND"):
        con.execute(
            "SELECT n FROM wide WHERE n >= 8 AND CAST(s AS INTEGER) > 1"
        ).fetchall()


def test_rewrite_verifier_blames_the_ranking_rule(verification, monkeypatch):
    from repro.quack import optimizer

    monkeypatch.setattr(
        optimizer, "_combine",
        lambda conjuncts: optimizer.BoundConjunction(
            "AND", conjuncts[:-1], conjuncts[0].ltype
        ) if len(conjuncts) > 2 else conjuncts[0],
    )
    con = _load(core.connect())
    with pytest.raises(VerificationError, match="conjunct_rank.*dropped"):
        con.execute(
            "SELECT k FROM t WHERE CAST(s AS INTEGER) > 1 AND k <> 0"
            " AND z = 0"
        ).fetchall()


# -- the benchmark city -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def city():
    return prepare_scenario("mobilityduck", generate(0.0002, 4711))


def _count_calls(monkeypatch, owner, name, weight=lambda *args: 1):
    calls = [0]
    original = getattr(owner, name)

    @functools.wraps(original)
    def counting(*args):
        calls[0] += weight(*args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("query,periods", [(13, "Periods1"),
                                           (15, "Periods1")])
def test_at_time_runs_once_per_distinct_trip_period_pair(
        city, monkeypatch, query, periods, unverified):
    pairs = city.execute(
        f"SELECT count(*) FROM Trips t, {periods} p WHERE t.Trip && p.Period"
    ).fetchall()[0][0]
    scalar = _count_calls(monkeypatch, TSequence, "at_time")
    rows = _count_calls(monkeypatch, temporal_kernels, "at_period_rows",
                        weight=lambda csr, spans: len(csr))
    city.execute(get_query(query).sql).fetchall()
    assert 0 < rows[0] <= pairs and scalar[0] == 0


def test_q16_at_time_runs_once_per_call_site_and_pair(city, monkeypatch,
                                                      unverified):
    # Q16 writes atTime(t1.Trip, pr.Period) and atTime(t2.Trip, pr.Period)
    # twice each (eIntersects and eDwithin); every call site runs at most
    # once per distinct pair that passed its `&&` prefilter.
    first = city.execute(
        "SELECT count(*) FROM Trips t, Licences1 l, Periods1 p WHERE"
        " t.VehicleId = l.VehicleId AND t.Trip && p.Period"
    ).fetchall()[0][0]
    second = city.execute(
        "SELECT count(*) FROM Trips t, Periods1 p WHERE t.Trip && p.Period"
    ).fetchall()[0][0]
    scalar = _count_calls(monkeypatch, TSequence, "at_time")
    rows = _count_calls(monkeypatch, temporal_kernels, "at_period_rows",
                        weight=lambda csr, spans: len(csr))
    city.execute(get_query(16).sql).fetchall()
    assert 0 < rows[0] <= 2 * first + 2 * second and scalar[0] == 0


def test_q16_narrowing_cuts_the_rows_functions_see(city, monkeypatch,
                                                   unverified):
    # The cost-based plan applies each `&&` in the join below its
    # eIntersects; narrowing still spares the payload functions over a
    # third of their rows (37,640 rows unnarrowed, 20,855 narrowed).
    sql = get_query(16).sql
    rows = _count_calls(monkeypatch, ScalarFunction, "evaluate",
                        weight=lambda self, args, count: count)
    expected = city.execute(sql).fetchall()
    narrowed, rows[0] = rows[0], 0
    monkeypatch.setattr(
        executor, "_evaluate_conjunction",
        functools.partial(executor._evaluate_conjunction, narrow=False),
    )
    assert city.execute(sql).fetchall() == expected
    assert rows[0] >= 1.5 * narrowed
