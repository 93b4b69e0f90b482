"""Verification mode end-to-end: same answers, extra checking, and
``verify.*`` counters surfaced through EXPLAIN ANALYZE."""

import pytest

from repro import core
from repro.analysis import set_verification_enabled
from repro.analysis.config import verification_enabled
from repro.pgsim import RowDatabase
from repro.quack import Database

SETUP = [
    "CREATE TABLE t(g INTEGER, v INTEGER, s VARCHAR)",
    "INSERT INTO t SELECT i % 5, i, 'row_' || i"
    " FROM generate_series(1, 200) AS q(i)",
    "CREATE TABLE u(g INTEGER, w DOUBLE)",
    "INSERT INTO u VALUES (0, 1.5), (1, 2.5), (2, 3.5), (9, 9.0)",
]

ENGINES = [
    pytest.param(lambda: Database().connect(), id="quack"),
    pytest.param(lambda: RowDatabase().connect(), id="pgsim"),
]

BATTERY = [
    "SELECT g, count(*), sum(v), min(s) FROM t GROUP BY g ORDER BY g",
    "SELECT DISTINCT g FROM t ORDER BY g DESC",
    "SELECT t.v, u.w FROM t, u WHERE t.g = u.g AND t.v < 20 ORDER BY t.v",
    "SELECT v * 2 AS d FROM t WHERE s LIKE 'row_1%' ORDER BY d LIMIT 7",
    "SELECT upper(s) FROM t WHERE v BETWEEN 10 AND 15 ORDER BY v",
]


def run_battery(make_con):
    con = make_con()
    for stmt in SETUP:
        con.execute(stmt)
    return [con.execute(q).fetchall() for q in BATTERY]


@pytest.mark.parametrize("factory", ENGINES)
def test_battery_matches_unverified(factory, verification):
    verified = run_battery(factory)
    set_verification_enabled(False)
    plain = run_battery(factory)
    assert verified == plain


def test_spatial_index_plans_verify(verification):
    con = core.connect()
    con.execute("CREATE TABLE geo(id INTEGER, box STBOX)")
    con.execute("CREATE INDEX rt ON geo USING TRTREE(box)")
    con.execute(
        "INSERT INTO geo SELECT i, ('STBOX X((' || i || ',' || i ||"
        " '),(' || (i + 1) || ',' || (i + 1) || '))')"
        " FROM generate_series(1, 100) AS t(i)"
    )
    rows = con.execute(
        "SELECT id FROM geo WHERE box && "
        "stbox('STBOX X((40,40),(50,50))') ORDER BY id"
    ).fetchall()
    assert [r[0] for r in rows] == list(range(39, 51))
    # Index NL join goes through the batch-probe cross-check.
    pairs = con.execute(
        "SELECT count(*) FROM geo g1, geo g2 WHERE g1.box && g2.box"
    ).scalar()
    assert pairs == 100 + 2 * 99


def test_explain_analyze_reports_verify_counters(verification):
    con = Database().connect()
    for stmt in SETUP:
        con.execute(stmt)
    text = con.explain_analyze(
        "SELECT g, sum(v) FROM t WHERE v > 10 GROUP BY g"
    )
    assert "verify.plans" in text
    assert "verify.rules_checked" in text
    assert "verify.chunks_checked" in text


def test_counters_absent_when_disabled(unverified):
    con = Database().connect()
    for stmt in SETUP:
        con.execute(stmt)
    text = con.explain_analyze("SELECT g FROM t WHERE v > 10")
    assert "verify." not in text


@pytest.mark.parametrize("fixture, pinned", [
    ("verification", True), ("unverified", False),
])
@pytest.mark.parametrize("prior", [True, False])
def test_fixture_restores_the_prior_setting(request, fixture, pinned, prior):
    """A test using the fixture runs pinned and leaves the prior setting
    behind: under ``REPRO_VERIFICATION=1`` the rest of the suite stays
    verified."""
    outer = set_verification_enabled(prior)

    def check_restored():
        try:
            assert verification_enabled() is prior
        finally:
            set_verification_enabled(outer)

    # Finalizers run last in, first out: registered before the fixture
    # is set up, this one runs after the fixture's teardown.
    request.addfinalizer(check_restored)
    request.getfixturevalue(fixture)
    assert verification_enabled() is pinned


@pytest.mark.parametrize("factory", ENGINES)
@pytest.mark.parametrize("sql, expected", [
    ("SELECT sum(x), sum(DISTINCT x) FROM nulls", [(None, None)]),
    ("SELECT g, sum(x), sum(DISTINCT x) FROM nulls GROUP BY g ORDER BY g",
     [(1, None, None), (2, None, None)]),
])
def test_sum_of_all_null_double_is_null(factory, sql, expected,
                                        verification):
    con = factory()
    con.execute("CREATE TABLE nulls(g INTEGER, x DOUBLE)")
    con.execute("INSERT INTO nulls VALUES (1, NULL), (1, NULL), (2, NULL)")
    assert con.execute(sql).fetchall() == expected
