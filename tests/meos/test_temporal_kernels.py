"""The temporal-point kernels against the scalar ``meos`` methods.

``at_period_rows`` / ``length_rows`` / ``edwithin_rows`` /
``tdwithin_rows`` must give, row for row, what ``Temporal.at_time`` /
``length`` / ``e_dwithin`` / ``t_dwithin`` give: equal objects with equal
reprs (coordinates compare as floats, so equal means equal bits), the
same ``None``\\ s, whatever rows share the call and in whatever order.
Then the same through SQL: ``quack`` against ``pgsim``, over in-memory
and attached tables, under verification, and with counters that pin that a warm Q9 and Q16 build no
``TSequence`` at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core, geo, meos
from repro.analysis import set_verification_enabled
from repro.analysis.config import verification_enabled
from repro.analysis.errors import VerificationError
from repro.berlinmod import QUERIES, generate, get_query, prepare_scenario
from repro.core import boxkernels
from repro.core.boxkernels import span_cols, temp_csr, tpoint_soa
from repro.core.types import SPAN_TYPES, TEMPORAL_TYPES
from repro.geo import Point
from repro.meos import Span, TSTZ, kernels
from repro.meos.temporal import Interp, TInstant, TSequence, TSequenceSet
from repro.meos.temporal.ttypes import TGEOMPOINT
from repro.quack.errors import ExecutionError, ParserError
from repro.quack.functions import _materialize, row_loop
from repro.quack.sql.lexer import Token, tokenize
from repro.quack import storage
from repro.quack.types import BIGINT, BOOLEAN, DOUBLE
from repro.quack.vector import (
    STANDARD_VECTOR_SIZE,
    Vector,
    ViewVector,
    concat_vectors,
)

T0 = 1_700_000_000_000_000
STEP = 1_000_000

# ---------------------------------------------------------------------------
# Strategies: a small time grid (so bounds meet instants and each other)
# and positions that repeat, line up, and differ by less than the 1e-9
# of the normalization test
# ---------------------------------------------------------------------------

coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-50, 50, allow_nan=False, width=32),
)
#: positions a hair off one spot: a middle instant 1.2e-9 off its
#: neighbours' segment survives the constructor's normalization and is
#: redundant again once a restriction moves the neighbour closer
jitter = st.integers(-3, 3).map(lambda k: 2.0 + k * 6e-10)
position = st.one_of(st.tuples(coordinate, coordinate),
                     st.tuples(jitter, st.just(1.0)),
                     st.tuples(jitter, jitter))
tick = st.integers(0, 24)


def _instants(draw, srid=0, min_size=1, max_size=7):
    ticks = sorted(draw(st.sets(tick, min_size=min_size, max_size=max_size)))
    points = draw(st.lists(
        draw(st.sampled_from([position, st.tuples(jitter, st.just(1.0))])),
        min_size=len(ticks), max_size=len(ticks)))
    if draw(st.booleans()):
        # stationary runs: some instants repeat the position before them
        for i in range(1, len(points)):
            if draw(st.booleans()):
                points[i] = points[i - 1]
    return [TInstant(TGEOMPOINT, Point(x, y, srid), T0 + k * STEP)
            for (x, y), k in zip(points, ticks)]


@st.composite
def linear_sequence(draw, srid=0):
    instants = _instants(draw, srid)
    return TSequence(TGEOMPOINT, instants, draw(st.booleans()),
                     draw(st.booleans()), Interp.LINEAR)


@st.composite
def other_temporal(draw):
    """What the restriction and distance kernels decline: an instant, a
    discrete or step sequence, a sequence set, an unnormalized
    sequence."""
    kind = draw(st.sampled_from(
        ["instant", "discrete", "step", "set", "unnormalized"]))
    instants = _instants(draw, min_size=2)
    if kind == "instant":
        return instants[0]
    if kind == "discrete":
        return TSequence(TGEOMPOINT, instants, True, True, Interp.DISCRETE)
    if kind == "step":
        return TSequence(TGEOMPOINT, instants, draw(st.booleans()),
                         draw(st.booleans()), Interp.STEP)
    if kind == "unnormalized":
        return TSequence(TGEOMPOINT, instants, True, True, Interp.LINEAR,
                         normalize=False)
    cut = draw(st.integers(1, len(instants) - 1))
    return TSequenceSet(TGEOMPOINT, [
        TSequence(TGEOMPOINT, instants[:cut], True, False, Interp.LINEAR),
        TSequence(TGEOMPOINT, instants[cut:], True, True, Interp.LINEAR),
    ])


trip = st.one_of(linear_sequence(), linear_sequence(), other_temporal(),
                 st.none())


@st.composite
def period(draw):
    """On the grid or half a step off it; every inclusivity."""
    lo, hi = sorted(draw(st.tuples(st.integers(-2, 52), st.integers(-2, 52))))
    lo_inc, hi_inc = draw(st.booleans()), draw(st.booleans())
    if lo == hi:
        lo_inc = hi_inc = True
    return Span(T0 + lo * STEP // 2, T0 + hi * STEP // 2, lo_inc, hi_inc,
                TSTZ)


def _same(a, b):
    """Equal results: same type, equal value (floats by ``==``), same
    text."""
    if a is None or b is None:
        return a is None and b is None
    return type(a) is type(b) and a == b and repr(a) == repr(b)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _is_plain(value):
    return (isinstance(value, TSequence)
            and value.interp is Interp.LINEAR
            and not isinstance(value._instants, meos.temporal.base._Unnormalized))


# ---------------------------------------------------------------------------
# The kernels against the scalar methods
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(trip, st.one_of(period(), st.none())),
                min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_at_period_rows_is_at_time(rows, rng):
    trips, spans = zip(*rows)
    csr = kernels.temporal_csr(trips)
    cols = kernels.span_arrays(spans)
    result, declined = kernels.at_period_rows(csr, cols)
    got = result.objects()
    for i, (value, span) in enumerate(rows):
        if value is None or span is None:
            assert declined[i] and got[i] is None
        elif declined[i]:
            assert not _is_plain(value)
        else:
            assert _is_plain(value)
            assert _same(got[i], value.at_time(span)), (value, span)
    # any order, any chunking: the same bits
    order = list(range(len(rows)))
    rng.shuffle(order)
    order = np.array(order[: rng.randint(1, len(order))])
    again, _ = kernels.at_period_rows(csr.take(order), cols.take(order))
    assert all(_same(a, b) for a, b in zip(again.objects(), got[order]))


def test_restriction_drops_instants_its_new_ends_make_redundant():
    """``_normalize_ends``: an instant 1.2e-9 off its neighbours' segment
    is kept by the constructor and goes when the restriction moves a
    neighbour within 1e-9 of it, at the head, at the tail, at both."""
    value = TSequence(TGEOMPOINT, [
        TInstant(TGEOMPOINT, Point(x, 1.0), T0 + k * 10 * STEP)
        for k, x in enumerate([2.0, 2.0 + 1.2e-9, 2.0, 2.0 + 1.2e-9, 2.0])
    ])
    assert value.num_instants() == 5
    # (from, to, instants of the span's restriction before normalization)
    bounds = [(9.5, 40, 5), (0, 30.5, 5), (9.5, 30.5, 5), (9.5, 20, 3),
              (9.9, 10.1, 3), (0, 40, 5)]
    spans = [Span(int(T0 + lo * STEP), int(T0 + hi * STEP), True, False,
                  TSTZ) for lo, hi, _ in bounds]
    result, declined = kernels.at_period_rows(
        kernels.temporal_csr([value] * len(spans)),
        kernels.span_arrays(spans))
    assert not declined.any()
    kept = [got.num_instants() for got in result.objects()]
    assert kept == [4, 4, 3, 2, 2, 5]
    for got, span in zip(result.objects(), spans):
        assert _same(got, value.at_time(span))


@settings(max_examples=200, deadline=None)
@given(linear_sequence(), period())
def test_at_period_result_is_a_batch_the_kernels_read(value, span):
    """``length`` / ``eDwithin`` of a restriction read its arrays: the
    same answers as on the scalar result."""
    result, _ = kernels.at_period_rows(kernels.temporal_csr([value]),
                                       kernels.span_arrays([span]))
    want = value.at_time(span)
    values, declined = kernels.length_rows(result)
    if want is None:
        assert declined[0]
        return
    assert not declined[0]
    assert _bits(values[0]) == _bits(meos.length(want))
    box = want.stbox()
    xmin, ymin, xmax, ymax, tmin, tmax = (v[0] for v in result.bounds())
    assert (xmin, ymin, xmax, ymax) == (box.xmin, box.ymin, box.xmax,
                                        box.ymax)
    assert (tmin, tmax) == (box.tspan.lower, box.tspan.upper)


@settings(max_examples=200, deadline=None)
@given(st.lists(trip, min_size=1, max_size=10))
def test_length_rows_is_length(trips):
    values, declined = kernels.length_rows(kernels.temporal_csr(trips))
    for i, value in enumerate(trips):
        assert declined[i] == (value is None)
        if value is not None:
            assert _bits(values[i]) == _bits(meos.length(value))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(trip, linear_sequence(srid=4326)), min_size=1,
                max_size=10))
def test_trajectory_rows_is_trajectory(trips):
    values, declined = kernels.trajectory_rows(kernels.temporal_csr(trips))
    for i, value in enumerate(trips):
        assert declined[i] == (value is None)
        if value is not None:
            assert values[i] == geo.encode_wkb(meos.trajectory(value))


@settings(max_examples=200, deadline=None)
@given(st.lists(trip, max_size=10), st.randoms(use_true_random=False))
def test_stored_arrays_give_back_the_temporals(trips, rng):
    """The ``tcsr`` segment codec: what decodes is the kernels' view of
    the same temporals, and the objects it builds are the stored ones;
    a gather writes only the temporals it holds."""
    vector = Vector.from_values(_TGEOMPOINT, trips)
    codec, payload = storage.encode_segment(vector)
    assert codec == "tcsr"
    back = storage.decode_segment(codec, payload, len(trips),
                                  _TGEOMPOINT, vector.validity)
    assert isinstance(back, ViewVector)
    assert [_bits(v) for v in kernels.length_rows(temp_csr(back))[0]] == \
        [_bits(v) for v in kernels.length_rows(temp_csr(vector))[0]]
    assert all(_same(a, b) for a, b in zip(back.to_list(), trips))
    rows = np.array([rng.randrange(len(trips)) for _ in trips[:3]],
                    dtype=np.int64)
    gathered = back.take(rows)
    codec, payload = storage.encode_segment(gathered)
    again = storage.decode_segment(codec, payload, len(rows),
                                   _TGEOMPOINT, gathered.validity)
    held = {id(trips[i]) for i in rows.tolist() if trips[i] is not None}
    assert len(temp_csr(again).store) == len(held)
    assert all(_same(a, trips[i])
               for a, i in zip(again.to_list(), rows.tolist()))


distance = st.sampled_from([0.0, 0.5, 1.0, 3.0, 4e-10, -1.0])


def _dwithin_rows(draw_pairs):
    a, b, dist = zip(*draw_pairs)
    return (kernels.temporal_csr(a), kernels.temporal_csr(b),
            np.array(dist, dtype=np.float64))


def _dwithin_reads(a, b, dist):
    return (_is_plain_or_unnormalized(a) and _is_plain_or_unnormalized(b)
            and dist >= 0 and not (a.srid() and b.srid()
                                   and a.srid() != b.srid()))


def _is_plain_or_unnormalized(value):
    return isinstance(value, TSequence) and value.interp is Interp.LINEAR


pair = st.tuples(
    st.one_of(trip, linear_sequence(srid=4326)),
    st.one_of(trip, linear_sequence(srid=3857)),
    distance,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(pair, min_size=1, max_size=10))
def test_edwithin_rows_is_e_dwithin(pairs):
    values, declined = kernels.edwithin_rows(*_dwithin_rows(pairs))
    for i, (a, b, dist) in enumerate(pairs):
        if a is None or b is None:
            assert declined[i]
        elif declined[i]:
            assert not _dwithin_reads(a, b, dist)
        else:
            assert _dwithin_reads(a, b, dist)
            assert bool(values[i]) == meos.e_dwithin(a, b, dist)


@settings(max_examples=300, deadline=None)
@given(st.lists(pair, min_size=1, max_size=10))
def test_tdwithin_rows_is_t_dwithin(pairs):
    values, declined = kernels.tdwithin_rows(*_dwithin_rows(pairs))
    for i, (a, b, dist) in enumerate(pairs):
        if a is None or b is None:
            assert declined[i]
        elif declined[i]:
            assert not _dwithin_reads(a, b, dist)
        else:
            assert _same(values[i], meos.t_dwithin(a, b, dist)), (a, b, dist)


def test_zero_width_common_span_is_one_instant():
    a = meos.tgeompoint("[Point(0 0)@2025-01-01, Point(2 0)@2025-01-02]")
    b = meos.tgeompoint("[Point(2 1)@2025-01-02, Point(9 9)@2025-01-03]")
    ca, cb = kernels.temporal_csr([a, a]), kernels.temporal_csr([b, b])
    dist = np.array([1.0, 0.5])
    values, declined = kernels.tdwithin_rows(ca, cb, dist)
    assert not declined.any()
    assert [str(v) for v in values] == ["t@2025-01-02 00:00:00+00",
                                        "f@2025-01-02 00:00:00+00"]
    assert all(_same(v, meos.t_dwithin(a, b, d))
               for v, d in zip(values, dist))
    assert kernels.edwithin_rows(ca, cb, dist)[0].tolist() == [True, False]
    # disjoint in time: never within, and no tbool at all
    later = meos.tgeompoint("[Point(0 0)@2025-02-01, Point(2 0)@2025-02-02]")
    cl = kernels.temporal_csr([later, later])
    assert kernels.edwithin_rows(ca, cl, dist)[0].tolist() == [False, False]
    assert kernels.tdwithin_rows(ca, cl, dist)[0].tolist() == [None, None]


def test_unreadable_rows_hold_nothing():
    """Non-finite coordinates, mixed SRIDs inside one value and values
    that are no temporal points are rows for the scalar path."""
    nan = meos.tgeompoint("[Point(0 0)@2025-01-01, Point(1 1)@2025-01-02]"
                          ).map_values(lambda p: Point(math.nan, p.y))
    mixed = TSequence(TGEOMPOINT, [
        TInstant(TGEOMPOINT, Point(0, 0, 4326), T0),
        TInstant(TGEOMPOINT, Point(1, 1, 3857), T0 + STEP),
    ])
    csr = kernels.temporal_csr([nan, mixed, meos.tfloat("1.5@2025-01-01"),
                                "text", None])
    assert csr.index.tolist() == [-1] * 5
    assert csr.objects().tolist() == [None] * 5


def test_sequences_too_long_for_exact_fractions_decline():
    """Beyond 2**53 µs NumPy's int/int no longer rounds like Python's:
    the kernels read no row of such a store."""
    value = TSequence(TGEOMPOINT, [
        TInstant(TGEOMPOINT, Point(0, 0), 0),
        TInstant(TGEOMPOINT, Point(1, 1), 1 << 54),
    ])
    csr = kernels.temporal_csr([value])
    span = kernels.span_arrays([Span(1, 5, True, True, TSTZ)])
    assert kernels.at_period_rows(csr, span)[1].tolist() == [True]
    assert kernels.edwithin_rows(csr, csr, np.array([1.0]))[1].tolist() == \
        [True]
    assert kernels.length_rows(csr)[0].tolist() == [meos.length(value)]


# ---------------------------------------------------------------------------
# Views belong to the column
# ---------------------------------------------------------------------------

_TGEOMPOINT = TEMPORAL_TYPES["tgeompoint"]


def _trip_vector(n=12):
    return Vector.from_values(_TGEOMPOINT, [
        None if i == 5 else meos.tgeompoint(
            f"[Point({i} 0)@2025-01-01, Point({i} {i + 1})@2025-01-02]")
        for i in range(n)
    ])


def test_source_rows_survive_slice_take_and_concat(monkeypatch):
    builds = []
    build = kernels.temporal_csr
    monkeypatch.setattr(
        kernels, "temporal_csr",
        lambda values: builds.append(1) or build(values))
    base = _trip_vector()
    keep = np.arange(len(base)) % 3 != 1
    part = base.slice(keep).take([6, 0, 0, 3])
    whole = concat_vectors([part, base.take([5, 11]), base])
    assert whole._source[0] is base
    want = np.concatenate([np.flatnonzero(keep)[[6, 0, 0, 3]], [5, 11],
                           np.arange(len(base))])
    assert whole._source[1].tolist() == want.tolist()
    assert whole.row_keys().tolist() == want.tolist()
    # the view is built once, on the column, and gathered
    gathered = temp_csr(whole)
    assert temp_csr(part).store is gathered.store is temp_csr(base).store
    assert len(builds) == 1
    fresh = build(whole.to_list())
    assert gathered.index.tolist() == \
        [-1 if i < 0 else want[k] - (want[k] > 5)
         for k, i in enumerate(fresh.index)]
    for a, b in zip(gathered.bounds(), fresh.bounds()):
        assert a.tolist() == b.tolist() or np.array_equal(a, b,
                                                          equal_nan=True)
    boxes = tpoint_soa(whole)
    assert boxes.ok.tolist() == whole.validity.tolist()
    # vectors of different columns concatenate to a column of their own
    other = concat_vectors([base.take([1]), _trip_vector().take([2])])
    assert other._source is None


def test_plain_columns_are_not_tracked():
    text = Vector.from_values(core.connect().database.types.lookup("VARCHAR"),
                              ["a", "b", "a"])
    numbers = Vector.from_values(DOUBLE, [1.0, 2.0, 3.0])
    for vector in (text, numbers):
        assert vector.slice(np.array([2, 0]))._source is None
        assert concat_vectors([vector, vector])._source is None
    assert numbers.row_keys().tolist() == \
        numbers.data.view(np.int64).tolist()


def test_constant_payload_vector_is_one_row_gathered():
    span = Span(T0, T0 + STEP, True, False, TSTZ)
    constant = Vector.constant(SPAN_TYPES["tstzspan"], span, 40)
    assert len(constant._source[0]) == 1
    assert set(constant.row_keys().tolist()) == {0}
    assert constant.to_list() == [span] * 40
    cols = span_cols(constant)
    assert cols.lower.tolist() == [T0] * 40 and cols.ok.all()


def _at_time_rows(args, count):
    """``atTime``'s row path, for the rows the kernel declines."""
    return row_loop(lambda t, w: t.at_time(w), args, count, _TGEOMPOINT)


def test_view_vector_builds_objects_only_when_read(monkeypatch):
    built = []
    build = kernels._Store._build
    monkeypatch.setattr(kernels._Store, "_build",
                        lambda self, g: built.append(g) or build(self, g))
    trips = _trip_vector()
    span = Span(meos.parse_timestamptz("2025-01-01 06:00:00"),
                meos.parse_timestamptz("2025-01-01 18:00:00"), True, True,
                TSTZ)
    spans = Vector.constant(SPAN_TYPES["tstzspan"], span, len(trips))
    batch = boxkernels.at_period_batch(_TGEOMPOINT)
    result = batch([trips, spans], len(trips), _at_time_rows)
    assert isinstance(result, ViewVector)
    assert result.validity.tolist() == trips.validity.tolist()
    # gathers stay views, and read the same arrays
    some = result.slice(np.array([3, 3, 5, 0]))
    assert isinstance(some, ViewVector) and some._source[0] is result
    assert temp_csr(some).store is temp_csr(result).store
    lengths, _ = kernels.length_rows(temp_csr(some))
    assert not built
    # reading data builds each distinct row once
    want = [t and t.at_time(span) for t in trips.to_list()]
    assert all(_same(a, want[i])
               for a, i in zip(some.to_list(), [3, 3, 5, 0]))
    assert sorted(built) == [0, 3]
    assert some.data[0] is some.data[1]
    assert lengths.tolist() == [meos.length(want[3])] * 2 + [0.0,
                                                           meos.length(want[0])]
    assert all(_same(a, b) for a, b in zip(result.to_list(), want))


def test_concurrent_readers_see_one_payload():
    """Client threads sharing a database share its vectors: whoever
    reads ``data`` or a derived view first publishes it, and everyone gets
    that object."""
    import sys
    import threading

    trips = Vector.from_values(_TGEOMPOINT, _trip_vector(64).to_list() * 8)
    span = Span(meos.parse_timestamptz("2025-01-01 06:00:00"),
                meos.parse_timestamptz("2025-01-01 18:00:00"), True, True,
                TSTZ)
    spans = Vector.constant(SPAN_TYPES["tstzspan"], span, len(trips))
    batch = boxkernels.at_period_batch(_TGEOMPOINT)
    result = batch([trips, spans], len(trips), _at_time_rows)
    seen, start = [], threading.Barrier(8)

    def read():
        start.wait(timeout=10)
        seen.append((result.data, tpoint_soa(result), temp_csr(trips)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8
    assert all(got is first for row in seen for got, first in zip(row, seen[0]))
    assert all(_same(a, b and b.at_time(span))
               for a, b in zip(result.to_list(), trips.to_list()))


# ---------------------------------------------------------------------------
# Through SQL
# ---------------------------------------------------------------------------

KERNEL_QUERIES = {f"q{n}": get_query(n).sql
                  for n in (3, 6, 8, 9, 10, 11, 13, 14, 15, 16)}
KERNEL_QUERIES["restriction_values"] = """
    SELECT t.TripId, p.PeriodId, asText(atTime(t.Trip, p.Period)),
      length(atTime(t.Trip, p.Period)), numInstants(atTime(t.Trip, p.Period))
    FROM Trips t, Periods1 p ORDER BY t.TripId, p.PeriodId"""
KERNEL_QUERIES["tdwithin_values"] = """
    SELECT t1.TripId, t2.TripId, asText(tDwithin(t1.Trip, t2.Trip, 300.0)),
      eDwithin(t1.Trip, t2.Trip, 300.0)
    FROM Trips t1, Trips t2
    WHERE t1.TripId < t2.TripId AND t1.TripId < 12
    ORDER BY t1.TripId, t2.TripId"""


@pytest.fixture(scope="module")
def city():
    return generate(0.0002, 4711)


@pytest.fixture(scope="module")
def duck(city):
    return prepare_scenario("mobilityduck", city)


@pytest.fixture(scope="module")
def row_engine_rows(city):
    con = prepare_scenario("mobilitydb", city)
    return {name: con.execute(sql).fetchall()
            for name, sql in KERNEL_QUERIES.items()}


def _unordered(name, rows):
    # Q10 orders by licences and returns one row per trip pair
    return sorted(map(repr, rows)) if name == "q10" else list(map(repr, rows))


@pytest.mark.parametrize("name", sorted(KERNEL_QUERIES))
def test_engines_agree_row_for_row(duck, row_engine_rows, name):
    result = duck.execute(KERNEL_QUERIES[name])
    assert _unordered(name, result.fetchall()) == \
        _unordered(name, row_engine_rows[name])
    # (the city has no two trucks: Q6 evaluates nothing)
    assert name == "q6" or \
        result.stats().counters.get("quack.function_batch_ops", 0) > 0


@pytest.fixture(scope="module")
def attached(duck, configure_quack):
    """The city CHECKPOINTed and ATTACHed afresh: trips decode from
    stored segments before the kernels lay out their instants."""
    return configure_quack(duck, "attached", core.connect)


@pytest.mark.parametrize("name", sorted(KERNEL_QUERIES))
def test_engines_agree_on_attached_tables(attached, row_engine_rows, name):
    result = attached.execute(KERNEL_QUERIES[name])
    assert _unordered(name, result.fetchall()) == \
        _unordered(name, row_engine_rows[name])
    assert name == "q6" or \
        result.stats().counters.get("quack.function_batch_ops", 0) > 0


@pytest.mark.parametrize("config", ["memory", "attached"])
@pytest.mark.parametrize("name", ["q9", "q10", "q13", "q16", "q14",
                                  "restriction_values", "tdwithin_values"])
def test_engines_agree_under_verification(city, row_engine_rows, name,
                                          verification, configure_quack,
                                          config):
    """The ``evaluate_batch`` cross-check re-runs every kernel chunk
    through the scalar row loop and demands equal vectors."""
    con = configure_quack(prepare_scenario("mobilityduck", city), config,
                          core.connect)
    result = con.execute(KERNEL_QUERIES[name])
    assert _unordered(name, result.fetchall()) == \
        _unordered(name, row_engine_rows[name])
    assert result.stats().counters["verify.kernel_crosschecks"] > 0


def test_cross_check_blames_the_function_by_name(duck, verification,
                                                 monkeypatch):
    real = kernels.length_rows

    def wrong(csr):
        values, declined = real(csr)
        return values + 1.0, declined

    monkeypatch.setattr(kernels, "length_rows", wrong)
    con = core.connect()
    con.execute("CREATE TABLE trips(trip TGEOMPOINT)")
    con.execute("INSERT INTO trips VALUES"
                " ('[Point(0 0)@2025-01-01, Point(3 4)@2025-01-02]')")
    with pytest.raises(VerificationError, match="'length' evaluate_batch"):
        con.execute("SELECT length(trip) FROM trips").fetchall()


@pytest.mark.parametrize("query", [9, 16])
def test_warm_pass_builds_no_sequence(city, monkeypatch, query):
    """Q9's ``length(atTime(..))`` and Q16's ``eIntersects`` /
    ``eDwithin`` over ``atTime`` read arrays end to end: no scalar
    restriction, no scalar length, no sequence object."""
    if verification_enabled():
        pytest.skip("the cross-check runs the row loop on purpose")
    calls = {"at_time": 0, "length": 0, "sequence": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the registry captures function references when the extension
    # loads: patch first, connect after
    monkeypatch.setattr(meos, "length", counting("length", meos.length))
    for cls in (TSequence, TSequenceSet, TInstant):
        monkeypatch.setattr(cls, "at_time",
                            counting("at_time", cls.at_time))
    monkeypatch.setattr(TSequence, "__init__",
                        counting("sequence", TSequence.__init__))
    monkeypatch.setattr(TSequence, "_slice",
                        counting("sequence", TSequence._slice))
    monkeypatch.setattr(kernels._Store, "_build",
                        counting("sequence", kernels._Store._build))
    con = prepare_scenario("mobilityduck", city)
    sql = get_query(query).sql
    expected = con.execute(sql).fetchall()
    calls.update(at_time=0, length=0, sequence=0)
    assert con.execute(sql).fetchall() == expected
    assert calls == {"at_time": 0, "length": 0, "sequence": 0}


def test_views_outlive_the_statement(duck, monkeypatch):
    """The CSR view of ``Trips.Trip`` belongs to the stored column: a
    second statement walks no trip."""
    duck.execute(get_query(9).sql).fetchall()
    walked = []
    build = kernels.temporal_csr
    monkeypatch.setattr(kernels, "temporal_csr",
                        lambda values: walked.append(1) or build(values))
    duck.execute(get_query(9).sql).fetchall()
    duck.execute(get_query(13).sql).fetchall()
    assert not walked


def _view_builds(con, statements):
    """``quack.view_builds.*`` of running ``statements`` once each."""
    totals = {}
    for sql in statements:
        for name, value in con.execute(sql).stats().counters.items():
            if name.startswith("quack.view_builds."):
                totals[name] = totals.get(name, 0) + value
    return totals


def test_warm_passes_lay_out_no_trip(city, unverified):
    """``quack.view_builds.tcsr`` counts the CSR layouts of temporal
    points: after the first pass of the 17 queries, the trips' layout
    belongs to the stored column and no later pass builds one."""
    con = prepare_scenario("mobilityduck", city)
    statements = [query.sql for query in QUERIES]
    assert _view_builds(con, statements)["quack.view_builds.tcsr"] >= 1
    for _ in range(2):
        assert "quack.view_builds.tcsr" not in _view_builds(con, statements)


@pytest.mark.parametrize("rows", [
    STANDARD_VECTOR_SIZE,
    pytest.param(STANDARD_VECTOR_SIZE + 52, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 11(a): chunks of two row groups concatenate into "
               "a vector with no source, so every statement lays the "
               "trips out again")),
])
def test_a_second_statement_lays_out_no_trip(rows, unverified):
    con = core.connect()
    con.execute("CREATE TABLE t(id BIGINT, trip TGEOMPOINT)")
    con.database.catalog.get_table("t").append_rows([
        (i, meos.tgeompoint(f"[POINT({i % 50} 0)@2020-01-01, "
                            f"POINT({i % 50 + 1} 1)@2020-01-02]"))
        for i in range(rows)
    ])
    sql = "SELECT max(length(trip)) FROM t"
    assert _view_builds(con, [sql]) == {"quack.view_builds.tcsr": 1}
    assert _view_builds(con, [sql]) == {}


# -- @> with an instant -------------------------------------------------------------

INSTANT_TABLES = [
    "CREATE TABLE spans(id INTEGER, span TSTZSPAN)",
    "CREATE TABLE trips(id INTEGER, trip TGEOMPOINT)",
    "CREATE TABLE instants(id INTEGER, at TIMESTAMPTZ)",
    "CREATE TABLE n(k INTEGER)",
    """INSERT INTO spans VALUES
        (1, '[2020-01-02, 2020-01-04]'), (2, '(2020-01-02, 2020-01-04)'),
        (3, '[2020-01-02, 2020-01-04)'), (4, '(2020-01-02, 2020-01-04]'),
        (5, '[2020-01-03, 2020-01-03]'), (6, NULL)""",
    """INSERT INTO trips VALUES
        (1, '[Point(0 0)@2020-01-02, Point(1 1)@2020-01-04]'),
        (2, '(Point(0 0)@2020-01-02, Point(1 1)@2020-01-04)'),
        (3, 'Point(5 5)@2020-01-03'),
        (4, '{[Point(0 0)@2020-01-02, Point(1 1)@2020-01-03),
              [Point(2 2)@2020-01-04, Point(3 3)@2020-01-05)}'),
        (5, NULL)""",
    """INSERT INTO instants VALUES
        (1, '2020-01-01'), (2, '2020-01-02'), (3, '2020-01-03'),
        (4, '2020-01-04'), (5, '2020-01-05'), (6, NULL)""",
    "INSERT INTO n VALUES (1), (2), (3), (4)",
]


def test_contains_instant_kernel_matches_scalar_operator():
    duck, rows_engine = core.connect(), core.connect_baseline()
    for statement in INSTANT_TABLES:
        duck.execute(statement)
        rows_engine.execute(statement)
    sql = ("SELECT s.id, i.id, s.span @> i.at FROM spans s, instants i, n"
           " ORDER BY s.id, i.id, n.k")
    result = duck.execute(sql)
    rows = result.fetchall()
    assert rows == rows_engine.execute(sql).fetchall()
    counters = result.stats().counters
    assert counters["quack.function_batch_ops"] == 1
    # an instant on a bound asks the scalar operator for the flag: spans
    # 1-4 at both ends, span 5 at its only instant, four times each
    assert counters["quack.bbox_rows_scalar"] == 4 * (4 * 2 + 1)
    assert counters["quack.bbox_rows_decided"] == 4 * (4 * 3 + 4)
    contains = {(s, i): v for s, i, v in rows}
    assert [contains[(1, i)] for i in range(1, 6)] == \
        [False, True, True, True, False]
    assert [contains[(2, i)] for i in range(1, 6)] == \
        [False, False, True, False, False]
    assert contains[(6, 3)] is None and contains[(1, 6)] is None
    sql = ("SELECT t.id, i.id, t.trip @> i.at FROM trips t, instants i, n"
           " ORDER BY t.id, i.id, n.k")
    result = duck.execute(sql)
    assert result.fetchall() == rows_engine.execute(sql).fetchall()
    assert result.stats().counters["quack.function_batch_ops"] == 1


# -- argument checks of the *Dwithin family ----------------------------------------------

DWITHIN_TABLES = [
    "CREATE TABLE pairs(id INTEGER, a TGEOMPOINT, b TGEOMPOINT, d DOUBLE)",
    "CREATE TABLE n(k INTEGER)",
    "INSERT INTO n VALUES (1), (2), (3), (4), (5), (6), (7), (8)",
]
_A = "[Point(0 0)@2025-01-01, Point(0 0)@2025-01-02]"
_B = "[Point(1 0)@2025-01-01, Point(1 0)@2025-01-02]"


@pytest.fixture(params=["plain", "verified"])
def verified(request):
    """Under verification the kernel's chunk is re-run through the scalar
    row loop: the argument errors must surface the same either way."""
    if request.param == "plain":
        yield
        return
    previous = set_verification_enabled(True)
    yield
    set_verification_enabled(previous)


def _dwithin_engines(rows):
    for make in (core.connect, core.connect_baseline):
        con = make()
        for statement in DWITHIN_TABLES:
            con.execute(statement)
        for row in rows:
            con.execute("INSERT INTO pairs VALUES (%d, '%s', '%s', %r)" % row)
        yield con


@pytest.mark.parametrize("function", ["eDwithin", "tDwithin", "aDwithin"])
def test_negative_distance_is_an_error(function, verified):
    """It used to act as its absolute value (the distance is squared)."""
    for con in _dwithin_engines([(1, _A, _B, 2.0), (2, _A, _B, -2.0)]):
        ok = con.execute(f"SELECT {function}(a, b, d) FROM pairs, n"
                         " WHERE id = 1").fetchall()
        assert len(ok) == 8 and ok[0][0] is not None
        with pytest.raises(ExecutionError) as err:
            con.execute(
                f"SELECT {function}(a, b, d) FROM pairs, n").fetchall()
        assert (f"error in function {function}: distance must not be "
                "negative: -2.0") in str(err.value)
    with pytest.raises(meos.MeosError, match="must not be negative"):
        meos.e_dwithin(meos.tgeompoint(_A), meos.tgeompoint(_B), -2.0)


@pytest.mark.parametrize("function", ["eDwithin", "tDwithin", "aDwithin"])
def test_srid_mismatch_is_an_error(function, verified):
    """Like ``&&``: two known SRIDs must agree, an unknown one (0) goes
    with any."""
    for con in _dwithin_engines([
        (1, "SRID=4326;" + _A, _B, 2.0),
        (2, "SRID=4326;" + _A, "SRID=4326;" + _B, 2.0),
        (3, "SRID=4326;" + _A, "SRID=3857;" + _B, 2.0),
    ]):
        ok = con.execute(f"SELECT {function}(a, b, d) FROM pairs, n"
                         " WHERE id < 3").fetchall()
        assert len(ok) == 16 and all(r[0] is not None for r in ok)
        with pytest.raises(ExecutionError) as err:
            con.execute(
                f"SELECT {function}(a, b, d) FROM pairs, n").fetchall()
        assert (f"error in function {function}: SRID mismatch: "
                "4326 vs 3857") in str(err.value)
        with pytest.raises(ExecutionError, match="SRID mismatch"):
            con.execute("SELECT a && b FROM pairs, n").fetchall()


def test_conjunct_rank_ignores_whole_work_kernels():
    """A kernel that prefilters nothing keeps the function's written
    place behind the bounding-box conjunct, on both engines."""
    con = core.connect()
    functions = con.database.functions
    tgeompoint = TEMPORAL_TYPES["tgeompoint"]
    overlaps, _ = functions.resolve_scalar("&&", [tgeompoint, tgeompoint])
    dwithin, _ = functions.resolve_scalar(
        "eDwithin", [tgeompoint, tgeompoint, DOUBLE])
    assert overlaps.evaluate_batch and overlaps.batch_prefilters
    assert dwithin.evaluate_batch and not dwithin.batch_prefilters


# ---------------------------------------------------------------------------
# Satellites: result materialisation and the lexer
# ---------------------------------------------------------------------------


def _materialize_loop(ltype, out, validity, count):
    """What ``_materialize`` did one cell at a time."""
    dtype = {"bool": np.bool_, "int64": np.int64, "float64": np.float64}[
        ltype.physical]
    data = np.zeros(count, dtype=dtype)
    for i in range(count):
        if validity[i]:
            data[i] = out[i]
    return data


@pytest.mark.parametrize("ltype,cells", [
    (DOUBLE, [1, 2.5, None, np.float64(7.25), True, math.nan, -0.0, "1.5"]),
    (BIGINT, [1, None, np.int64(-7), True, 2 ** 40, 3.0, "12"]),
    (BOOLEAN, [True, None, False, np.bool_(True), 0, 2, ""]),
])
def test_materialize_is_one_conversion_of_the_valid_cells(ltype, cells):
    out = np.empty(len(cells), dtype=object)
    out[:] = cells
    validity = np.array([c is not None for c in cells])
    vector = _materialize(ltype, out, validity, len(cells))
    want = _materialize_loop(ltype, out, validity, len(cells))
    assert vector.data.dtype == want.dtype
    assert vector.data.tobytes() == want.tobytes()
    assert vector.validity is validity


def _tokenize_by_character(sql):
    """The lexer as it was: one character at a time."""
    from repro.quack.sql.lexer import _OPERATORS

    tokens, i, n = [], 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
        elif sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise ParserError("unterminated block comment")
            i = end + 2
        elif ch == "'":
            out, i = [], i + 1
            while True:
                if i >= n:
                    raise ParserError("unterminated string literal")
                if sql[i] == "'":
                    if sql.startswith("''", i):
                        out.append("'")
                        i += 2
                        continue
                    break
                out.append(sql[i])
                i += 1
            i += 1
            tokens.append(Token("string", "".join(out), i))
        elif ch == '"':
            end = sql.find('"', i + 1)
            if end < 0:
                raise ParserError("unterminated quoted identifier")
            tokens.append(Token("qident", sql[i + 1:end], i))
            i = end + 1
        elif ch.isdigit() or (ch == "." and sql[i + 1:i + 2].isdigit()):
            start, seen_dot, seen_exp = i, False, False
            while i < n:
                c = sql[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and (
                    sql[i + 1:i + 2].isdigit()
                    or (sql[i + 1:i + 2] in ("+", "-")
                        and sql[i + 2:i + 3].isdigit())
                ):
                    seen_exp = True
                    i += 1 if sql[i + 1].isdigit() else 2
                else:
                    break
            tokens.append(Token("number", sql[start:i], start))
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            tokens.append(Token("ident", sql[start:i], start))
        else:
            for op in _OPERATORS:
                if sql.startswith(op, i):
                    tokens.append(Token("op", op, i))
                    i += len(op)
                    break
            else:
                raise ParserError(
                    f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("eof", "", n))
    return tokens


def _lexed(lexer, sql):
    try:
        return [(t.kind, t.text, t.pos, t.upper) for t in lexer(sql)]
    except ParserError as exc:
        return str(exc)


LEXER_CASES = [
    "select 1.e5, .5, 1e5.3, 1.2.3, 1e, 1e+, 1e-7x, 'a''b', \"q x\","
    " a-|-b -- c\n /* x\n */ y",
    "select 'abc", 'select "abc', "select /* abc", "select #", "x/*y*/z--",
    "1..2", "a.b.c", "''", '""', "1e5e5", "a--b", "a/ *b", "  ", "",
    "tgeompoint '[Point(0 0)@2025-01-01]' && x::stbox <@ y @> z << w >> v",
]


@pytest.mark.parametrize("sql", [q.sql for q in QUERIES]
                         + [q.optimized_sql for q in QUERIES
                            if q.optimized_sql] + LEXER_CASES)
def test_lexer_token_stream_is_unchanged(sql):
    assert _lexed(tokenize, sql) == _lexed(_tokenize_by_character, sql)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="abE_ 1.'\"-/*\n+e;,()<>=@&|:[]{}%#", max_size=14))
def test_lexer_agrees_on_any_text(sql):
    assert _lexed(tokenize, sql) == _lexed(_tokenize_by_character, sql)
