"""``TSequence._slice`` / ``value_at_timestamp`` are O(log n + k): the
linear-scan, re-validating, fully re-normalizing implementation they
replaced is kept here as the reference the fast path must equal."""

import bisect
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import geo
from repro.meos import Span
from repro.meos.basetypes import TSTZ
from repro.meos.temporal import Interp, TInstant, TSequence
from repro.meos.temporal.base import _pack_sequences
from repro.meos.temporal.ttypes import TFLOAT, TGEOMPOINT, TINT


def reference_value_at_timestamp(seq: TSequence, t: int):
    times = [inst.t for inst in seq._instants]
    if seq._interp is Interp.DISCRETE:
        idx = bisect.bisect_left(times, t)
        if idx < len(times) and times[idx] == t:
            return seq._instants[idx].value
        return None
    if t < times[0] or t > times[-1]:
        return None
    if t == times[0]:
        return seq._instants[0].value if seq.lower_inc else None
    if t == times[-1]:
        return seq._instants[-1].value if seq.upper_inc else None
    idx = bisect.bisect_right(times, t) - 1
    return seq._segment_value(idx, t)


def reference_slice(seq: TSequence, span: Span):
    lo, hi = span.lower, span.upper
    new_instants = []
    v_lo = reference_value_at_timestamp(seq, lo)
    if v_lo is None and lo == seq.start_timestamp():
        v_lo = seq._instants[0].value
    if v_lo is None and lo == seq.end_timestamp():
        v_lo = seq._instants[-1].value
    if v_lo is not None:
        new_instants.append(TInstant(seq.ttype, v_lo, lo))
    for inst in seq._instants:
        if lo < inst.t < hi:
            new_instants.append(inst)
    if hi > lo:
        v_hi = reference_value_at_timestamp(seq, hi)
        if v_hi is None and hi == seq.end_timestamp():
            v_hi = seq._instants[-1].value
        if v_hi is not None:
            new_instants.append(TInstant(seq.ttype, v_hi, hi))
    if not new_instants:
        return None
    return TSequence(
        seq.ttype,
        new_instants,
        span.lower_inc,
        span.upper_inc if len(new_instants) > 1 else True,
        seq._interp,
    )


# Values are small integers on timestamps that are multiples of 8, so
# collinearity is decided exactly: normalization has no
# tolerance-borderline cases and a normalized sequence is a fixed point.
_KINDS = {
    "tint": (TINT, Interp.STEP, lambda x, y: x),
    "tfloat_step": (TFLOAT, Interp.STEP, lambda x, y: float(x)),
    "tfloat": (TFLOAT, Interp.LINEAR, lambda x, y: float(x)),
    "tgeompoint": (TGEOMPOINT, Interp.LINEAR,
                   lambda x, y: geo.Point(float(x), float(y))),
}
_COORDS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def sequences(draw):
    ttype, interp, make = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    times = sorted(draw(st.lists(st.integers(0, 60), min_size=1,
                                 max_size=12, unique=True)))
    instants = [TInstant(ttype, make(*draw(_COORDS)), t * 8) for t in times]
    return TSequence(
        ttype, instants, draw(st.booleans()), draw(st.booleans()), interp,
        normalize=draw(st.booleans()),
    )


@st.composite
def sequence_and_span(draw):
    """A sequence and a span within its extent; bounds land on instants,
    between them, and on the (possibly exclusive) ends."""
    seq = draw(sequences())
    first, last = seq.start_timestamp(), seq.end_timestamp()
    lo = draw(st.integers(first, last))
    hi = draw(st.integers(lo, last))
    lower_inc = draw(st.booleans())
    upper_inc = draw(st.booleans())
    if lo == hi:
        lower_inc = upper_inc = True
    return seq, Span(lo, hi, lower_inc, upper_inc, TSTZ)


@settings(max_examples=400, deadline=None)
@given(sequence_and_span())
def test_fast_slice_equals_reference(case):
    seq, span = case
    fast = seq._slice(span)
    reference = reference_slice(seq, span)
    assert fast == reference
    if fast is not None:
        assert (fast.lower_inc, fast.upper_inc) == (
            reference.lower_inc, reference.upper_inc
        )
        assert [i.t for i in fast._instants] == [
            i.t for i in reference._instants
        ]


@settings(max_examples=400, deadline=None)
@given(sequence_and_span())
def test_at_time_equals_reference_restriction(case):
    seq, span = case
    hit = seq.tstzspan().intersection(span)
    pieces = [] if hit is None else [reference_slice(seq, hit)]
    assert seq.at_time(span) == _pack_sequences(seq.ttype, pieces,
                                                seq.interp)


@settings(max_examples=300, deadline=None)
@given(sequences(), st.integers(-8, 500))
def test_value_at_timestamp_equals_reference(seq, t):
    assert seq.value_at_timestamp(t) == reference_value_at_timestamp(seq, t)


@given(sequences(), st.integers(-8, 500))
def test_discrete_value_at_timestamp_equals_reference(seq, t):
    discrete = TSequence(seq.ttype, seq.instants(), interp=Interp.DISCRETE)
    assert discrete.value_at_timestamp(t) == reference_value_at_timestamp(
        discrete, t
    )


def test_unnormalized_sources_renormalize_in_full():
    # Built with normalize=False, the middle instant at t=16 is redundant;
    # the reference drops it from any slice that spans it, and so must
    # the fast path even though it is not next to a boundary instant.
    instants = [TInstant(TFLOAT, float(v), t)
                for v, t in [(0, 0), (1, 8), (2, 16), (3, 24), (9, 32)]]
    raw = TSequence(TFLOAT, instants, normalize=False)
    span = Span(4, 30, True, True, TSTZ)
    assert raw._slice(span) == reference_slice(raw, span)
    assert [i.t for i in raw._slice(span)._instants] == [4, 24, 30]
    # ... and the marker survives the codecs that pickle payloads.
    clone = pickle.loads(pickle.dumps(raw))
    assert clone == raw
    assert [i.t for i in clone._slice(span)._instants] == [4, 24, 30]


def test_normalized_sequences_pickle_as_plain_tuples():
    # stored_bytes_per_row: no new pickled state on normalized payloads.
    seq = TSequence(TFLOAT, [TInstant(TFLOAT, float(v), t)
                             for v, t in [(0, 0), (5, 8), (1, 16)]])
    assert type(seq._instants) is tuple
    assert type(seq._slice(Span(2, 12, True, False, TSTZ))._instants) is tuple
