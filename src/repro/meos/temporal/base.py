"""Temporal values: instants, sequences, and sequence sets.

This module implements the MEOS temporal subtype lattice:

* :class:`TInstant` — a value at one timestamp (``1@2025-01-01``),
* :class:`TSequence` — values over a time span with discrete, step, or
  linear interpolation (``[1@t1, 2@t2)`` / ``{1@t1, 2@t2}``),
* :class:`TSequenceSet` — a set of sequences with temporal gaps
  (``{[…], […]}``) — the paper's motivation for MEOS modelling
  "temporal gaps" such as GPS signal loss.

All classes are generic over a :class:`~.ttypes.TemporalType`; the concrete
types of the paper (tbool, tint, tfloat, ttext, tgeompoint) are obtained by
passing the corresponding descriptor.  Values are immutable.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence as Seq

from ... import geo
from ..basetypes import TSTZ
from ..boxes import STBox, TBox
from ..errors import MeosError, MeosTypeError
from ..setcls import Set
from ..span import Span
from ..spanset import SpanSet
from ..timetypes import (
    Interval,
    add_interval,
    format_timestamptz,
    interval_from_usecs,
)
from .interp import Interp
from .ttypes import SPATIAL_TYPES, TFLOAT, TINT, TemporalType


_instant_time = attrgetter("t")


class Temporal:
    """Abstract base of all temporal values."""

    __slots__ = ("ttype", "_stbox_memo")

    subtype: str = "Temporal"

    def __init__(self, ttype: TemporalType):
        self.ttype = ttype

    # -- structure ------------------------------------------------------------

    def instants(self) -> list["TInstant"]:
        raise NotImplementedError

    def sequences(self) -> list["TSequence"]:
        raise NotImplementedError

    @property
    def interp(self) -> Interp:
        raise NotImplementedError

    def num_instants(self) -> int:
        return len(self.instants())

    def instant_n(self, index: int) -> "TInstant":
        """1-based instant access (MobilityDB ``instantN``)."""
        items = self.instants()
        if not 1 <= index <= len(items):
            raise MeosError(f"instant index {index} out of range")
        return items[index - 1]

    # -- value accessors --------------------------------------------------------

    def values(self) -> list[Any]:
        return [inst.value for inst in self.instants()]

    def start_value(self) -> Any:
        return self.instants()[0].value

    def end_value(self) -> Any:
        return self.instants()[-1].value

    def min_value(self) -> Any:
        if not self.ttype.basetype.is_ordered:
            raise MeosTypeError(f"{self.ttype.name} values are unordered")
        return min(self.values())

    def max_value(self) -> Any:
        if not self.ttype.basetype.is_ordered:
            raise MeosTypeError(f"{self.ttype.name} values are unordered")
        return max(self.values())

    def value_at_timestamp(self, t: int) -> Any | None:
        """Value at ``t`` or None when the temporal is not defined there."""
        raise NotImplementedError

    # -- time accessors -----------------------------------------------------------

    def timestamps(self) -> list[int]:
        return [inst.t for inst in self.instants()]

    def start_timestamp(self) -> int:
        return self.instants()[0].t

    def end_timestamp(self) -> int:
        return self.instants()[-1].t

    def time(self) -> SpanSet:
        """The set of time spans over which the value is defined."""
        raise NotImplementedError

    def tstzspan(self) -> Span:
        """Bounding time span."""
        raise NotImplementedError

    def duration(self, boundspan: bool = False) -> Interval:
        """Duration over which the value is defined; with ``boundspan``,
        the duration of the bounding span (paper §3.5)."""
        if boundspan:
            span = self.tstzspan()
            return interval_from_usecs(span.upper - span.lower)
        total = 0
        for seq in self.sequences():
            if seq.interp is not Interp.DISCRETE:
                total += seq.end_timestamp() - seq.start_timestamp()
        return interval_from_usecs(total)

    # -- bounding boxes --------------------------------------------------------------

    def bbox(self) -> Any:
        """TBox for temporal numbers, STBox for temporal points, tstzspan
        otherwise."""
        if self.ttype in SPATIAL_TYPES:
            return self.stbox()
        if self.ttype in (TINT, TFLOAT):
            values = self.values()
            vspan = Span.make(
                min(values), max(values), self.ttype.basetype, True, True
            )
            return TBox(vspan, self.tstzspan())
        return self.tstzspan()

    def stbox(self) -> STBox:
        # Memoized: temporal values are immutable once constructed, and
        # box-operator kernels call stbox() once per predicate operand.
        try:
            return self._stbox_memo
        except AttributeError:
            pass
        if self.ttype not in SPATIAL_TYPES:
            raise MeosTypeError(f"{self.ttype.name} has no stbox")
        xs: list[float] = []
        ys: list[float] = []
        for inst in self.instants():
            value = inst.value
            if isinstance(value, geo.Point):
                xs.append(value.x)
                ys.append(value.y)
            else:
                for x, y in value.coordinates():
                    xs.append(x)
                    ys.append(y)
        box = STBox(
            min(xs), min(ys), max(xs), max(ys), self.tstzspan(), self.srid()
        )
        self._stbox_memo = box
        return box

    def srid(self) -> int:
        if self.ttype not in SPATIAL_TYPES:
            raise MeosTypeError(f"{self.ttype.name} has no SRID")
        return self.instants()[0].value.srid

    # -- ever / always -------------------------------------------------------------

    def ever(self, pred: Callable[[Any], bool]) -> bool:
        raise NotImplementedError

    def always(self, pred: Callable[[Any], bool]) -> bool:
        raise NotImplementedError

    def ever_eq(self, value: Any) -> bool:
        value = self.ttype.basetype.coerce(value)
        restricted = self.at_value(value)
        return restricted is not None

    def always_eq(self, value: Any) -> bool:
        value = self.ttype.basetype.coerce(value)
        return all(self.ttype.value_eq(v, value) for v in self.values())

    # -- restriction (implemented by subclasses) --------------------------------------

    def at_time(self, when: "int | Span | SpanSet | Set") -> "Temporal | None":
        raise NotImplementedError

    def minus_time(self, when: "int | Span | SpanSet | Set") -> "Temporal | None":
        spans = _complement(self._when_to_spanset(when), self.tstzspan())
        if spans is None:
            return None
        return self.at_time(spans)

    def at_value(self, value: Any) -> "Temporal | None":
        raise NotImplementedError

    def at_values(self, values: Set) -> "Temporal | None":
        pieces = [
            piece
            for v in values
            if (piece := self.at_value(v)) is not None
        ]
        if not pieces:
            return None
        return merge(pieces)

    def at_min(self) -> "Temporal | None":
        """Restrict to the instants with the minimum value (MEOS atMin)."""
        return self.at_value(self.min_value())

    def at_max(self) -> "Temporal | None":
        """Restrict to the instants with the maximum value (MEOS atMax)."""
        return self.at_value(self.max_value())

    def minus_value(self, value: Any) -> "Temporal | None":
        hit = self.at_value(value)
        if hit is None:
            return self
        return self.minus_time(hit.time())

    def _when_to_spanset(self, when: "int | Span | SpanSet | Set") -> SpanSet:
        if isinstance(when, SpanSet):
            return when
        if isinstance(when, Span):
            return SpanSet.from_spans([when])
        if isinstance(when, Set):
            return SpanSet.from_spans(
                Span.make(t, t, TSTZ, True, True) for t in when
            )
        return SpanSet.from_spans([Span.make(when, when, TSTZ, True, True)])

    # -- transformations -----------------------------------------------------------------

    def shift_time(self, interval: Interval) -> "Temporal":
        delta = interval
        return self._map_time(lambda t: add_interval(t, delta))

    def scale_time(self, width: Interval) -> "Temporal":
        lo = self.start_timestamp()
        hi = self.end_timestamp()
        extent = hi - lo
        target = width.total_usecs()
        if target <= 0:
            raise MeosError("scale width must be positive")
        if extent == 0:
            return self
        return self._map_time(
            lambda t: lo + int(round((t - lo) * target / extent))
        )

    def shift_scale_time(self, shift: Interval, width: Interval) -> "Temporal":
        return self.shift_time(shift).scale_time(width)

    def _map_time(self, func: Callable[[int], int]) -> "Temporal":
        raise NotImplementedError

    def map_values(
        self, func: Callable[[Any], Any], ttype: TemporalType | None = None
    ) -> "Temporal":
        """Apply ``func`` to every instant value (lifted unary function)."""
        raise NotImplementedError

    # -- output ---------------------------------------------------------------------------

    def _format_body(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        prefix = ""
        if self.ttype in SPATIAL_TYPES:
            srid = self.srid()
            if srid:
                prefix += f"SRID={srid};"
        if (
            self.ttype.continuous
            and self.interp is Interp.STEP
        ):
            prefix += "Interp=Step;"
        return prefix + self._format_body()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ttype.name} {self}>"

    def as_text(self) -> str:
        """MobilityDB ``asText`` (no SRID prefix)."""
        body = self._format_body()
        if self.ttype.continuous and self.interp is Interp.STEP:
            return "Interp=Step;" + body
        return body

    def as_ewkt(self) -> str:
        """MobilityDB ``asEWKT`` (with SRID prefix for spatial types)."""
        return str(self)

    # -- equality ---------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Temporal):
            return NotImplemented
        return (
            self.ttype.name == other.ttype.name
            and self.subtype == other.subtype
            and self._key() == other._key()
        )

    def __hash__(self) -> int:
        return hash((self.ttype.name, self.subtype, self._key()))

    def _key(self):
        raise NotImplementedError


class TInstant(Temporal):
    """A single value at a single timestamp."""

    __slots__ = ("value", "t")
    subtype = "Instant"

    def __init__(self, ttype: TemporalType, value: Any, t: int):
        super().__init__(ttype)
        self.value = ttype.basetype.coerce(value)
        self.t = int(t)

    @property
    def interp(self) -> Interp:
        return Interp.DISCRETE

    def instants(self) -> list["TInstant"]:
        return [self]

    def sequences(self) -> list["TSequence"]:
        return [
            TSequence(self.ttype, [self], True, True,
                      Interp.LINEAR if self.ttype.continuous else Interp.STEP)
        ]

    def value_at_timestamp(self, t: int) -> Any | None:
        return self.value if t == self.t else None

    def time(self) -> SpanSet:
        return SpanSet.from_spans([Span.make(self.t, self.t, TSTZ, True, True)])

    def tstzspan(self) -> Span:
        return Span.make(self.t, self.t, TSTZ, True, True)

    def ever(self, pred: Callable[[Any], bool]) -> bool:
        return pred(self.value)

    def always(self, pred: Callable[[Any], bool]) -> bool:
        return pred(self.value)

    def at_time(self, when) -> "TInstant | None":
        spanset = self._when_to_spanset(when)
        if spanset.contains_value(self.t):
            return self
        return None

    def at_value(self, value: Any) -> "TInstant | None":
        value = self.ttype.basetype.coerce(value)
        if self.ttype.value_eq(self.value, value):
            return self
        return None

    def _map_time(self, func: Callable[[int], int]) -> "TInstant":
        return TInstant(self.ttype, self.value, func(self.t))

    def map_values(self, func, ttype=None) -> "TInstant":
        return TInstant(ttype or self.ttype, func(self.value), self.t)

    def _format_body(self) -> str:
        return f"{self.ttype.format_value(self.value)}@{format_timestamptz(self.t)}"

    def _key(self):
        return (_value_key(self.ttype, self.value), self.t)


def _value_key(ttype: TemporalType, value: Any):
    key = ttype.basetype.sort_key
    return key(value) if key else value


class TSequence(Temporal):
    """Values over a time span (or a discrete list of instants).

    Continuous sequences (step/linear) carry lower/upper bound inclusivity;
    discrete sequences are always ``[..]`` over their instants.  The
    constructor normalizes continuous sequences by dropping redundant
    instants (equal values under step, collinear points under linear),
    matching MEOS so that structural equality is canonical.
    """

    __slots__ = ("_instants", "lower_inc", "upper_inc", "_interp")
    subtype = "Sequence"

    def __init__(
        self,
        ttype: TemporalType,
        instants: Iterable[TInstant],
        lower_inc: bool = True,
        upper_inc: bool = True,
        interp: Interp | None = None,
        normalize: bool = True,
    ):
        super().__init__(ttype)
        items = list(instants)
        if not items:
            raise MeosError("a sequence needs at least one instant")
        for inst in items:
            if inst.ttype.name != ttype.name:
                raise MeosTypeError("mixed temporal types in sequence")
        for a, b in zip(items, items[1:]):
            if a.t >= b.t:
                raise MeosError("sequence instants must be strictly increasing")
        if interp is None:
            interp = Interp.LINEAR if ttype.continuous else Interp.STEP
        if interp is Interp.LINEAR and not ttype.continuous:
            raise MeosTypeError(
                f"{ttype.name} does not support linear interpolation"
            )
        if interp is Interp.DISCRETE:
            lower_inc = upper_inc = True
        if len(items) == 1:
            lower_inc = upper_inc = True
        self._instants = tuple(items)
        if interp is not Interp.DISCRETE and len(items) > 2:
            if normalize:
                self._instants = tuple(
                    _normalize(ttype, items, interp, upper_inc)
                )
            else:
                self._instants = _Unnormalized(items)
        self.lower_inc = bool(lower_inc)
        self.upper_inc = bool(upper_inc)
        self._interp = interp

    @property
    def interp(self) -> Interp:
        return self._interp

    def instants(self) -> list[TInstant]:
        return list(self._instants)

    def sequences(self) -> list["TSequence"]:
        if self._interp is Interp.DISCRETE:
            return [
                TSequence(self.ttype, [inst], True, True,
                          Interp.STEP if not self.ttype.continuous
                          else Interp.LINEAR)
                for inst in self._instants
            ]
        return [self]

    # -- evaluation ----------------------------------------------------------------

    def _segment_value(self, i: int, t: int) -> Any:
        """Value at time ``t`` within segment ``i`` (between instants i, i+1)."""
        a = self._instants[i]
        b = self._instants[i + 1]
        if t == a.t:
            return a.value
        if t == b.t:
            return b.value
        if self._interp is Interp.LINEAR:
            frac = (t - a.t) / (b.t - a.t)
            return self.ttype.interpolate(a.value, b.value, frac)
        return a.value

    def value_at_timestamp(self, t: int) -> Any | None:
        instants = self._instants
        idx = bisect.bisect_left(instants, t, key=_instant_time)
        if idx == len(instants):
            return None
        inst = instants[idx]
        if inst.t == t:
            if self._interp is not Interp.DISCRETE and (
                (idx == 0 and not self.lower_inc)
                or (idx == len(instants) - 1 and not self.upper_inc)
            ):
                return None
            return inst.value
        if idx == 0 or self._interp is Interp.DISCRETE:
            return None
        return self._segment_value(idx - 1, t)

    def _instant_at(self, t: int) -> TInstant | None:
        """The instant at ``t`` with both ends of a continuous sequence
        taken as inclusive (None outside its time extent)."""
        instants = self._instants
        idx = bisect.bisect_right(instants, t, key=_instant_time)
        if idx == 0:
            return None
        if instants[idx - 1].t == t:
            return instants[idx - 1]
        if idx == len(instants):
            return None
        return TInstant(self.ttype, self._segment_value(idx - 1, t), t)

    def time(self) -> SpanSet:
        if self._interp is Interp.DISCRETE:
            return SpanSet.from_spans(
                Span.make(inst.t, inst.t, TSTZ, True, True)
                for inst in self._instants
            )
        return SpanSet.from_spans([self.tstzspan()])

    def tstzspan(self) -> Span:
        first = self._instants[0].t
        last = self._instants[-1].t
        if self._interp is Interp.DISCRETE:
            return Span.make(first, last, TSTZ, True, True)
        return Span(first, last, self.lower_inc, self.upper_inc, TSTZ)

    def ever(self, pred: Callable[[Any], bool]) -> bool:
        return any(pred(inst.value) for inst in self._instants)

    def always(self, pred: Callable[[Any], bool]) -> bool:
        return all(pred(inst.value) for inst in self._instants)

    # -- restriction ----------------------------------------------------------------

    def at_time(self, when) -> "Temporal | None":
        if isinstance(when, Set) and self._interp is not Interp.DISCRETE:
            return self._at_timestamp_set(when)
        spanset = self._when_to_spanset(when)
        if self._interp is Interp.DISCRETE:
            kept = [
                inst for inst in self._instants
                if spanset.contains_value(inst.t)
            ]
            if not kept:
                return None
            if len(kept) == 1:
                return kept[0]
            return TSequence(self.ttype, kept, True, True, Interp.DISCRETE)
        pieces: list[TSequence] = []
        own = self.tstzspan()
        for span in spanset:
            hit = own.intersection(span)
            if hit is None:
                continue
            piece = self._slice(hit)
            if piece is not None:
                pieces.append(piece)
        return _pack_sequences(self.ttype, pieces, self._interp)

    def _at_timestamp_set(self, when: Set) -> "Temporal | None":
        """Restriction to a tstzset yields a discrete result (MobilityDB)."""
        instants = [
            TInstant(self.ttype, value, t)
            for t in when
            if (value := self.value_at_timestamp(t)) is not None
        ]
        if not instants:
            return None
        if len(instants) == 1:
            return instants[0]
        return TSequence(self.ttype, instants, True, True, Interp.DISCRETE)

    def _slice(self, span: Span) -> "TSequence | None":
        """Restrict a continuous sequence to ``span`` (must be within).

        O(log n + k) for a k-instant result: the interior is a bisected
        sub-range of the instant tuple, and because that run comes from a
        sequence the constructor already validated and normalized, only
        the instants next to the two (possibly interpolated) boundary
        instants can have become redundant."""
        lo, hi = span.lower, span.upper
        instants = self._instants
        first = bisect.bisect_right(instants, lo, key=_instant_time)
        last = bisect.bisect_left(instants, hi, first, key=_instant_time)
        new_instants: list[TInstant] = []
        start = self._instant_at(lo)
        if start is not None:
            new_instants.append(start)
        new_instants.extend(instants[first:last])
        if hi > lo:
            end = self._instant_at(hi)
            if end is not None:
                new_instants.append(end)
        if not new_instants:
            return None
        single = len(new_instants) == 1
        upper_inc = True if single else span.upper_inc
        if isinstance(instants, _Unnormalized):
            return TSequence(self.ttype, new_instants, span.lower_inc,
                             upper_inc, self._interp)
        piece = TSequence.__new__(TSequence)
        piece.ttype = self.ttype
        piece._instants = tuple(
            _normalize_ends(self.ttype, new_instants, self._interp)
        )
        piece.lower_inc = True if single else span.lower_inc
        piece.upper_inc = upper_inc
        piece._interp = self._interp
        return piece

    def at_value(self, value: Any) -> "Temporal | None":
        value = self.ttype.basetype.coerce(value)
        eq = self.ttype.value_eq
        if self._interp is Interp.DISCRETE:
            kept = [i for i in self._instants if eq(i.value, value)]
            if not kept:
                return None
            if len(kept) == 1:
                return kept[0]
            return TSequence(self.ttype, kept, True, True, Interp.DISCRETE)
        pieces: list[TSequence] = []
        instants = self._instants
        if len(instants) == 1:
            if eq(instants[0].value, value):
                return instants[0]
            return None
        for i in range(len(instants) - 1):
            a, b = instants[i], instants[i + 1]
            seg_lower_inc = self.lower_inc if i == 0 else True
            seg_upper_inc = self.upper_inc if i == len(instants) - 2 else False
            if self._interp is Interp.STEP:
                if eq(a.value, value):
                    pieces.append(
                        TSequence(self.ttype, [a, TInstant(self.ttype, a.value, b.t)],
                                  seg_lower_inc, False, Interp.STEP)
                    )
                if i == len(instants) - 2 and seg_upper_inc and eq(b.value, value):
                    pieces.append(
                        TSequence(self.ttype, [b], True, True, Interp.STEP)
                    )
                continue
            # linear
            if eq(a.value, b.value):
                if eq(a.value, value):
                    pieces.append(
                        TSequence(self.ttype, [a, b], seg_lower_inc,
                                  seg_upper_inc, Interp.LINEAR)
                    )
                continue
            frac = self.ttype.locate(a.value, b.value, value)
            if frac is None:
                continue
            t_hit = a.t + round(frac * (b.t - a.t))
            if t_hit == a.t and not seg_lower_inc:
                continue
            if t_hit == b.t and not seg_upper_inc and i == len(instants) - 2:
                continue
            if t_hit == b.t and i != len(instants) - 2:
                continue  # the next segment's lower end will produce it
            pieces.append(
                TSequence(self.ttype, [TInstant(self.ttype, value, t_hit)],
                          True, True, Interp.LINEAR)
            )
        return _pack_sequences(self.ttype, pieces, self._interp)

    # -- transformations ---------------------------------------------------------------

    def _map_time(self, func: Callable[[int], int]) -> "TSequence":
        return TSequence(
            self.ttype,
            [TInstant(self.ttype, i.value, func(i.t)) for i in self._instants],
            self.lower_inc,
            self.upper_inc,
            self._interp,
            normalize=False,
        )

    def map_values(self, func, ttype=None) -> "TSequence":
        target = ttype or self.ttype
        interp = self._interp
        if interp is Interp.LINEAR and not target.continuous:
            interp = Interp.STEP
        return TSequence(
            self.ttype if ttype is None else target,
            [TInstant(target, func(i.value), i.t) for i in self._instants],
            self.lower_inc,
            self.upper_inc,
            interp,
        )

    def set_interp(self, interp: Interp) -> "TSequence":
        return TSequence(
            self.ttype, self._instants, self.lower_inc, self.upper_inc, interp
        )

    # -- output ---------------------------------------------------------------------------

    def _format_body(self) -> str:
        inner = ", ".join(inst._format_body() for inst in self._instants)
        if self._interp is Interp.DISCRETE:
            return "{" + inner + "}"
        left = "[" if self.lower_inc else "("
        right = "]" if self.upper_inc else ")"
        return f"{left}{inner}{right}"

    def _key(self):
        return (
            tuple(i._key() for i in self._instants),
            self.lower_inc,
            self.upper_inc,
            self._interp,
        )


class TSequenceSet(Temporal):
    """A set of non-overlapping continuous sequences (temporal gaps allowed)."""

    __slots__ = ("_sequences",)
    subtype = "SequenceSet"

    def __init__(
        self, ttype: TemporalType, sequences: Iterable[TSequence]
    ):
        super().__init__(ttype)
        items = sorted(sequences, key=lambda s: s.start_timestamp())
        if not items:
            raise MeosError("a sequence set needs at least one sequence")
        interp = items[0].interp
        for seq in items:
            if seq.ttype.name != ttype.name:
                raise MeosTypeError("mixed temporal types in sequence set")
            if seq.interp is Interp.DISCRETE:
                raise MeosError("sequence sets cannot contain discrete sequences")
            if seq.interp is not interp:
                raise MeosError("mixed interpolation in sequence set")
        for a, b in zip(items, items[1:]):
            if a.end_timestamp() > b.start_timestamp() or (
                a.end_timestamp() == b.start_timestamp()
                and a.upper_inc
                and b.lower_inc
            ):
                raise MeosError("overlapping sequences in sequence set")
        self._sequences = tuple(items)

    @property
    def interp(self) -> Interp:
        return self._sequences[0].interp

    def instants(self) -> list[TInstant]:
        out: list[TInstant] = []
        for seq in self._sequences:
            out.extend(seq.instants())
        return out

    def sequences(self) -> list[TSequence]:
        return list(self._sequences)

    def num_sequences(self) -> int:
        return len(self._sequences)

    def sequence_n(self, index: int) -> TSequence:
        if not 1 <= index <= len(self._sequences):
            raise MeosError(f"sequence index {index} out of range")
        return self._sequences[index - 1]

    def value_at_timestamp(self, t: int) -> Any | None:
        for seq in self._sequences:
            value = seq.value_at_timestamp(t)
            if value is not None:
                return value
        return None

    def time(self) -> SpanSet:
        return SpanSet.from_spans(s.tstzspan() for s in self._sequences)

    def tstzspan(self) -> Span:
        first = self._sequences[0].tstzspan()
        last = self._sequences[-1].tstzspan()
        return Span(
            first.lower, last.upper, first.lower_inc, last.upper_inc, TSTZ
        )

    def ever(self, pred: Callable[[Any], bool]) -> bool:
        return any(seq.ever(pred) for seq in self._sequences)

    def always(self, pred: Callable[[Any], bool]) -> bool:
        return all(seq.always(pred) for seq in self._sequences)

    def at_time(self, when) -> "Temporal | None":
        if isinstance(when, Set):
            instants: list[TInstant] = []
            for seq in self._sequences:
                hit = seq.at_time(when)
                if hit is not None:
                    instants.extend(hit.instants())
            if not instants:
                return None
            if len(instants) == 1:
                return instants[0]
            return TSequence(self.ttype, instants, True, True,
                             Interp.DISCRETE)
        pieces: list[TSequence] = []
        for seq in self._sequences:
            hit = seq.at_time(when)
            if hit is None:
                continue
            pieces.extend(hit.sequences())
        return self._repack(pieces)

    def at_value(self, value: Any) -> "Temporal | None":
        pieces: list[TSequence] = []
        for seq in self._sequences:
            hit = seq.at_value(value)
            if hit is None:
                continue
            pieces.extend(hit.sequences())
        return self._repack(pieces)

    def _repack(self, pieces: list[TSequence]) -> "Temporal | None":
        """Pack restriction results, keeping the SequenceSet subtype
        (MobilityDB restriction of a sequence set yields a sequence set)."""
        result = _pack_sequences(self.ttype, pieces, self.interp)
        if isinstance(result, TInstant):
            result = result.sequences()[0]
        if isinstance(result, TSequence):
            return TSequenceSet(self.ttype, [result])
        return result

    def _map_time(self, func: Callable[[int], int]) -> "TSequenceSet":
        return TSequenceSet(
            self.ttype, [seq._map_time(func) for seq in self._sequences]
        )

    def map_values(self, func, ttype=None) -> "TSequenceSet":
        return TSequenceSet(
            ttype or self.ttype,
            [seq.map_values(func, ttype) for seq in self._sequences],
        )

    def _format_body(self) -> str:
        return "{" + ", ".join(s._format_body() for s in self._sequences) + "}"

    def _key(self):
        return tuple(s._key() for s in self._sequences)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


class _Unnormalized(tuple):
    """Instant tuple of a continuous sequence built with
    ``normalize=False``: it may hold redundant instants, so a slice of it
    takes the validating, fully normalizing constructor."""

    __slots__ = ()


def _redundant(ttype: TemporalType, interp: Interp, prev: TInstant,
               cur: TInstant, nxt: TInstant) -> bool:
    """Whether ``cur`` adds nothing between ``prev`` and ``nxt``."""
    eq = ttype.value_eq
    if interp is Interp.STEP:
        return eq(prev.value, cur.value)
    if eq(prev.value, cur.value) and eq(cur.value, nxt.value):
        return True
    frac = (cur.t - prev.t) / (nxt.t - prev.t)
    try:
        expected = ttype.interpolate(prev.value, nxt.value, frac)
    except MeosError:
        return False
    return expected is not None and _close(ttype, expected, cur.value)


def _normalize(
    ttype: TemporalType,
    instants: list[TInstant],
    interp: Interp,
    upper_inc: bool,
) -> list[TInstant]:
    """Drop redundant middle instants (MEOS sequence normalization)."""
    if len(instants) <= 2:
        return instants
    kept = [instants[0]]
    for i in range(1, len(instants) - 1):
        if not _redundant(ttype, interp, kept[-1], instants[i],
                          instants[i + 1]):
            kept.append(instants[i])
    kept.append(instants[-1])
    return kept


def _normalize_ends(ttype: TemporalType, instants: list[TInstant],
                    interp: Interp) -> list[TInstant]:
    """:func:`_normalize` for a run whose middle instants are consecutive
    instants of a normalized sequence: each is non-redundant between its
    own neighbours, so only those that now sit next to a new first or
    last instant are re-checked."""
    n = len(instants)
    head = 1
    while head < n - 1 and _redundant(ttype, interp, instants[0],
                                      instants[head], instants[head + 1]):
        head += 1
    tail = n - 1
    if tail - 1 > head and _redundant(ttype, interp, instants[tail - 2],
                                      instants[tail - 1], instants[tail]):
        tail -= 1
    if head == 1 and tail == n - 1:
        return instants
    return [instants[0], *instants[head:tail], instants[-1]]


def _close(ttype: TemporalType, a: Any, b: Any) -> bool:
    if isinstance(a, geo.Point) and isinstance(b, geo.Point):
        return abs(a.x - b.x) <= 1e-9 and abs(a.y - b.y) <= 1e-9
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
    return a == b


def _pack_sequences(
    ttype: TemporalType, pieces: list[TSequence], interp: Interp
) -> "Temporal | None":
    """Collapse restriction results into the tightest subtype.

    Adjacent pieces whose boundary instant carries the same value are glued
    into one sequence; the result is a TInstant, TSequence, or TSequenceSet
    depending on what remains.
    """
    pieces = [p for p in pieces if p is not None]
    if not pieces:
        return None
    seq_interp = interp
    if seq_interp is Interp.DISCRETE:
        seq_interp = Interp.LINEAR if ttype.continuous else Interp.STEP
    pieces.sort(key=lambda s: (s.start_timestamp(), not s.lower_inc))
    merged: list[TSequence] = [pieces[0]]
    for piece in pieces[1:]:
        last = merged[-1]
        touching = last.end_timestamp() == piece.start_timestamp()
        if touching and (last.upper_inc or piece.lower_inc) and _close(
            ttype, last.end_value(), piece.start_value()
        ):
            head = last.instants()
            tail = piece.instants()
            if tail and tail[0].t == head[-1].t:
                tail = tail[1:]
            if not tail:
                merged[-1] = TSequence(
                    ttype, head, last.lower_inc,
                    last.upper_inc or piece.upper_inc, seq_interp,
                )
            else:
                merged[-1] = TSequence(
                    ttype, head + tail, last.lower_inc, piece.upper_inc,
                    seq_interp,
                )
            continue
        if touching and last.upper_inc and piece.lower_inc:
            # Conflicting values at the shared bound: keep the right piece
            # open so the sequence-set invariant holds.
            if piece.num_instants() == 1:
                continue
            piece = TSequence(
                ttype, piece.instants(), False, piece.upper_inc, seq_interp,
            )
        merged.append(piece)
    if len(merged) == 1:
        only = merged[0]
        if only.num_instants() == 1:
            return only.instants()[0]
        return only
    return TSequenceSet(ttype, merged)


def _complement(spanset: SpanSet, universe: Span) -> SpanSet | None:
    """Spans of ``universe`` not covered by ``spanset``."""
    whole = SpanSet.from_spans([universe])
    return whole.minus(spanset)


def merge(pieces: Seq[Temporal]) -> Temporal:
    """Merge temporal values of the same type into one (MEOS ``merge``)."""
    items = [p for p in pieces if p is not None]
    if not items:
        raise MeosError("nothing to merge")
    ttype = items[0].ttype
    all_instant = all(isinstance(p, TInstant) for p in items)
    discrete = all(
        isinstance(p, TInstant)
        or (isinstance(p, TSequence) and p.interp is Interp.DISCRETE)
        for p in items
    )
    if discrete:
        by_time: dict[int, TInstant] = {}
        for p in items:
            for inst in p.instants():
                existing = by_time.get(inst.t)
                if existing is not None and not ttype.value_eq(
                    existing.value, inst.value
                ):
                    raise MeosError("conflicting values at the same instant")
                by_time[inst.t] = inst
        instants = [by_time[t] for t in sorted(by_time)]
        if len(instants) == 1:
            return instants[0]
        return TSequence(ttype, instants, True, True, Interp.DISCRETE)
    sequences: list[TSequence] = []
    for p in items:
        sequences.extend(p.sequences())
    interp = sequences[0].interp
    return _pack_sequences(ttype, sequences, interp) or sequences[0]
