"""Lightweight segment codecs of the ``.quackdb`` file, one chosen per
segment as DuckDB chooses them (DESIGN.md has the layouts): ``int``
(constant, constant delta, FOR or delta-FOR) for BIGINT, timestamps and
BOOLEAN, ``alp`` or ``raw`` for DOUBLE, ``dict`` for VARCHAR and
``pickle`` for other objects.  Parameters are a little-endian header in
the payload; NULL slots are coded as the frame minimum or code 0, so a
segment's bytes depend on its valid rows alone.  Version 2/3 files' own
codecs (``bitpack``, ``delta``, JSON ``dict``, parameters in the footer's
``meta``) decode here and are never written.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import struct
import zlib

import numpy as np

from .types import LogicalType
from .vector import Vector

_INT = struct.Struct("<BBqq")  # mode, width, base, step or delta minimum
_CONSTANT, _STEP, _FOR, _DELTA = range(4)
_ALP = struct.Struct("<BBIq")  # exponent, width, exceptions, frame minimum
_POWERS = 10.0 ** np.arange(19)
_ALP_SAMPLE = 32  # about this many values pick the exponents ALP tries
_DICT = struct.Struct("<IBB")  # entries, length width, code width
_NATIVE = {"bool": np.bool_, "int64": np.int64, "float64": np.float64}
_MASK = 0xFFFFFFFFFFFFFFFF


def narrow_dtype(values: np.ndarray) -> np.dtype:
    """The narrowest of int8/16/32/64 holding the int64 ``values``."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    return next(np.dtype(w) for w in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(w).min <= lo and hi <= np.iinfo(w).max)


@functools.lru_cache(maxsize=None)
def _layout(width: int) -> tuple[np.ndarray, ...]:
    """Value ``k`` of a block of 64 starts in word ``word[k]`` at bit
    ``shift[k]``; ``starts`` is each word's first value, and the values
    ``over`` run on into word ``over_word`` from bit 0."""
    bits = np.arange(64) * width
    word, shift = bits >> 6, (bits & 63).astype(np.uint64)
    over = np.flatnonzero((bits & 63) + width > 64)
    return (word, shift, np.searchsorted(word, np.arange(width)), over,
            word[over] + 1, np.uint64(64) - shift[over])


def _size(rows: int, width: int) -> int:
    return -(-rows * width // 8)


def _width(values: np.ndarray) -> int:
    return int(values.max(initial=0)).bit_length()


def pack(values: np.ndarray, width: int) -> bytes:
    """uint64 ``values`` below ``2**width`` (0-64) as a little-endian bit
    stream: each 64 fill ``width`` words, by whole-array shifts."""
    if not len(values) or not width:
        return b""
    grid = np.zeros(-(-len(values) // 64) * 64, dtype=np.uint64)
    grid[:len(values)] = values
    grid = grid.reshape(-1, 64)
    _, shift, starts, over, over_word, over_shift = _layout(width)
    words = np.bitwise_or.reduceat(grid << shift, starts, axis=1)
    words[:, over_word] |= grid[:, over] >> over_shift
    return words.astype("<u8").tobytes()[:_size(len(values), width)]


def unpack(blob: bytes, rows: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack`: ``rows`` uint64 values."""
    if len(blob) != _size(rows, width):
        raise ValueError("bit-packed run has the wrong length")
    if not rows or not width:
        return np.zeros(rows, dtype=np.uint64)
    data = np.frombuffer(blob, dtype=np.uint8)
    if len(blob) % (width * 8):  # a short last block: pad it with zeros
        data = np.concatenate((data, np.zeros(
            -(-rows // 64) * width * 8 - len(blob), dtype=np.uint8)))
    words = data.view("<u8").reshape(-1, width)
    word, shift, _, over, over_word, over_shift = _layout(width)
    out = words[:, word]
    out >>= shift
    out[:, over] |= words[:, over_word] << over_shift
    if width < 64:
        out &= np.uint64((1 << width) - 1)
    return out.reshape(-1)[:rows]


def _frame(values: np.ndarray) -> tuple[int, np.ndarray]:
    """Frame of reference: the minimum and the uint64 offsets from it
    (wrapping arithmetic keeps the int64 extremes exact)."""
    lo = int(values.min()) if len(values) else 0
    return lo, (values - lo).view(np.uint64)


def _unframe(blob: bytes, rows: int, width: int, base: int) -> np.ndarray:
    return (unpack(blob, rows, width) + np.uint64(base & _MASK)).view(np.int64)


def _fill(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``values`` with the rows not kept set to the minimum of the kept."""
    if not keep.all():
        values[~keep] = values[keep].min() if keep.any() else 0
    return values


def encode_ints(values: np.ndarray, validity: np.ndarray) -> bytes:
    """The smallest ``int`` payload of ``values``."""
    values = _fill(values.astype(np.int64), validity)
    lo, offsets = _frame(values)
    step, deltas = _frame(np.diff(values))
    width, dwidth = _width(offsets), _width(deltas)
    if not width:
        return _INT.pack(_CONSTANT, 0, lo, 0)
    if not dwidth:
        return _INT.pack(_STEP, 0, int(values[0]), step)
    if dwidth * (len(values) - 1) < width * len(values):
        return _INT.pack(_DELTA, dwidth, int(values[0]), step) \
            + pack(deltas, dwidth)
    return _INT.pack(_FOR, width, lo, 0) + pack(offsets, width)


def decode_ints(payload: bytes, rows: int) -> np.ndarray:
    mode, width, base, ref = _INT.unpack_from(payload)
    body = payload[_INT.size:]
    if mode == _FOR:
        return _unframe(body, rows, width, base)
    if mode == _DELTA:
        steps = _unframe(body, rows - 1, width, ref).view(np.uint64)
        return np.cumsum(np.concatenate(([np.uint64(base & _MASK)], steps)),
                         dtype=np.uint64).view(np.int64)
    if body or mode not in (_CONSTANT, _STEP):
        raise ValueError(f"bad int segment mode {mode}")
    return base + np.arange(rows, dtype=np.int64) * ref


def _alp_digits(values: np.ndarray, power: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``n = round(value * 10**e)`` and whether ``n / 10**e`` gives the
    value back bit for bit (``power`` broadcasts ``10**e``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.rint(values * power)
        fits = np.abs(scaled) < 2.0 ** 53
        digits = np.where(fits, scaled, 0.0).astype(np.int64)
        back = (digits / power).view(np.int64)
    return digits, fits & (back == values.view(np.int64))


def encode_doubles(values: np.ndarray, validity: np.ndarray
                   ) -> tuple[str, bytes]:
    """``alp`` where it is smaller than ``raw``, else ``raw``.  ALP's
    exponent is the smallest of those most sampled values come back at
    that leaves the fewest exceptions."""
    values = np.where(validity, values, 0.0)
    present = values[validity]
    sample = present[::max(1, len(present) // _ALP_SAMPLE)]
    hits = _alp_digits(sample, _POWERS[:, None])[1].sum(axis=1)
    best = None
    for exponent in np.flatnonzero(hits == hits.max()).tolist():
        if len(sample) and not hits[exponent]:
            break
        digits, ok = _alp_digits(values, _POWERS[exponent])
        misses = np.flatnonzero(~ok & validity)
        if best is not None and len(misses) >= len(best[2]):
            break
        best = exponent, digits, misses
        if not len(misses):
            break
    if best is not None:
        exponent, digits, misses = best
        keep = validity.copy()
        keep[misses] = False
        base, offsets = _frame(_fill(digits, keep))
        width = _width(offsets)
        payload = b"".join((
            _ALP.pack(exponent, width, len(misses), base),
            pack(offsets, width),
            pack(misses.astype(np.uint64), (len(values) - 1).bit_length()),
            values[misses].astype("<f8").tobytes()))
        if len(payload) < values.nbytes:
            return "alp", payload
    return "raw", values.astype("<f8").tobytes()


def decode_doubles(payload: bytes, rows: int) -> np.ndarray:
    exponent, width, count, base = _ALP.unpack_from(payload)
    at_width = (rows - 1).bit_length()
    ends = np.cumsum([_ALP.size, _size(rows, width), _size(count, at_width),
                      8 * count]).tolist()
    if ends[-1] != len(payload):
        raise ValueError("alp segment has the wrong length")
    data = _unframe(payload[ends[0]:ends[1]], rows, width, base) \
        / _POWERS[exponent]
    misses = unpack(payload[ends[1]:ends[2]], count, at_width)
    data[misses.astype(np.intp)] = np.frombuffer(payload[ends[2]:], "<f8")
    return data


def encode_strings(values: list) -> bytes:
    """A ``dict`` payload of a text segment (NULL: ``None``)."""
    uniques = sorted(set(values) - {None})
    codes = dict(zip(uniques, itertools.count()))
    blobs = [u.encode("utf-8", "surrogatepass") for u in uniques]
    lengths = np.fromiter(map(len, blobs), dtype=np.uint64, count=len(blobs))
    lwidth, cwidth = _width(lengths), max(len(uniques) - 1, 0).bit_length()
    return b"".join((
        _DICT.pack(len(uniques), lwidth, cwidth), pack(lengths, lwidth),
        *blobs, pack(np.fromiter(map(codes.get, values, itertools.repeat(0)),
                                 dtype=np.uint64, count=len(values)), cwidth),
    ))


def decode_strings(payload: bytes, rows: int) -> np.ndarray:
    entries, lwidth, cwidth = _DICT.unpack_from(payload)
    at = _DICT.size + _size(entries, lwidth)
    ends = [at, *(np.cumsum(unpack(payload[_DICT.size:at], entries, lwidth),
                            dtype=np.int64) + at).tolist()]
    text = bytes(payload[:ends[-1]])
    lookup = np.empty(max(entries, 1), dtype=object)
    lookup[:entries] = [text[a:b].decode("utf-8", "surrogatepass")
                        for a, b in zip(ends, ends[1:])]
    return lookup[unpack(payload[ends[-1]:], rows, cwidth).astype(np.intp)]


def encode_segment(vector: Vector) -> tuple[str, bytes]:
    """``(codec, payload)`` of one segment: the type's own codec
    (:attr:`LogicalType.codec`) where it takes the segment, else the
    smallest builtin one of its physical type."""
    physical, codec = vector.ltype.physical, vector.ltype.codec
    payload = codec.encode(vector) if codec is not None else None
    if payload is not None:  # from the views: a decoded view builds nothing
        return codec.name, payload
    if physical == "float64":
        return encode_doubles(vector.data, vector.validity)
    if physical != "object":
        return "int", encode_ints(vector.data, vector.validity)
    values = vector.to_list()
    if all(issubclass(t, str) for t in set(map(type, values)) - {type(None)}):
        return "dict", encode_strings(values)
    return "pickle", zlib.compress(
        pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL))


def decode_segment(codec: str, payload: bytes, rows: int,
                   ltype: LogicalType, validity: np.ndarray,
                   meta: dict | None = None) -> Vector:
    """Inverse of :func:`encode_segment`: the segment as a vector with
    ``validity`` (a view vector where the type's codec wrote it);
    ``meta`` is a version 2/3 footer's codec parameters."""
    if ltype.codec is not None and codec == ltype.codec.name:
        return ltype.codec.decode(payload, rows, ltype, validity)
    if codec == "raw":
        data = np.frombuffer(payload, dtype=_NATIVE[ltype.physical],
                             count=rows)
    elif codec in ("int", "alp"):
        data = (decode_ints if codec == "int" else decode_doubles)(
            payload, rows).astype(_NATIVE[ltype.physical], copy=False)
        if not validity.all():
            data[~validity] = 0
    elif codec == "dict" and not meta:
        data = decode_strings(payload, rows)
    elif codec == "pickle":
        data = np.fromiter(pickle.loads(zlib.decompress(payload)),
                           dtype=object, count=rows)
    elif codec == "bitpack":
        data = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                             count=rows).astype(np.bool_)
    elif codec == "delta":
        data = np.full(rows, int(meta["first"]), dtype=np.int64)
        data[1:] += np.cumsum(np.frombuffer(
            payload, dtype=np.dtype(meta["width"]), count=max(rows - 1, 0)
        ), dtype=np.int64)
    elif codec == "dict":
        split = int(meta["dict_bytes"])
        uniques = json.loads(bytes(payload[:split]).decode("utf-8"))
        # an all-NULL segment has no value: validity masks every slot
        lookup = np.empty(max(len(uniques), 1), dtype=object)
        lookup[:len(uniques)] = uniques
        data = lookup[np.frombuffer(payload[split:], count=rows,
                                    dtype=np.dtype(meta["width"]))]
    else:
        raise ValueError(f"unknown segment codec {codec!r}")
    return Vector(ltype, data, validity)
