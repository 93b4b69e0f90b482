"""Segment codecs of the MobilityDuck types (paper §3.3/§3.4): a temporal
point segment is its ``TempCSR`` arrays (``tcsr``), a ``tstzspan`` one
its bounds (``span``) — both decode to the view the kernels read — and a
geometry one its length-prefixed EWKB (``wkb``); each is one zlib blob
of a flat layout with integers delta-narrowed.  ``encode`` declines
(``None``: the pickle fallback) what it cannot give back bit for bit;
``decode`` raises ``ValueError`` on bytes it did not write.  The same
layout of one value, uncompressed, is the row store's datum
(``encode_datum``/``decode_datum``).  ``boxes`` is the column's
:class:`~repro.quack.boxes.BoxSoA` off those arrays, built without a
value, which ANALYZE and (unless ``zone_box`` is false) the zone maps
read.  DESIGN.md has the layouts.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .. import geo
from ..geo.kernels import offsets, ranges
from ..meos import kernels as temporal
from ..meos.temporal.ttypes import temporal_type
from ..quack.compression import narrow_dtype
from ..quack.vector import Vector, ViewVector
from .boxkernels import (
    _SPAN,
    _TEMP_CSR,
    geom_soa,
    span_cols,
    span_soa,
    temp_csr,
    tpoint_soa,
)

_WIDTHS = tuple(np.dtype(w) for w in (np.int8, np.int16, np.int32, np.int64))
#: The validity of one datum.
_ONE = np.ones(1, dtype=np.bool_)
_ONE.flags.writeable = False


def _deflate(layout: bytes | None) -> bytes | None:
    return None if layout is None else zlib.compress(layout, 9)


def _inflate(payload: bytes) -> bytes:
    return zlib.decompress(bytes(payload))


def _ints(values: np.ndarray) -> bytes:
    """Integers in their narrowest width, after a width code byte."""
    values = np.asarray(values, dtype=np.int64)
    dtype = narrow_dtype(values)
    return bytes([_WIDTHS.index(dtype)]) + values.astype(dtype).tobytes()


class _Reader:
    """Cursor over a flat layout; running short is an error."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, size: int) -> bytes:
        if size < 0 or self.pos + size > len(self.data):
            raise ValueError("truncated segment")
        self.pos += size
        return self.data[self.pos - size:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(count * dtype.itemsize), dtype).copy()

    def ints(self, count: int) -> np.ndarray:
        (code,) = self.unpack("<B")
        if code >= len(_WIDTHS):
            raise ValueError(f"bad integer width code {code}")
        return self.array(_WIDTHS[code], count).astype(np.int64)

    def deltas(self, first: int, count: int) -> np.ndarray:
        steps = self.ints(max(count - 1, 0))
        return np.cumsum(np.append(np.int64(first), steps))[:count]

    def bits(self, count: int) -> np.ndarray:
        packed = self.array(np.uint8, (count + 7) // 8)
        return np.unpackbits(packed, count=count).astype(np.bool_)

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ValueError("trailing bytes after the segment")


class TemporalPointCodec:
    name = "tcsr"

    def encode(self, vector: Vector) -> bytes | None:
        return _deflate(self._layout(temp_csr(vector), vector.validity))

    def encode_datum(self, value) -> bytes | None:
        return self._layout(temporal.temporal_csr([value]), _ONE)

    def decode(self, payload: bytes, rows: int, ltype,
               validity: np.ndarray) -> Vector:
        return ViewVector(ltype, _TEMP_CSR,
                          self._read(_inflate(payload), rows, validity),
                          validity)

    def decode_datum(self, layout: bytes):
        return self._read(layout, 1, _ONE).objects()[0]

    @staticmethod
    def _layout(csr: temporal.TempCSR, valid: np.ndarray) -> bytes | None:
        held, store = csr.index[valid], csr.store
        if (held < 0).any():
            return None
        ids, inverse = np.unique(held, return_inverse=True)
        names = {t.name for t in store.ttype[ids].tolist()}
        srids = np.unique(store.srid[ids])
        if len(names) > 1 or len(srids) > 1:
            return None
        seq_n = np.diff(store.seq_offsets)[ids]
        seqs, _ = ranges(store.seq_offsets[ids], seq_n)
        inst_n = np.diff(store.inst_offsets)[seqs]
        insts, _ = ranges(store.inst_offsets[seqs], inst_n)
        t = store.t[insts]
        starts = offsets(inst_n)[:-1]
        inner = np.ones(len(t), dtype=np.bool_)
        inner[starts] = False
        name = (names.pop() if names else "").encode("utf-8")
        return b"".join([
            struct.pack("<IiqB", len(ids), int(srids[0]) if len(srids)
                        else 0, int(t[0]) if len(t) else 0, len(name)),
            name,
            _ints(np.diff(inverse, prepend=-1)),
            store.subtype[ids].astype(np.int8).tobytes(),
            _ints(seq_n),
            _ints(inst_n),
            _ints(np.diff(t[starts])),
            _ints(np.diff(t, prepend=0)[inner]),
            np.packbits(np.concatenate([
                store.lower_inc[seqs], store.upper_inc[seqs],
                store.normalized[seqs],
            ])).tobytes(),
            store.seq_interp[seqs].astype(np.int8).tobytes(),
            store.x[insts].tobytes(),
            store.y[insts].tobytes(),
        ])

    @staticmethod
    def _read(layout: bytes, rows: int,
              validity: np.ndarray) -> temporal.TempCSR:
        r = _Reader(layout)
        count, srid, first, size = r.unpack("<IiqB")
        name = r.take(size).decode("utf-8")
        held = r.deltas(-1, int(np.count_nonzero(validity)) + 1)[1:]
        if len(np.unique(held)) != count or \
                ((held < 0) | (held >= count)).any():
            raise ValueError(f"{count} temporals for {len(held)} rows")
        subtype = r.array(np.int8, count)
        seq_n = r.ints(count)
        inst_n = r.ints(int(seq_n.sum()))
        if (seq_n < 1).any() or (inst_n < 1).any():
            raise ValueError("offsets do not increase")
        seqs, instants = len(inst_n), int(inst_n.sum())
        starts = offsets(inst_n)[:-1]
        firsts = r.deltas(first, seqs)
        inner = np.ones(instants, dtype=np.bool_)
        inner[starts] = False
        steps = np.zeros(instants, dtype=np.int64)
        steps[inner] = r.ints(instants - seqs)
        flags = r.bits(3 * seqs)
        interp = r.array(np.int8, seqs)
        x, y = r.array(np.float64, instants), r.array(np.float64, instants)
        r.finish()
        if not (np.isin(subtype, (0, 1, 2)).all() and (steps[inner] > 0).all()
                and np.isin(interp, (0, 1, 2)).all()
                and (seq_n[subtype < 2] == 1).all()):
            raise ValueError("malformed temporal arrays")
        run = np.cumsum(steps)
        store = temporal._Store(
            offsets(seq_n), offsets(inst_n),
            run - np.repeat(run[starts] - firsts, inst_n), x, y,
            flags[:seqs], flags[seqs:2 * seqs], interp, flags[2 * seqs:],
            subtype, np.full(count, srid, dtype=np.int64),
            np.full(count, temporal_type(name) if count else None,
                    dtype=object),
            np.empty(count, dtype=object),
        )
        index = np.full(rows, -1, dtype=np.int64)
        index[validity] = held
        return temporal.TempCSR(index, store)

    boxes = staticmethod(tpoint_soa)


class SpanCodec:
    name = "span"

    def encode(self, vector: Vector) -> bytes | None:
        return _deflate(self._layout(span_cols(vector), vector.validity))

    def encode_datum(self, value) -> bytes | None:
        return self._layout(temporal.span_arrays([value]), _ONE)

    def decode(self, payload: bytes, rows: int, ltype,
               validity: np.ndarray) -> Vector:
        return ViewVector(ltype, _SPAN,
                          self._read(_inflate(payload), rows, validity),
                          validity)

    def decode_datum(self, layout: bytes):
        return self._read(layout, 1, _ONE).objects()[0]

    @staticmethod
    def _layout(spans: temporal.SpanArrays,
                valid: np.ndarray) -> bytes | None:
        if not spans.ok[valid].all():
            return None
        lower = spans.lower[valid]
        return (
            struct.pack("<q", int(lower[0]) if len(lower) else 0)
            + _ints(np.diff(lower)) + _ints(spans.upper[valid] - lower)
            + np.packbits(np.concatenate([spans.lower_inc[valid],
                                          spans.upper_inc[valid]])).tobytes()
        )

    @staticmethod
    def _read(layout: bytes, rows: int,
              validity: np.ndarray) -> temporal.SpanArrays:
        r = _Reader(layout)
        held = int(np.count_nonzero(validity))
        lower = r.deltas(r.unpack("<q")[0], held)
        width, flags = r.ints(held), r.bits(2 * held)
        r.finish()
        if ((width < 0) | ((width == 0) & ~(flags[:held] & flags[held:]))
                ).any():
            raise ValueError("empty or inverted span")
        spans = temporal.SpanArrays()
        spans.ok = validity.copy()
        for slot, values in zip(spans.__slots__[1:], (
                lower, lower + width, flags[:held], flags[held:])):
            setattr(spans, slot, np.zeros(rows, dtype=values.dtype))
            getattr(spans, slot)[validity] = values
        return spans

    boxes = staticmethod(span_soa)


_WKB_TYPES = (geo.Point, geo.LineString, geo.Polygon, geo.MultiPoint,
              geo.MultiLineString, geo.MultiPolygon, geo.GeometryCollection)


def _wkb_exact(geom, srid) -> bool:
    """EWKB gives ``geom`` back: a class of its own, and collection
    members of the collection's SRID (they carry none)."""
    return type(geom) in _WKB_TYPES and geom.srid == srid and all(
        _wkb_exact(child, srid) for child in getattr(geom, "geoms", ())
    )


class GeometryCodec:
    name = "wkb"
    # Box-less zone entries on purpose: geometry columns are not probed
    # by box, and the extents would only add to every stored segment.
    zone_box = False

    def encode(self, vector: Vector) -> bytes | None:
        return _deflate(self._layout(vector.data[vector.validity].tolist()))

    def encode_datum(self, value) -> bytes | None:
        return self._layout([value])

    def decode(self, payload: bytes, rows: int, ltype,
               validity: np.ndarray) -> Vector:
        return Vector(ltype, self._read(_inflate(payload), rows, validity),
                      validity)

    def decode_datum(self, layout: bytes):
        return self._read(layout, 1, _ONE)[0]

    @staticmethod
    def _layout(geoms: list) -> bytes | None:
        parts = []
        for geom in geoms:
            if not _wkb_exact(geom, getattr(geom, "srid", None)):
                return None
            blob = geo.encode_wkb(geom)
            parts += (struct.pack("<I", len(blob)), blob)
        return b"".join(parts)

    @staticmethod
    def _read(layout: bytes, rows: int, validity: np.ndarray) -> np.ndarray:
        r = _Reader(layout)
        out = np.empty(rows, dtype=object)
        for row in np.flatnonzero(validity).tolist():
            out[row] = geo.decode_wkb(r.take(r.unpack("<I")[0]))
        r.finish()
        return out

    boxes = staticmethod(geom_soa)


TCSR_CODEC = TemporalPointCodec()
SPAN_CODEC = SpanCodec()
WKB_CODEC = GeometryCodec()
