"""Persistent columnar storage: compressed segments, zone maps, spill files.

The on-disk format (``*.quackdb``) is a single file::

    +----------+---------------------------+-------------+----------------+
    | magic(8) | segment blobs, back to    | JSON footer | footer offset  |
    | QUACKDB2 | back (payload + validity) |             | (u64) magic(8) |
    +----------+---------------------------+-------------+----------------+

Rows are re-chunked into fixed-size **row groups** (default
:data:`repro.quack.vector.STANDARD_VECTOR_SIZE` rows).  Each column of a
row group is one encoded *segment*: dictionary encoding for text, delta
(frame-of-reference) encoding for int64 payloads — which covers
``TIMESTAMP``/``DATE``, both epoch-integer physicals — bit-packed
booleans, raw float64 bytes, an extension type's own codec
(:attr:`LogicalType.codec`), and a zlib-pickled fallback for the other
extension payloads.  Validity is a separate packed bitmap per segment,
elided when all rows are valid.

The JSON footer carries the format version, schema, index definitions,
per-segment byte offsets, and a per-row-group **zone map** per column:
min/max over the numeric image (:func:`repro.quack.stats.as_number`),
string bounds for text, null counts, and per-axis bounding-box extents
for spatial/temporal columns.  Scans with pushed-down conjuncts consult
the zone maps (see :func:`zone_map_prunes`) and skip non-qualifying row
groups *before* decompression; readers are lazily materialized
memory-mapped :class:`StorageColumn` segments, so a skipped group is
never decoded.

The same module owns the **spill files** used by the spillable operators
(external sort runs, grace hash-join partitions, aggregation partials)
and the :func:`open_path` seam: lint rule ANL011 confines all file I/O
inside ``repro.quack`` to this module.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import pickle
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..analysis.config import verification_enabled
from ..analysis.errors import VerificationError
from ..observability import count
from .catalog import ColumnData, Table
from .errors import QuackError
from .stats import as_number, box_intervals, box_of
from .types import LogicalType
from .vector import STANDARD_VECTOR_SIZE, DataChunk, Vector, concat_vectors

#: On-disk format version (3: extension codecs); newer files are refused.
FORMAT_VERSION = 3

_MAGIC = b"QUACKDB2"
_TRAILER_SIZE = 8 + len(_MAGIC)  # u64 footer offset + magic echo

#: Rows per on-disk row group — matches the execution vector size so one
#: decoded segment is exactly one scan chunk.
ROW_GROUP_SIZE = STANDARD_VECTOR_SIZE

#: Flat per-slot estimate for object payloads when sizing working sets
#: against ``SET memory_limit`` (exact byte accounting of extension
#: objects would require walking them).
_OBJECT_SLOT_BYTES = 64

_DELTA_WIDTHS = (np.int8, np.int16, np.int32, np.int64)
_CODE_WIDTHS = (np.uint8, np.uint16, np.uint32)

#: What decoding bytes a codec did not write raises.
_CORRUPT = (ValueError, IndexError, EOFError, zlib.error, struct.error,
            pickle.UnpicklingError)

_COMPARISON_OPS = frozenset(("<", "<=", ">", ">=", "="))
#: Overlap-style box predicates: ``col && probe`` and ``col <@ probe``
#: both require the column box to intersect the probe box, as does the
#: eIntersects/aIntersects bounding-box prefilter.
_OVERLAP_OPS = frozenset(("&&", "<@", "eintersects", "aintersects",
                          "intersects"))
_CONTAINS_OPS = frozenset(("@>",))

#: Every conjunct shape the zone maps understand (optimizer-side gate).
PRUNABLE_OPS = _COMPARISON_OPS | _OVERLAP_OPS | _CONTAINS_OPS


def open_path(path: str, mode: str = "r", **kwargs: Any):
    """The file-access seam for ``repro.quack`` (lint rule ANL011): every
    module except this one must route file I/O through here so persistence
    concerns stay in one place."""
    return open(path, mode, **kwargs)


# ---------------------------------------------------------------------------
# Segment codecs
# ---------------------------------------------------------------------------


def encode_validity(validity: np.ndarray) -> bytes:
    """Packed validity bitmap; empty bytes when every row is valid."""
    if validity.all():
        return b""
    return np.packbits(validity.astype(np.bool_)).tobytes()


def decode_validity(payload: bytes, rows: int) -> np.ndarray:
    if not payload:
        return np.ones(rows, dtype=np.bool_)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=rows)
    return bits.astype(np.bool_)


def narrow_dtype(values: np.ndarray) -> np.dtype:
    """The narrowest of int8/16/32/64 holding the int64 ``values``."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    return next(np.dtype(w) for w in _DELTA_WIDTHS
                if np.iinfo(w).min <= lo and hi <= np.iinfo(w).max)


def encode_segment(vector: Vector) -> tuple[str, bytes, dict]:
    """Encode one segment; returns ``(codec, payload, meta)``."""
    physical, codec = vector.ltype.physical, vector.ltype.codec
    payload = codec.encode(vector) if codec is not None else None
    if payload is not None:  # from the views: a decoded view builds nothing
        return codec.name, payload, {}
    data = vector.data
    if physical == "bool":
        return "bitpack", np.packbits(data.astype(np.bool_)).tobytes(), {}
    if physical == "int64":
        values = data.astype(np.int64, copy=False)
        if len(values) == 0:
            return "delta", b"", {"first": 0, "width": "int64"}
        deltas = np.diff(values)
        width = narrow_dtype(deltas)
        return "delta", deltas.astype(width).tobytes(), {
            "first": int(values[0]),
            "width": width.name,
        }
    if physical == "float64":
        return "raw", data.astype(np.float64, copy=False).tobytes(), {}
    # Object payloads: dictionary-encode when the segment is pure text,
    # otherwise fall back to a zlib-compressed pickle.
    values = data.tolist()
    if not vector.validity.all():
        values = [v if ok else None
                  for v, ok in zip(values, vector.validity.tolist())]
    present = [v for v in values if v is not None]
    if all(issubclass(t, str) for t in set(map(type, present))):
        uniques = sorted(set(present))
        mapping = {v: i for i, v in enumerate(uniques)}
        codes = np.fromiter(
            map(mapping.get, values, itertools.repeat(0)),  # NULL -> 0
            dtype=np.int64,
            count=len(values),
        )
        width = _CODE_WIDTHS[-1]
        for candidate in _CODE_WIDTHS:
            if len(uniques) <= np.iinfo(candidate).max + 1:
                width = candidate
                break
        dict_blob = json.dumps(uniques, ensure_ascii=False).encode("utf-8")
        return "dict", dict_blob + codes.astype(width).tobytes(), {
            "dict_bytes": len(dict_blob),
            "width": np.dtype(width).name,
            "cardinality": len(uniques),
        }
    return "pickle", zlib.compress(
        pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
    ), {}


def decode_segment(codec: str, payload: bytes, meta: dict, rows: int,
                   ltype: LogicalType, validity: np.ndarray) -> Vector:
    """Inverse of :func:`encode_segment`: the segment as a vector with
    ``validity`` (a view vector where the type's codec wrote it)."""
    if ltype.codec is not None and codec == ltype.codec.name:
        return ltype.codec.decode(payload, rows, ltype, validity)
    if codec == "bitpack":
        data = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                             count=rows).astype(np.bool_)
    elif codec == "delta":
        data = np.full(rows, int(meta["first"]), dtype=np.int64)
        data[1:] += np.cumsum(np.frombuffer(
            payload, dtype=np.dtype(meta["width"]), count=max(rows - 1, 0)
        ), dtype=np.int64)
    elif codec == "raw":
        data = np.frombuffer(payload, dtype=np.float64, count=rows)
    elif codec == "dict":
        dict_bytes = int(meta["dict_bytes"])
        uniques = json.loads(bytes(payload[:dict_bytes]).decode("utf-8"))
        # an all-NULL segment has no value: validity masks every slot
        lookup = np.empty(max(len(uniques), 1), dtype=object)
        for i, value in enumerate(uniques):
            lookup[i] = value
        data = lookup[np.frombuffer(payload[dict_bytes:], count=rows,
                                    dtype=np.dtype(meta["width"]))]
    elif codec == "pickle":
        data = np.empty(rows, dtype=object)
        for i, value in enumerate(pickle.loads(zlib.decompress(payload))):
            data[i] = value
    else:
        raise QuackError(f"unknown segment codec {codec!r}")
    return Vector(ltype, data, validity)


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------


@dataclass
class ZoneMapEntry:
    """Per-row-group, per-column pruning summary.

    Bounds are only usable when the matching ``*_complete`` flag is set —
    it records that *every* non-null value in the group contributed, so a
    disjoint range proves the group holds no match.  NaNs count as
    numeric (a NaN never satisfies a comparison) but stay out of the
    bounds.
    """

    rows: int
    nulls: int
    lo: float | None = None
    hi: float | None = None
    slo: str | None = None
    shi: str | None = None
    box: dict[str, tuple[float, float]] | None = None
    numeric_complete: bool = False
    string_complete: bool = False
    box_complete: bool = False

    @property
    def non_null(self) -> int:
        return self.rows - self.nulls

    def to_json(self) -> dict:
        out: dict[str, Any] = {"r": self.rows, "n": self.nulls}
        if self.numeric_complete:
            out["lo"], out["hi"], out["nc"] = self.lo, self.hi, True
        if self.string_complete:
            out["slo"], out["shi"], out["sc"] = self.slo, self.shi, True
        if self.box_complete:
            out["box"] = {axis: list(iv) for axis, iv in
                          (self.box or {}).items()}
            out["bc"] = True
        return out

    @classmethod
    def from_json(cls, raw: dict) -> "ZoneMapEntry":
        box = raw.get("box")
        return cls(
            rows=int(raw["r"]),
            nulls=int(raw["n"]),
            lo=raw.get("lo"),
            hi=raw.get("hi"),
            slo=raw.get("slo"),
            shi=raw.get("shi"),
            box={axis: (float(iv[0]), float(iv[1]))
                 for axis, iv in box.items()} if box else None,
            numeric_complete=bool(raw.get("nc")),
            string_complete=bool(raw.get("sc")),
            box_complete=bool(raw.get("bc")),
        )


def compute_zone_entry(vector: Vector) -> ZoneMapEntry:
    """Bounds, null count and box extents of one sealed segment: NumPy
    reductions for native columns, the type codec's reading of its
    arrays, list builtins for text, a value walk only for the other
    extension payloads."""
    rows = len(vector)
    valid = vector.validity
    non_null = int(np.count_nonzero(valid))
    nulls = rows - non_null
    physical = vector.ltype.physical
    if physical != "object":
        entry = ZoneMapEntry(rows=rows, nulls=nulls,
                             numeric_complete=non_null > 0)
        values = vector.data if not nulls else vector.data[valid]
        if physical == "float64":
            values = values[~np.isnan(values)]  # NaN matches no comparison
        if len(values):
            # argmin/argmax name the first of equal extremes, as a running
            # min/max over the values would (the sign of a zero bound).
            entry.lo = float(values[np.argmin(values)])
            entry.hi = float(values[np.argmax(values)])
        return entry
    if vector.ltype.codec is not None:
        entry = vector.ltype.codec.zone_entry(vector)
        if entry is not None:
            return entry
    values = vector.data[valid].tolist()
    if values and set(map(type, values)) == {str}:
        return ZoneMapEntry(rows=rows, nulls=nulls, slo=min(values),
                            shi=max(values), string_complete=True)
    return _walk_zone_entry(rows, nulls, values)


def _walk_zone_entry(rows: int, nulls: int, values: list) -> ZoneMapEntry:
    """Zone entry of an object segment that is not pure text, from its
    non-NULL ``values``: extension payloads give box extents, anything
    with a numeric image (:func:`as_number`) gives numeric bounds."""
    lo = hi = None
    slo = shi = None
    n_num = n_str = n_box = 0
    axes: dict[str, tuple[float, float]] = {}
    axis_hits: dict[str, int] = {}
    for value in values:
        number = as_number(value)
        if number is not None:
            n_num += 1
            if number == number:  # NaN never matches a comparison
                lo = number if lo is None else min(lo, number)
                hi = number if hi is None else max(hi, number)
            continue
        if isinstance(value, str):
            n_str += 1
            slo = value if slo is None or value < slo else slo
            shi = value if shi is None or value > shi else shi
            continue
        box = box_of(value)
        if box is not None:
            intervals = box_intervals(box)
            if intervals:
                n_box += 1
                for axis, (alo, ahi) in intervals.items():
                    known = axes.get(axis)
                    if known is None:
                        axes[axis] = (alo, ahi)
                    else:
                        axes[axis] = (min(known[0], alo), max(known[1], ahi))
                    axis_hits[axis] = axis_hits.get(axis, 0) + 1
    non_null = rows - nulls
    # Only axes every boxed value contributed to are sound for pruning:
    # a value without a ``t`` span is unconstrained on ``t``.
    axes = {axis: iv for axis, iv in axes.items()
            if axis_hits.get(axis, 0) == n_box}
    return ZoneMapEntry(
        rows=rows,
        nulls=nulls,
        lo=lo,
        hi=hi,
        slo=slo,
        shi=shi,
        box=axes or None,
        numeric_complete=non_null > 0 and n_num == non_null,
        string_complete=non_null > 0 and n_str == non_null,
        box_complete=non_null > 0 and n_box == non_null,
    )


def zone_map_prunes(entry: ZoneMapEntry, op_name: str,
                    constant: Any) -> bool:
    """``True`` when the zone map *proves* no row in the group satisfies
    ``column <op> constant`` — the conservative default is ``False``
    (cannot prune)."""
    if entry.rows == 0:
        return True
    op = op_name.lower() if op_name not in _COMPARISON_OPS else op_name
    if op in _COMPARISON_OPS:
        if entry.non_null == 0:
            return True  # comparisons are never true against NULL
        if isinstance(constant, str):
            if not entry.string_complete or entry.slo is None:
                return False
            return _range_prunes(op, entry.slo, entry.shi, constant)
        probe = as_number(constant)
        if probe is None or probe != probe:
            return False
        if not entry.numeric_complete or entry.lo is None:
            return False
        return _range_prunes(op, entry.lo, entry.hi, probe)
    if op in _OVERLAP_OPS or op in _CONTAINS_OPS:
        if entry.non_null == 0:
            return True
        if not entry.box_complete or not entry.box:
            return False
        box = box_of(constant)
        if box is None:
            return False
        probe_intervals = box_intervals(box)
        for axis, (plo, phi) in probe_intervals.items():
            extent = entry.box.get(axis)
            if extent is None:
                continue
            if op in _CONTAINS_OPS:
                # column @> probe: every column box lies inside the
                # group extent, so an extent that cannot cover the probe
                # proves no single box can.
                if plo < extent[0] or phi > extent[1]:
                    return True
            else:
                if phi < extent[0] or plo > extent[1]:
                    return True
        return False
    return False


def _range_prunes(op: str, lo: Any, hi: Any, probe: Any) -> bool:
    if op == "<":
        return lo >= probe
    if op == "<=":
        return lo > probe
    if op == ">":
        return hi <= probe
    if op == ">=":
        return hi < probe
    return probe < lo or probe > hi  # "="


# ---------------------------------------------------------------------------
# Lazily-decoded storage columns
# ---------------------------------------------------------------------------


@dataclass
class SegmentRef:
    """One encoded column segment inside a ``.quackdb`` file."""

    codec: str
    offset: int
    length: int
    validity_offset: int
    validity_length: int
    rows: int
    meta: dict = field(default_factory=dict)
    zone: ZoneMapEntry | None = None


class StorageFile:
    """An open, memory-mapped ``.quackdb`` file shared by the lazy
    columns loaded out of it; kept alive by the tables that reference
    it."""

    def __init__(self, path: str):
        self.path = path
        try:
            self._handle = open_path(path, "rb")
        except OSError as exc:
            raise QuackError(f"{path}: cannot open database: {exc}") from exc
        try:
            self._mmap = mmap.mmap(self._handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            self._handle.close()
            raise QuackError(
                f"{path}: not a quack database file: {exc}"
            ) from exc

    def __len__(self) -> int:
        return len(self._mmap)

    def read(self, offset: int, length: int) -> bytes:
        count("storage.bytes_read", length)
        return self._mmap[offset:offset + length]

    def close(self) -> None:
        self._mmap.close()
        self._handle.close()


class StorageColumn(ColumnData):
    """A column whose sealed row groups live in a :class:`StorageFile`.

    Stored segments decode on first touch and are cached as whole
    :class:`Vector` objects so derived ``_aux`` views (box SoA caches)
    survive repeated scans; the cache is dropped on :meth:`rewrite`, so a
    reload can never serve a stale fingerprint.  Appends after load land
    in the in-memory tail/segments inherited from :class:`ColumnData`,
    ordered *after* every stored group.
    """

    __slots__ = ("source", "refs", "_decoded", "_decode_lock")

    def __init__(self, ltype: LogicalType, source: StorageFile,
                 refs: list[SegmentRef]):
        super().__init__(ltype)
        self.source = source
        self.refs = refs
        self._decoded: dict[int, Vector] = {}
        self._decode_lock = threading.Lock()

    def __len__(self) -> int:
        return sum(ref.rows for ref in self.refs) + super().__len__()

    def segment_count(self) -> int:
        self.seal()
        return len(self.refs) + len(self.segments)

    def segment_rows(self, index: int) -> int:
        if index < len(self.refs):
            return self.refs[index].rows
        return len(self.segments[index - len(self.refs)])

    def segment_vector(self, index: int) -> Vector:
        if index >= len(self.refs):
            return self.segments[index - len(self.refs)]
        cached = self._decoded.get(index)
        if cached is not None:
            if verification_enabled():
                self._verify_decoded(index, cached)
            return cached
        with self._decode_lock:
            cached = self._decoded.get(index)
            if cached is None:
                cached = self._decode(index)
                self._decoded[index] = cached
        return cached

    def zone_entry(self, index: int) -> ZoneMapEntry:
        if index < len(self.refs):
            ref = self.refs[index]
            if ref.zone is None:
                ref.zone = compute_zone_entry(self.segment_vector(index))
            return ref.zone
        return compute_zone_entry(self.segment_vector(index))

    def _decode(self, index: int) -> Vector:
        ref = self.refs[index]
        payload = self.source.read(ref.offset, ref.length)
        try:
            validity = decode_validity(
                self.source.read(ref.validity_offset, ref.validity_length),
                ref.rows,
            )
            vector = decode_segment(ref.codec, payload, ref.meta, ref.rows,
                                    self.ltype, validity)
        except _CORRUPT as exc:
            raise QuackError(f"{self.source.path}: corrupt {ref.codec} "
                             f"segment {index}: {exc}") from exc
        count("storage.segments_decoded")
        if verification_enabled():
            self._verify_decoded(index, vector)
        return vector

    def _verify_decoded(self, index: int, vector: Vector) -> None:
        """Decompressed-chunk verification: the decoded vector must still
        match its footer metadata, and any cached derived ``_aux`` views
        must match the payload they were built from."""
        ref = self.refs[index]
        if len(vector) != ref.rows:
            raise VerificationError(
                f"storage segment {index} of {self.source.path}: decoded "
                f"{len(vector)} rows, footer says {ref.rows}"
            )
        if ref.zone is not None:
            nulls = int(np.count_nonzero(~vector.validity))
            if nulls != ref.zone.nulls:
                raise VerificationError(
                    f"storage segment {index} of {self.source.path}: "
                    f"decoded {nulls} NULLs, zone map says {ref.zone.nulls}"
                )
        vector.verify_aux_fresh("storage decoded chunk")

    def rewrite(self, data: list[Any]) -> None:
        # Drop every stored segment *and* the decoded-vector cache in one
        # motion: a stale cached Vector here would keep serving _aux
        # views fingerprinted against the pre-rewrite payload.  The
        # stored row-group boundaries carry over to the rebuilt
        # in-memory segments so sibling storage columns stay aligned.
        self.seal()
        counts = [self.segment_rows(i) for i in range(self.segment_count())]
        with self._decode_lock:
            self.refs = []
            self._decoded.clear()
        self._reseal(data, counts)


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def write_database(database: Any, path: str) -> int:
    """Serialize every catalog table to ``path`` in the columnar format;
    returns the number of tables written.  Live rows are re-chunked into
    fixed row groups, so tombstones never reach the disk.

    The file is built beside ``path`` and renamed over it, so a failed
    checkpoint leaves the old file complete — and a checkpoint over the
    attached file never truncates the mapping its own tables read from
    (the old inode lives on under the open :class:`StorageFile`)."""
    tables = list(database.catalog.tables.values())
    directory, base = os.path.split(os.path.abspath(path))
    temp = None
    try:
        with tempfile.NamedTemporaryFile(
            "wb", dir=directory, prefix=base + ".", suffix=".tmp",
            delete=False,
        ) as handle:
            temp = handle.name
            writer = _SegmentWriter(handle)
            table_entries = [
                {
                    "name": table.name,
                    "columns": [
                        [name, ltype.name]
                        for name, ltype in zip(table.column_names,
                                               table.column_types)
                    ],
                    "indexes": [
                        [index.name, index.type_name, index.column]
                        for index in table.indexes
                    ],
                    "row_groups": writer.write_table(table),
                }
                for table in tables
            ]
            footer = {
                "magic": "quackdb",
                "format_version": FORMAT_VERSION,
                "extensions": list(database.loaded_extensions),
                "tables": table_entries,
            }
            handle.write(json.dumps(footer).encode("utf-8"))
            handle.write(struct.pack("<Q", writer.offset))
            handle.write(_MAGIC)
            total = handle.tell()
        os.replace(temp, path)
    except BaseException:
        if temp is not None:
            try:
                os.unlink(temp)
            except OSError:
                pass
        raise
    count("storage.bytes_written", total)
    count("storage.checkpoints")
    return len(tables)


def _stored_segment(column: ColumnData, seg: int) -> bool:
    """Whether ``seg`` of ``column`` is still an on-disk segment (a
    rewritten or in-memory column has none)."""
    return isinstance(column, StorageColumn) and seg < len(column.refs)


class _SegmentWriter:
    """Appends row groups to an open database file, tracking the byte
    offset the footer descriptors record."""

    def __init__(self, handle: Any):
        self.handle = handle
        handle.write(_MAGIC)
        self.offset = len(_MAGIC)

    def write_table(self, table: Table) -> list[dict]:
        """Write ``table``'s live rows as row groups of
        :data:`ROW_GROUP_SIZE`; returns their footer entries.

        A sealed segment that arrives on a group boundary without
        tombstones, and is itself a whole group (full, or the table's
        short last one), becomes a group as it stands: its columns still
        backed by a stored segment are copied byte for byte with their
        footer zone entry, never decoded.  Everything else is decoded,
        stripped of tombstones and re-chunked by slicing and
        concatenating the segment arrays."""
        groups: list[dict] = []
        columns = table._columns
        pending: list[Vector] | None = None  # rows short of a full group
        segments = list(table.segment_masks())
        for seg, _, rows, keep in segments:
            whole = rows == ROW_GROUP_SIZE or (
                0 < rows < ROW_GROUP_SIZE and seg == segments[-1][0]
            )
            if pending is None and keep is None and whole:
                groups.append(self._write_group(rows, [
                    (column, seg) if _stored_segment(column, seg)
                    else column.segment_vector(seg)
                    for column in columns
                ]))
                continue
            vectors = [column.segment_vector(seg) for column in columns]
            if keep is not None:
                vectors = [v.slice(keep) for v in vectors]
            if pending is not None:
                vectors = [concat_vectors([p, v])
                           for p, v in zip(pending, vectors)]
            total = len(vectors[0])
            start = 0
            while total - start >= ROW_GROUP_SIZE:
                stop = start + ROW_GROUP_SIZE
                groups.append(self._write_group(
                    ROW_GROUP_SIZE,
                    [v.slice(slice(start, stop)) for v in vectors],
                ))
                start = stop
            pending = [v.slice(slice(start, total)) for v in vectors] \
                if start < total else None
        if pending is not None:
            groups.append(self._write_group(len(pending[0]), pending))
        return groups

    def _write_group(self, rows: int, parts: list) -> dict:
        """One row group; each part is a :class:`Vector` to encode or the
        ``(column, segment)`` of a stored segment to copy."""
        descriptors = []
        zones = []
        for part in parts:
            if isinstance(part, Vector):
                zone = compute_zone_entry(part)
                codec, payload, meta = encode_segment(part)
                validity_blob = encode_validity(part.validity)
            else:
                column, seg = part
                ref = column.refs[seg]
                codec, meta = ref.codec, ref.meta
                payload = column.source.read(ref.offset, ref.length)
                validity_blob = column.source.read(ref.validity_offset,
                                                   ref.validity_length)
                zone = column.zone_entry(seg)
                count("storage.segments_copied")
                if verification_enabled():
                    _verify_copied_segment(column, seg, payload,
                                           validity_blob)
            self.handle.write(payload)
            self.handle.write(validity_blob)
            descriptor = {
                "codec": codec,
                "offset": self.offset,
                "length": len(payload),
                "voffset": self.offset + len(payload),
                "vlength": len(validity_blob),
            }
            if meta:
                descriptor["meta"] = meta
            descriptors.append(descriptor)
            zones.append(zone.to_json())
            self.offset += len(payload) + len(validity_blob)
        return {"rows": rows, "columns": descriptors, "zones": zones}


def _verify_copied_segment(column: "StorageColumn", seg: int,
                           payload: bytes, validity_blob: bytes) -> None:
    """Verification mode: a segment copied verbatim must be what
    re-encoding its decoded rows would have written, byte for byte —
    except under the pickle fallback, whose objects carry whatever state
    queries memoized on them since."""
    ref = column.refs[seg]
    vector = column.segment_vector(seg)
    codec, encoded, meta = encode_segment(vector)
    if not (
        codec == ref.codec and meta == ref.meta
        and encode_validity(vector.validity) == validity_blob
        and (codec == "pickle" or encoded == payload)
    ):
        raise VerificationError(
            f"storage segment {seg} of {column.source.path}: verbatim "
            f"copy differs from the re-encoded segment"
        )
    count("verify.segment_copy_crosschecks")


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def read_database(database: Any, path: str) -> int:
    """Load ``path`` into the catalog as lazily-decoded storage tables;
    returns the number of tables loaded.  A file without the format's
    magic raises :class:`QuackError` before anything is decoded."""
    source = StorageFile(path)
    # On success the loaded tables own (and keep alive) the mapped
    # file; on *any* failure — format checks, footer parsing, or a
    # partial table instantiation — this handler closes it instead of
    # relying on every raise site to remember to.
    try:
        if source.read(0, len(_MAGIC)) != _MAGIC:
            raise QuackError(f"{path}: not a quack database file")
        if len(source) < len(_MAGIC) + _TRAILER_SIZE:
            raise QuackError(
                f"{path}: not a quack database file: truncated"
            )
        trailer = source.read(len(source) - _TRAILER_SIZE, _TRAILER_SIZE)
        if trailer[8:] != _MAGIC:
            raise QuackError(
                f"{path}: not a quack database file: missing footer "
                "trailer"
            )
        (footer_offset,) = struct.unpack("<Q", trailer[:8])
        try:
            footer = json.loads(source.read(
                footer_offset,
                len(source) - _TRAILER_SIZE - footer_offset,
            ).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise QuackError(
                f"{path}: not a quack database file: bad footer: {exc}"
            ) from exc
        version = footer.get("format_version")
        if not isinstance(version, int) or \
                footer.get("magic") != "quackdb":
            raise QuackError(f"{path}: not a quack database file")
        if version > FORMAT_VERSION:
            raise QuackError(
                f"{path}: format version {version} is newer than the "
                f"supported version {FORMAT_VERSION}"
            )
        # The footer records extension *names* for diagnostics only: the
        # caller must have loaded them already (types resolve by name
        # through the database's registry).
        loaded = 0
        for entry in footer.get("tables", []):
            table = _instantiate_table(database, entry, source)
            database.catalog.create_table(table, or_replace=True)
            loaded += 1
            _rebuild_indexes(database, table, entry.get("indexes", []))
    except BaseException:
        source.close()
        raise
    count("storage.tables_attached", loaded)
    return loaded


def _instantiate_table(database: Any, entry: dict,
                       source: StorageFile) -> Table:
    columns = [
        (name, database.types.lookup(type_name))
        for name, type_name in entry["columns"]
    ]
    table = Table(entry["name"], columns)
    refs: list[list[SegmentRef]] = [[] for _ in columns]
    for group in entry.get("row_groups", []):
        zones = group.get("zones") or [None] * len(columns)
        for ci, descriptor in enumerate(group["columns"]):
            zone_raw = zones[ci]
            refs[ci].append(SegmentRef(
                codec=descriptor["codec"],
                offset=int(descriptor["offset"]),
                length=int(descriptor["length"]),
                validity_offset=int(descriptor["voffset"]),
                validity_length=int(descriptor["vlength"]),
                rows=int(group["rows"]),
                meta=descriptor.get("meta", {}),
                zone=ZoneMapEntry.from_json(zone_raw)
                if zone_raw is not None else None,
            ))
    table._columns = [
        StorageColumn(ltype, source, column_refs)
        for (_, ltype), column_refs in zip(columns, refs)
    ]
    return table


def _rebuild_indexes(database: Any, table: Table,
                     index_entries: list) -> None:
    for index_name, type_name, column in index_entries:
        index_type = database.config.index_types.lookup(type_name)
        instance = index_type.create_instance(
            name=index_name,
            table=table,
            column=column,
            database=database,
        )
        database.catalog.add_index(instance)


# ---------------------------------------------------------------------------
# Spill files (external sort / grace join / partitioned aggregation)
# ---------------------------------------------------------------------------


class SpillFile:
    """:class:`DataChunk` batches as encoded column segments in an
    anonymous temp file — the database file's codecs, one length-prefixed
    JSON header per chunk.

    One writer, then one sequential reader — exactly the lifecycle of a
    sort run or a join/aggregation partition.  The file is unlinked on
    creation (``tempfile.TemporaryFile``), so crashed queries leak no
    artifacts."""

    def __init__(self, types: list[LogicalType]) -> None:
        self._handle = tempfile.TemporaryFile(prefix="quack-spill-")
        self.types = types
        self.chunks = 0
        self.rows = 0

    def write_chunk(self, chunk: DataChunk) -> None:
        columns = []
        blobs = []
        for vector in chunk.vectors:
            codec, payload, meta = encode_segment(vector)
            validity_blob = encode_validity(vector.validity)
            columns.append([codec, len(payload), len(validity_blob), meta])
            blobs += (payload, validity_blob)
        header = json.dumps({"rows": chunk.count,
                             "columns": columns}).encode("utf-8")
        body = b"".join(blobs)
        self._handle.write(struct.pack("<I", len(header)))
        self._handle.write(header)
        self._handle.write(body)
        written = 4 + len(header) + len(body)
        self.chunks += 1
        self.rows += chunk.count
        count("storage.spill_bytes", written)
        count("storage.spill_rows", chunk.count)

    def read_chunks(self) -> Iterator[DataChunk]:
        """The written chunks in order, one decoded per pull."""
        self._handle.seek(0)
        for _ in range(self.chunks):
            (length,) = struct.unpack("<I", self._handle.read(4))
            header = json.loads(self._handle.read(length))
            rows = header["rows"]
            vectors = []
            for ltype, (codec, size, vsize, meta) in zip(
                    self.types, header["columns"]):
                payload = self._handle.read(size)
                validity = decode_validity(self._handle.read(vsize), rows)
                vectors.append(decode_segment(codec, payload, meta, rows,
                                              ltype, validity))
            yield DataChunk(vectors)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SpillFile":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def chunk_nbytes(chunk: Any) -> int:
    """Working-set estimate of one :class:`DataChunk` for the
    ``memory_limit`` watermark; object payloads use a flat per-slot
    estimate (a view vector is not materialized to size it)."""
    total = 0
    for vector in chunk.vectors:
        if vector.ltype.physical == "object":
            total += len(vector) * _OBJECT_SLOT_BYTES
        else:
            total += vector.data.nbytes
        total += vector.validity.nbytes
    return total
