"""Persistent columnar storage: compressed segments, zone maps, spill files.

The on-disk format (``*.quackdb``) is a single file::

    +----------+---------------------------+-------------+----------------+
    | magic(8) | segment blobs, back to    | JSON footer | footer offset  |
    | QUACKDB2 | back (payload + validity) |             | (u64) magic(8) |
    +----------+---------------------------+-------------+----------------+

Rows are re-chunked into fixed-size **row groups** (default
:data:`repro.quack.vector.STANDARD_VECTOR_SIZE` rows).  Each column of a
row group is one encoded *segment*: an extension type's own codec
(:attr:`LogicalType.codec`), else a lightweight codec of
:mod:`repro.quack.compression` (bit-packed integers, ALP doubles, packed
dictionaries) whose parameters sit in the payload's header.  Validity is
a separate packed bitmap per segment, elided when all rows are valid.

The JSON footer carries the format version, schema, index definitions,
per-segment codec and byte offsets, and a per-row-group **zone map** per
column:
min/max over the numeric image (:func:`repro.quack.stats.as_number`),
string bounds for text, null counts, and per-axis bounding-box extents
with their SRID for spatial/temporal columns.  Scans with pushed-down
conjuncts consult the zone maps (see :func:`zone_map_prunes`) and skip
non-qualifying row groups *before* decompression.  An attached table's
columns are plain :class:`~repro.quack.catalog.ColumnData` whose
segments point into the memory-mapped file (:class:`SegmentRef`) and
decode on first touch, so a skipped group is never decoded.

The same module owns the **spill files** used by the spillable operators
(external sort runs, grace hash-join partitions, aggregation partials)
and the :func:`open_path` seam: lint rule ANL011 confines all file I/O
inside ``repro.quack`` to this module.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..analysis.config import verification_enabled
from ..analysis.errors import VerificationError
from ..observability import count
from .catalog import ColumnData, Segment, Table
from .compression import decode_segment, encode_segment
from .errors import QuackError
from .boxes import AXES, BoxSoA, bounding_box, column_boxes
from .stats import as_number
from .types import LogicalType
from .vector import STANDARD_VECTOR_SIZE, DataChunk, Vector, concat_vectors

#: On-disk format version (3: extension codecs; 4: lightweight codecs with
#: in-payload headers); newer files are refused.
FORMAT_VERSION = 4

_MAGIC = b"QUACKDB2"
_TRAILER_SIZE = 8 + len(_MAGIC)  # u64 footer offset + magic echo

#: Flat per-slot estimate for object payloads when sizing working sets
#: against ``SET memory_limit`` (exact byte accounting of extension
#: objects would require walking them).
_OBJECT_SLOT_BYTES = 64

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
# Validity bitmaps
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
    #: The one SRID of the group's boxes (0: none).
    srid: int = 0

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
            if self.srid:
                out["s"] = self.srid
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
            srid=int(raw.get("s", 0)),
        )


def compute_zone_entry(vector: Vector) -> ZoneMapEntry:
    """Bounds, null count and box extents of one sealed segment: NumPy
    reductions for native columns, list builtins for text, a value walk
    for the numbers and text of other object columns, and for extension
    payloads a reduction of the column's boxes (:func:`column_boxes`;
    a type codec's payloads are neither numbers nor text)."""
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
    codec = vector.ltype.codec
    if codec is not None:
        entry = ZoneMapEntry(rows=rows, nulls=nulls)
    else:
        values = vector.data[valid].tolist()
        if values and set(map(type, values)) == {str}:
            return ZoneMapEntry(rows=rows, nulls=nulls, slo=min(values),
                                shi=max(values), string_complete=True)
        entry = _walk_zone_entry(rows, nulls, values)
    if non_null and vector.ltype.is_user and getattr(codec, "zone_box",
                                                     True):
        _reduce_boxes(entry, column_boxes(vector), valid)
    return entry


def _walk_zone_entry(rows: int, nulls: int, values: list) -> ZoneMapEntry:
    """Zone entry of an object segment that is not pure text, from its
    non-NULL ``values``: numeric bounds over what has a numeric image
    (:func:`as_number`), string bounds over the text."""
    lo = hi = None
    slo = shi = None
    n_num = n_str = 0
    for value in values:
        number = as_number(value)
        if number is not None:
            n_num += 1
            if number == number:  # NaN never matches a comparison
                lo = number if lo is None else min(lo, number)
                hi = number if hi is None else max(hi, number)
        elif isinstance(value, str):
            n_str += 1
            slo = value if slo is None or value < slo else slo
            shi = value if shi is None or value > shi else shi
    non_null = rows - nulls
    return ZoneMapEntry(
        rows=rows,
        nulls=nulls,
        lo=lo,
        hi=hi,
        slo=slo,
        shi=shi,
        numeric_complete=non_null > 0 and n_num == non_null,
        string_complete=non_null > 0 and n_str == non_null,
    )


def _reduce_boxes(entry: ZoneMapEntry, boxes: BoxSoA,
                  valid: np.ndarray) -> None:
    """The group's box: per axis, the min/max of its rows' bounds, where
    every non-NULL row has a box with that axis (a row without ``t`` is
    unconstrained on ``t``), and their one SRID.  Rows without a box,
    or boxes of two SRIDs, leave the group box-less."""
    srids = np.unique(boxes.srid[valid])
    srids = srids[srids != 0]
    if not boxes.ok[valid].all() or len(srids) > 1:
        return
    box = {}
    for axis in AXES:
        lo, hi = (bound[valid] for bound in boxes.bounds(axis))
        if not np.isnan(lo).any():
            box[axis] = (float(lo[np.argmin(lo)]), float(hi[np.argmax(hi)]))
    entry.box, entry.box_complete = box or None, True
    entry.srid = int(srids[0]) if len(srids) else 0


def zone_map_prunes(entry: ZoneMapEntry, op_name: str,
                    constant: Any) -> bool:
    """``True`` when the zone map *proves* no row in the group satisfies
    ``column <op> constant`` — the conservative default is ``False``
    (cannot prune).  A box probe in an SRID other than the group's
    prunes nothing: the exact operator raises there."""
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
        box = bounding_box(constant)
        if not entry.box_complete or not entry.box or box is None or (
                entry.srid and box[1] not in (0, entry.srid)):
            return False
        for axis, (plo, phi) in box[0].items():
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
# Stored segments
# ---------------------------------------------------------------------------


class StorageFile:
    """An open, memory-mapped ``.quackdb`` file shared by the stored
    segments loaded out of it; kept alive by the segments that
    reference it."""

    def __init__(self, path: str):
        self.path = path
        #: the footer's format version, once read
        self.version = 0
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


@dataclass
class SegmentRef:
    """Where one encoded column segment sits inside a ``.quackdb`` file:
    the ``stored`` part of a :class:`~repro.quack.catalog.Segment`."""

    source: StorageFile
    codec: str
    offset: int
    length: int
    validity_offset: int
    validity_length: int
    rows: int
    #: a version 2/3 footer's codec parameters (version 4: in the payload)
    meta: dict = field(default_factory=dict)

    def payload(self) -> tuple[bytes, bytes]:
        """The segment's encoded payload and validity bytes."""
        return (self.source.read(self.offset, self.length),
                self.source.read(self.validity_offset, self.validity_length))

    def decode(self, ltype: LogicalType, index: int) -> Vector:
        """The segment's rows; bytes its codec did not write raise
        :class:`QuackError` naming the file and the segment."""
        payload, validity_blob = self.payload()
        try:
            validity = decode_validity(validity_blob, self.rows)
            vector = decode_segment(self.codec, payload, self.rows, ltype,
                                    validity, self.meta)
        except _CORRUPT as exc:
            raise QuackError(f"{self.source.path}: corrupt {self.codec} "
                             f"segment {index}: {exc}") from exc
        count("storage.segments_decoded")
        if verification_enabled():
            self.verify(vector, index)
        return vector

    def verify(self, vector: Vector, index: int,
               zone: ZoneMapEntry | None = None) -> None:
        """Decompressed-chunk verification: the decoded vector must still
        match its footer metadata, and any cached derived ``_aux`` views
        must match the payload they were built from."""
        where = f"storage segment {index} of {self.source.path}"
        if len(vector) != self.rows:
            raise VerificationError(f"{where}: decoded {len(vector)} rows, "
                                    f"footer says {self.rows}")
        if zone is not None:
            nulls = int(np.count_nonzero(~vector.validity))
            if nulls != zone.nulls:
                raise VerificationError(f"{where}: decoded {nulls} NULLs, "
                                        f"zone map says {zone.nulls}")
        vector.verify_aux_fresh("storage decoded chunk")


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
    """Whether segment ``seg`` of ``column`` is still the stored segment
    of a file of this format version, to copy as it stands (an updated
    or in-memory segment is not; an older file's codecs are
    re-encoded)."""
    stored = column.segments[seg].stored
    return stored is not None and stored.source.version == FORMAT_VERSION


class _SegmentWriter:
    """Appends row groups to an open database file, tracking the byte
    offset the footer descriptors record."""

    def __init__(self, handle: Any):
        self.handle = handle
        handle.write(_MAGIC)
        self.offset = len(_MAGIC)

    def write_table(self, table: Table) -> list[dict]:
        """Write ``table``'s live rows as row groups of
        :data:`STANDARD_VECTOR_SIZE`; returns their footer entries.

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
            whole = rows == STANDARD_VECTOR_SIZE or (
                0 < rows < STANDARD_VECTOR_SIZE and seg == segments[-1][0]
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
            while total - start >= STANDARD_VECTOR_SIZE:
                stop = start + STANDARD_VECTOR_SIZE
                groups.append(self._write_group(
                    STANDARD_VECTOR_SIZE,
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
                codec, payload = encode_segment(part)
                validity_blob = encode_validity(part.validity)
            else:
                column, seg = part
                codec = column.segments[seg].stored.codec
                payload, validity_blob = column.segments[seg].stored.payload()
                zone = column.zone_entry(seg)
                count("storage.segments_copied")
                if verification_enabled():
                    _verify_copied_segment(column, seg, payload,
                                           validity_blob)
            self.handle.write(payload)
            self.handle.write(validity_blob)
            descriptors.append({
                "codec": codec,
                "offset": self.offset,
                "length": len(payload),
                "voffset": self.offset + len(payload),
                "vlength": len(validity_blob),
            })
            zones.append(zone.to_json())
            self.offset += len(payload) + len(validity_blob)
        return {"rows": rows, "columns": descriptors, "zones": zones}


def _verify_copied_segment(column: ColumnData, seg: int,
                           payload: bytes, validity_blob: bytes) -> None:
    """Verification mode: a segment copied verbatim must be what
    re-encoding its decoded rows would have written, byte for byte —
    except under the pickle fallback, whose objects carry whatever state
    queries memoized on them since."""
    stored = column.segments[seg].stored
    vector = column.segment_vector(seg)
    codec, encoded = encode_segment(vector)
    if not (
        codec == stored.codec
        and encode_validity(vector.validity) == validity_blob
        and (codec == "pickle" or encoded == payload)
    ):
        raise VerificationError(
            f"storage segment {seg} of {stored.source.path}: verbatim "
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
        footer = _read_footer(source)
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


def _read_footer(source: StorageFile) -> dict:
    """The checked JSON footer of an open file; sets ``source.version``."""
    path = source.path
    if source.read(0, len(_MAGIC)) != _MAGIC:
        raise QuackError(f"{path}: not a quack database file")
    if len(source) < len(_MAGIC) + _TRAILER_SIZE:
        raise QuackError(f"{path}: not a quack database file: truncated")
    trailer = source.read(len(source) - _TRAILER_SIZE, _TRAILER_SIZE)
    if trailer[8:] != _MAGIC:
        raise QuackError(
            f"{path}: not a quack database file: missing footer trailer"
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
    if not isinstance(version, int) or footer.get("magic") != "quackdb":
        raise QuackError(f"{path}: not a quack database file")
    if version > FORMAT_VERSION:
        raise QuackError(
            f"{path}: format version {version} is newer than the "
            f"supported version {FORMAT_VERSION}"
        )
    source.version = version
    return footer


def describe(path: str) -> list[tuple[str, str, str, int, int, int]]:
    """Where a file's bytes go, read from its footer alone: ``(table,
    column, codec, payload bytes, validity bytes, rows)`` per column and
    codec, in file order."""
    source = StorageFile(path)
    try:
        footer = _read_footer(source)
    finally:
        source.close()
    totals: dict[tuple[str, str, str], list[int]] = {}
    for entry in footer.get("tables", []):
        for group in entry.get("row_groups", []):
            for (column, _), segment in zip(entry["columns"],
                                            group["columns"]):
                total = totals.setdefault(
                    (entry["name"], column, segment["codec"]), [0, 0, 0])
                total[0] += int(segment["length"])
                total[1] += int(segment["vlength"])
                total[2] += int(group["rows"])
    return [key + tuple(total) for key, total in totals.items()]


def _instantiate_table(database: Any, entry: dict,
                       source: StorageFile) -> Table:
    columns = [
        (name, database.types.lookup(type_name))
        for name, type_name in entry["columns"]
    ]
    table = Table(entry["name"], columns)
    for group in entry.get("row_groups", []):
        rows = int(group["rows"])
        zones = group.get("zones") or [None] * len(columns)
        for column, descriptor, zone in zip(table._columns, group["columns"],
                                            zones):
            column.segments.append(Segment(rows, stored=SegmentRef(
                source=source,
                codec=descriptor["codec"],
                offset=int(descriptor["offset"]),
                length=int(descriptor["length"]),
                validity_offset=int(descriptor["voffset"]),
                validity_length=int(descriptor["vlength"]),
                rows=rows,
                meta=descriptor.get("meta", {}),
            ), zone=ZoneMapEntry.from_json(zone) if zone else None))
    return table


def _rebuild_indexes(database: Any, table: Table,
                     index_entries: list) -> None:
    for index_name, type_name, column in index_entries:
        index_type = database.config.index_types.lookup(type_name)
        instance = index_type.create_instance(index_name, table, column)
        database.catalog.add_index(instance)


# ---------------------------------------------------------------------------
# Spill files (external sort / grace join / partitioned aggregation)
# ---------------------------------------------------------------------------


class SpillFile:
    """:class:`DataChunk` batches in an anonymous temp file, one
    length-prefixed JSON header per chunk.  Native columns are written
    raw — a run is read back once, by the statement that wrote it, so
    compressing it would only cost time — and object columns through
    the database file's codecs (:func:`encode_segment`).

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
            codec, payload = encode_segment(vector) \
                if vector.ltype.physical == "object" \
                else ("raw", vector.data.tobytes())
            validity_blob = encode_validity(vector.validity)
            columns.append([codec, len(payload), len(validity_blob)])
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
            for ltype, (codec, size, vsize) in zip(self.types,
                                                   header["columns"]):
                payload = self._handle.read(size)
                validity = decode_validity(self._handle.read(vsize), rows)
                vectors.append(decode_segment(codec, payload, rows, ltype,
                                              validity))
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
