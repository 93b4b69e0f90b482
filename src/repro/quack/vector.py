"""Vectors and data chunks: the unit of execution in the quack engine.

A :class:`Vector` is a typed column of values with a validity mask; a
:class:`DataChunk` is an ordered set of equally sized vectors — the
engine's analogue of DuckDB's ``Vector`` / ``DataChunk`` (paper §3.4 shows
scalar functions with the ``(DataChunk &args, …, Vector &result)``
signature; the Python registration API mirrors that shape).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..analysis.config import verification_enabled
from ..analysis.errors import VerificationError
from .errors import ConversionError, ExecutionError
from .types import BOOLEAN, LogicalType

STANDARD_VECTOR_SIZE = 2048

#: Serializes ``_aux`` publication.  The builders run *outside* the lock
#: (they can be expensive — box SoA extraction walks object payloads);
#: the lock only covers the publish step, so client threads sharing a
#: database may double-compute a view but every reader observes exactly
#: one fully-built value per key.  A single module-level lock is enough:
#: publishes are rare (once per vector per view) and very short.
_AUX_PUBLISH_LOCK = threading.Lock()

#: Reserved ``_aux`` key holding the payload fingerprint recorded when the
#: first derived view was built (verification mode only).
_AUX_TOKEN_KEY = "__verify_payload_token__"

_PHYSICAL_DTYPES = {
    "bool": np.bool_,
    "int64": np.int64,
    "float64": np.float64,
    "object": object,
}


class KernelFallback(Exception):
    """Internal signal: a vectorized kernel cannot handle this data and
    the caller must take the row-wise fallback path (not a user error)."""


class Vector:
    """A column of ``count`` values of one logical type plus validity."""

    __slots__ = ("ltype", "data", "validity", "_aux", "_source")

    def __init__(self, ltype: LogicalType, data: np.ndarray,
                 validity: np.ndarray | None = None):
        self.ltype = ltype
        self.data = data
        if validity is None:
            validity = np.ones(len(data), dtype=np.bool_)
        self.validity = validity
        #: lazily created per-vector cache for derived columnar views
        #: (e.g. the struct-of-arrays bounding boxes of box kernels)
        self._aux: dict[Any, Any] | None = None
        #: ``(vector, rows)`` when this vector is a gather of an
        #: extension-typed vector (DuckDB's dictionary vector): row ``i``
        #: holds ``vector``'s row ``rows[i]``.  Derived views belong to
        #: that vector, the column, and are gathered from it.
        self._source: tuple["Vector", np.ndarray] | None = None

    def cached_aux(self, key: Any, builder: Callable[["Vector"], Any]) -> Any:
        """Build-once cache of a derived view of this vector's payload.

        Under verification mode the payload is fingerprinted when the
        first view is built, and every later cache hit re-checks the
        fingerprint so a mutation that stales the cached views (e.g. the
        box SoA caches after a write) fails loudly instead of silently
        serving stale data.

        Thread-safe for client threads sharing a database: the value is
        computed outside :data:`_AUX_PUBLISH_LOCK` and published
        atomically under it (first publish wins, losers discard their
        copy), so no reader ever observes a partially-written entry and
        repeat lookups always return the same object.

        A gather of another vector does not build: it asks its source
        for the view (built there once, for the column's lifetime) and
        gathers its rows with the view's ``take``.
        """
        aux = self._aux
        if aux is not None:
            try:
                value = aux[key]
            except KeyError:
                pass
            else:
                if verification_enabled():
                    self.verify_aux_fresh("cached_aux hit")
                return value
        # The fingerprint must be taken *before* the builder runs: the
        # builder reads the payload, and a token captured afterwards
        # could mask a concurrent mutation that the builder already saw.
        token = self._payload_token() if verification_enabled() else None
        source = self._source
        if source is None:
            value = builder(self)
        else:
            value = source[0].cached_aux(key, builder).take(source[1])
        with _AUX_PUBLISH_LOCK:
            aux = self._aux
            if aux is None:
                aux = self._aux = {}
            if token is not None:
                aux.setdefault(_AUX_TOKEN_KEY, token)
            value = aux.setdefault(key, value)
        return value

    def _payload_token(self) -> tuple:
        """Cheap fingerprint of the payload for stale-``_aux`` detection.

        Object payloads fingerprint element identities (replacing a value
        is caught; mutating one in place is not — those are owned by the
        extension types and treated as immutable)."""
        if self.data.dtype == object:
            payload = hash(tuple(map(id, self.data.tolist())))
        else:
            payload = hash(self.data.tobytes())
        return (len(self.data), payload, hash(self.validity.tobytes()))

    def verify_aux_fresh(self, where: str) -> None:
        """Raise :class:`VerificationError` if the payload changed after
        derived ``_aux`` views were built (verification mode records the
        fingerprint; without it this is a no-op)."""
        aux = self._aux
        if aux is None:
            return
        token = aux.get(_AUX_TOKEN_KEY)
        if token is not None and token != self._payload_token():
            raise VerificationError(
                f"stale _aux cache in {where}: {self.ltype.name} vector "
                f"payload changed after derived views were built"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls, ltype: LogicalType, count: int) -> "Vector":
        dtype = _PHYSICAL_DTYPES[ltype.physical]
        data = np.zeros(count, dtype=dtype)
        return cls(ltype, data, np.ones(count, dtype=np.bool_))

    @classmethod
    def from_values(cls, ltype: LogicalType, values: Iterable[Any]) -> "Vector":
        """The Python ``values`` (``None``: NULL) as one vector, converted
        in one pass; a value the physical type cannot hold raises
        :class:`ConversionError`.  Validity is an identity test, never
        the conversion's (``np.fromiter`` reads ``None`` as a NaN)."""
        items = values if isinstance(values, (list, tuple)) else list(values)
        count = len(items)
        native = ltype.physical != "object"
        try:
            # A number never equals None: a NULL-free number column skips
            # the identity walk after one C-level ``None in`` scan.
            if native and None not in items:
                validity = np.ones(count, dtype=np.bool_)
            else:
                validity = np.fromiter(
                    (v is not None for v in items), dtype=np.bool_,
                    count=count
                )
            if native and not validity.all():
                fill = False if ltype.physical == "bool" else 0
                items = [fill if v is None else v for v in items]
            data = np.fromiter(items, dtype=_PHYSICAL_DTYPES[ltype.physical],
                               count=count)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConversionError(
                f"cannot store a value as {ltype.name}: {exc}"
            ) from None
        return cls(ltype, data, validity)

    @classmethod
    def constant(cls, ltype: LogicalType, value: Any, count: int) -> "Vector":
        if ltype.is_user and value is not None:
            # One payload, ``count`` references to it.
            return cls.from_values(ltype, [value]).take(
                np.zeros(count, dtype=np.int64)
            )
        if ltype.physical == "object":
            data = np.empty(count, dtype=object)
            for i in range(count):
                data[i] = value
        else:
            dtype = _PHYSICAL_DTYPES[ltype.physical]
            fill = (False if ltype.physical == "bool" else 0) if value is None else value
            data = np.full(count, fill, dtype=dtype)
        if value is None:
            validity = np.zeros(count, dtype=np.bool_)
        else:
            validity = np.ones(count, dtype=np.bool_)
        return cls(ltype, data, validity)

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def value(self, index: int) -> Any:
        if not self.validity[index]:
            return None
        item = self.data[index]
        if isinstance(item, np.generic):
            return item.item()
        return item

    def to_list(self) -> list[Any]:
        """The column as plain Python values, NULL slots as ``None``: one
        ``tolist`` plus a patch of the NULL positions, no per-cell call."""
        values = self.data.tolist()
        if self.data.dtype == object and any(
            issubclass(t, np.generic) for t in set(map(type, values))
        ):
            values = [v.item() if isinstance(v, np.generic) else v
                      for v in values]
        for i in np.flatnonzero(~self.validity).tolist():
            values[i] = None
        return values

    def slice(self, selection: np.ndarray) -> "Vector":
        """Select rows by an integer index array or boolean mask."""
        out = Vector(self.ltype, self.data[selection],
                     self.validity[selection])
        if self.ltype.is_user:
            out._source = self._gathered(selection)
        return out

    def take(self, indices: Sequence[int]) -> "Vector":
        return self.slice(np.asarray(indices, dtype=np.int64))

    def _origin(self) -> tuple["Vector", np.ndarray]:
        """The vector whose rows these are, and which of them."""
        return self._source or (self, np.arange(len(self)))

    def _gathered(self, selection: np.ndarray) -> tuple["Vector", np.ndarray]:
        root, rows = self._origin()
        return root, rows[selection]

    def row_keys(self) -> np.ndarray:
        """One int64 per row, equal exactly where two rows hold the same
        payload: the source row of a gather, else the identity of an
        object cell or the bit pattern of a native one (NULL slots hold
        whatever is there: pair the keys with :attr:`validity`)."""
        if self._source is not None:
            return self._source[1]
        data = self.data
        if data.dtype == object:
            return np.fromiter(map(id, data.tolist()), dtype=np.int64,
                               count=len(data))
        if data.dtype.itemsize == 8:
            return data.view(np.int64)
        return data.astype(np.int64)

    def with_type(self, ltype: LogicalType) -> "Vector":
        """Reinterpret under a different logical type (same physical)."""
        out = Vector(ltype, self.data, self.validity)
        if ltype.is_user and self.ltype.is_user:
            out._source = self._origin()
        return out

    def all_valid(self) -> bool:
        return bool(self.validity.all())

    def __repr__(self) -> str:
        preview = ", ".join(repr(self.value(i)) for i in range(min(4, len(self))))
        return f"<Vector {self.ltype.name}[{len(self)}] {preview}…>"


_DATA_SLOT = Vector.data


class ViewVector(Vector):
    """An extension-typed vector whose payload *is* a columnar view.

    A batch kernel that computes its result as arrays hands them over as
    they are: ``view`` is row-aligned and has ``take(rows)`` (a gather
    that shares the arrays) and ``objects()`` (the cells as a NumPy
    object array, ``None`` where a row holds nothing).  The view is what
    ``cached_aux(key, …)`` answers, so the next kernel reads the arrays;
    the Python objects are built once, when something reads ``data``
    (the result boundary, a function with no kernel), and a
    ``slice``/``take`` before that stays a view.
    """

    __slots__ = ("_key",)

    def __init__(self, ltype: LogicalType, key: Any, view: Any,
                 validity: np.ndarray):
        self.ltype = ltype
        self.validity = validity
        self._aux = {key: view}
        self._source = None
        self._key = key

    @property
    def data(self) -> np.ndarray:
        try:
            return _DATA_SLOT.__get__(self)
        except AttributeError:
            pass
        data = self._aux[self._key].objects()
        with _AUX_PUBLISH_LOCK:
            try:
                return _DATA_SLOT.__get__(self)
            except AttributeError:
                _DATA_SLOT.__set__(self, data)
        return data

    def __len__(self) -> int:
        return len(self.validity)

    def _materialized(self) -> bool:
        try:
            _DATA_SLOT.__get__(self)
        except AttributeError:
            return False
        return True

    def slice(self, selection: np.ndarray) -> "Vector":
        if self._materialized():
            return super().slice(selection)
        out = ViewVector(self.ltype, self._key,
                         self._aux[self._key].take(selection),
                         self.validity[selection])
        out._source = self._gathered(selection)
        return out

    def row_keys(self) -> np.ndarray:
        if self._source is None and not self._materialized():
            return np.arange(len(self))
        return super().row_keys()

    def _payload_token(self) -> tuple:
        # the view is the payload: fingerprinting builds no object
        return (len(self), id(self._aux[self._key]),
                hash(self.validity.tobytes()))


class DataChunk:
    """A batch of rows as a list of equally sized vectors."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: list[Vector]):
        if vectors:
            count = len(vectors[0])
            for v in vectors[1:]:
                if len(v) != count:
                    raise ExecutionError("misaligned vectors in chunk")
        self.vectors = vectors

    @property
    def count(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    def column(self, index: int) -> Vector:
        return self.vectors[index]

    def slice(self, selection: np.ndarray) -> "DataChunk":
        return DataChunk([v.slice(selection) for v in self.vectors])

    def rows(self) -> list[tuple]:
        return list(zip(*[v.to_list() for v in self.vectors]))

    def __repr__(self) -> str:
        return f"<DataChunk {len(self.vectors)}x{self.count}>"


def concat_vectors(parts: list[Vector]) -> Vector:
    if not parts:
        raise ExecutionError("cannot concatenate zero vectors")
    ltype = parts[0].ltype
    if ltype.is_user:
        # Gathers of one vector concatenate to a gather of it (of a view,
        # to a view).
        origins = [p._origin() for p in parts]
        root = origins[0][0]
        if all(origin[0] is root for origin in origins):
            out = root.slice(np.concatenate([o[1] for o in origins]))
            return out if root.ltype == ltype else out.with_type(ltype)
    return Vector(ltype, np.concatenate([p.data for p in parts]),
                  np.concatenate([p.validity for p in parts]))


def concat_chunks(chunks: list[DataChunk]) -> DataChunk:
    return DataChunk([
        concat_vectors([chunk.vectors[i] for chunk in chunks])
        for i in range(len(chunks[0].vectors))
    ])


def boolean_selection(vector: Vector) -> np.ndarray:
    """Boolean mask of rows where the vector is valid and true."""
    if vector.ltype != BOOLEAN:
        raise ExecutionError(
            f"filter condition is {vector.ltype.name}, expected BOOLEAN"
        )
    mask = vector.data.astype(np.bool_, copy=False)
    return np.logical_and(mask, vector.validity)
