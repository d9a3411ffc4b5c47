"""Serialization for the streaming substrate.

The paper implements a custom "serializer and deserializer to send and
read the vehicular data" on top of Kafka; telemetry packets are ~200
bytes.  JSON of the Table II fields lands in that range:
:class:`JsonSerde`.

For the hot path there is also :class:`FlatStructSerde`: a
schema-aware fixed-layout binary encoding (struct packing) that cuts
both the per-record CPU cost (no ``json.dumps(sort_keys=True)``) and
the wire size (well under half of the JSON bytes).  A topic carries
one format: a struct serde packs only what its layout holds and reads
only struct payloads, raising :class:`SerdeError` for anything else.
Both serdes encode columns to values and decode values to columns
(:meth:`Serde.encode_batch`, :meth:`Serde.decode_batch`), so their
callers never ask which format a topic has.  The CAD3 wire schemas
built on this live in :mod:`repro.core.wire` (the streaming layer
stays schema-agnostic).
"""

from __future__ import annotations

import json
import struct
from itertools import repeat
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


class SerdeError(ValueError):
    """Payload could not be (de)serialized."""


class Serde:
    """Serializer/deserializer interface."""

    #: Bytes per record of a fixed-layout format; ``None`` when the
    #: records of a topic vary in size.
    wire_size: Optional[int] = None

    def serialize(self, value: Any) -> bytes:
        raise NotImplementedError

    def deserialize(self, payload: bytes) -> Any:
        raise NotImplementedError

    def encode_batch(self, columns: Mapping[str, Sequence]) -> List[bytes]:
        """Rows given as one equal-length column per key, each row's
        dict serialized."""
        keys = list(columns)
        return [self.serialize(dict(zip(keys, row))) for row in zip(*columns.values())]

    def decode_batch(self, payloads: Sequence[bytes]) -> Mapping[str, Sequence]:
        """Payloads of flat dicts as one column per key: the inverse of
        :meth:`encode_batch`."""
        values = [self.deserialize(payload) for payload in payloads]
        return {key: [value[key] for value in values] for key in values[0]} if values else {}


class JsonSerde(Serde):
    """Compact JSON with deterministic key order."""

    def serialize(self, value: Any) -> bytes:
        try:
            return json.dumps(
                value, separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SerdeError(f"value is not JSON-serializable: {exc}") from exc

    def deserialize(self, payload: bytes) -> Any:
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerdeError(f"payload is not valid JSON: {exc}") from exc


#: First byte of every struct-encoded payload.  JSON documents start
#: with one of ``{ [ " 0-9 - t f n`` or whitespace, never 0xC3.
STRUCT_MAGIC = 0xC3

#: Layout version, bumped on any schema change.
STRUCT_VERSION = 1


_NAN = float("nan")

#: Field kinds understood by :class:`FlatStructSerde`.
FIELD_PLAIN = "plain"  # value stored as-is (int or float)
FIELD_ENUM = "enum"  # small string vocabulary stored as uint8 index
FIELD_OPT_FLOAT = "opt_float"  # float or None (None stored as NaN)
FIELD_OPT_INT = "opt_int"  # small int or None (None stored as -1)

#: struct format code -> numpy dtype string (little-endian, packed).
_NUMPY_CODES = {
    "b": "i1",
    "B": "u1",
    "h": "<i2",
    "H": "<u2",
    "i": "<i4",
    "I": "<u4",
    "q": "<i8",
    "Q": "<u8",
    "f": "<f4",
    "d": "<f8",
}


class FlatStructSerde(Serde):
    """Fixed-layout binary serde for flat dicts.

    Parameters
    ----------
    fields:
        ``(key, struct_code, kind, vocab)`` tuples in wire order.
        ``kind`` is one of the ``FIELD_*`` constants; ``vocab`` is the
        value tuple for :data:`FIELD_ENUM` fields (index encoded as the
        struct code, normally ``"B"``), else ``None``.

    A record is a dict with exactly the layout's keys.  Anything the
    layout cannot hold (a non-dict, a missing or extra key, an
    out-of-range int, an unknown enum value) raises :class:`SerdeError`,
    and so does a payload that is not a struct record of this layout.
    """

    def __init__(
        self,
        fields: Sequence[Tuple[str, str, str, Optional[tuple]]],
    ) -> None:
        self.fields = tuple(fields)
        for _key, _code, kind, _vocab in self.fields:
            if kind not in (FIELD_PLAIN, FIELD_ENUM, FIELD_OPT_FLOAT, FIELD_OPT_INT):
                raise ValueError(f"unknown field kind: {kind!r}")
        self._struct = struct.Struct(
            "<BB" + "".join(code for _, code, _, _ in self.fields)
        )
        self._keys = {key for key, _, _, _ in self.fields}
        #: enum field -> value -> wire index.
        self._enum_index: Dict[str, Dict[Any, int]] = {
            key: {value: i for i, value in enumerate(vocab)}
            for key, _code, kind, vocab in self.fields
            if kind == FIELD_ENUM
        }
        #: Numpy view of the wire layout, for vectorized batch decode.
        self.dtype = np.dtype(
            [("magic", "u1"), ("version", "u1")]
            + [(key, _NUMPY_CODES[code]) for key, code, _, _ in self.fields]
        )

    @property
    def wire_size(self) -> int:
        """Bytes per struct-encoded record (fixed)."""
        return self._struct.size

    def encode_batch(self, columns: Mapping[str, Sequence]) -> List[bytes]:
        """Encode rows given as one equal-length column per field: the
        inverse of :meth:`decode_batch`, one ``struct.pack`` per row."""
        if columns.keys() != self._keys:
            raise SerdeError(
                f"columns {sorted(columns)} are not the layout's {sorted(self._keys)}"
            )
        if len(set(map(len, columns.values()))) > 1:
            raise SerdeError("columns of unequal length")
        encoded = []
        for key, _code, kind, _vocab in self.fields:
            column = columns[key]
            if kind == FIELD_ENUM:
                column = map(self._enum_index[key].__getitem__, column)
            elif kind == FIELD_OPT_FLOAT:
                column = [_NAN if v is None else v for v in column]
            elif kind == FIELD_OPT_INT:
                column = [-1 if v is None else v for v in column]
            encoded.append(column)
        try:
            return list(
                map(
                    self._struct.pack,
                    repeat(STRUCT_MAGIC), repeat(STRUCT_VERSION), *encoded,
                )
            )
        except (KeyError, TypeError, struct.error) as exc:
            raise SerdeError(f"a value the struct layout cannot hold: {exc!r}") from exc

    def serialize(self, value: Any) -> bytes:
        if not isinstance(value, dict):
            raise SerdeError(f"a struct record is a dict, not {type(value).__name__}")
        return self.encode_batch({key: (item,) for key, item in value.items()})[0]

    def fill(self, rows: np.ndarray, key: str, value: Any) -> None:
        """Write ``value`` into plain field ``key`` of every encoded row
        of ``rows`` (an ``(n, wire_size)`` uint8 array), packed as
        :meth:`encode_batch` packs it."""
        offset = self.dtype.fields[key][1]
        code = next(code for name, code, _, _ in self.fields if name == key)
        try:
            packed = struct.pack("<" + code, value)
        except struct.error as exc:
            raise SerdeError(f"{key}={value!r} does not fit the struct layout") from exc
        rows[:, offset : offset + len(packed)] = np.frombuffer(packed, dtype=np.uint8)

    def decode_rows(self, data) -> np.ndarray:
        """Struct records joined in ``data`` as one structured array
        (one ``np.frombuffer``, no per-record Python).  Enum and
        optional fields come back as their raw wire codes."""
        if len(data) % self.wire_size:
            raise SerdeError(
                f"{len(data)} bytes are not whole {self.wire_size}-byte records"
            )
        rows = np.frombuffer(data, dtype=self.dtype)
        if not (rows["magic"] == STRUCT_MAGIC).all():
            raise SerdeError("a payload without the struct magic")
        if not (rows["version"] == STRUCT_VERSION).all():
            raise SerdeError("unsupported struct schema version")
        return rows

    def decode_batch(self, payloads: Sequence[bytes]) -> np.ndarray:
        """Decode struct payloads into one structured array, a column
        per field (see :meth:`decode_rows`)."""
        if any(len(payload) != self.wire_size for payload in payloads):
            raise SerdeError(f"a payload that is not a {self.wire_size}-byte record")
        return self.decode_rows(b"".join(payloads))

    def deserialize(self, payload: bytes) -> Any:
        if not payload or payload[0] != STRUCT_MAGIC:
            raise SerdeError("payload is not struct-encoded")
        try:
            unpacked = self._struct.unpack(payload)
        except struct.error as exc:
            raise SerdeError(f"bad struct payload: {exc}") from exc
        if unpacked[1] != STRUCT_VERSION:
            raise SerdeError(
                f"unsupported struct schema version {unpacked[1]}"
            )
        out = {}
        for (key, _code, kind, vocab), raw in zip(self.fields, unpacked[2:]):
            if kind == FIELD_ENUM:
                try:
                    raw = vocab[raw]
                except IndexError as exc:
                    raise SerdeError(f"bad enum code {raw} for {key!r}") from exc
            elif kind == FIELD_OPT_FLOAT and raw != raw:  # NaN: None
                raw = None
            elif kind == FIELD_OPT_INT and raw < 0:
                raw = None
            out[key] = raw
        return out
