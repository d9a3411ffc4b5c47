"""Serialization for the streaming substrate.

The paper implements a custom "serializer and deserializer to send and
read the vehicular data" on top of Kafka; telemetry packets are ~200
bytes.  JSON of the Table II fields lands in that range, so
:class:`JsonSerde` is the default throughout.

For the hot path there is also :class:`FlatStructSerde`: a
schema-aware fixed-layout binary encoding (struct packing) that cuts
both the per-record CPU cost (no ``json.dumps(sort_keys=True)``) and
the wire size (well under half of the JSON bytes).  Binary payloads are tagged with a magic
byte that can never begin a JSON document, so every struct serde
transparently falls back to JSON for foreign payloads — mixed-format
topics deserialize correctly.  The CAD3 wire schemas built on this
live in :mod:`repro.core.wire` (the streaming layer stays
schema-agnostic).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy as np


class SerdeError(ValueError):
    """Payload could not be (de)serialized."""


class Serde:
    """Serializer/deserializer interface."""

    def serialize(self, value: Any) -> bytes:
        raise NotImplementedError

    def deserialize(self, payload: bytes) -> Any:
        raise NotImplementedError


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
#: with one of ``{ [ " 0-9 - t f n`` or whitespace, never 0xC3, so the
#: two formats are distinguishable from the first byte.
STRUCT_MAGIC = 0xC3

#: Layout version, bumped on any schema change.
STRUCT_VERSION = 1


_NAN = float("nan")


class _Fallback(Exception):
    """Internal: value does not fit the fixed schema; use JSON."""


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
    """Fixed-layout binary serde for flat dicts, with JSON fallback.

    Parameters
    ----------
    fields:
        ``(key, struct_code, kind, vocab)`` tuples in wire order.
        ``kind`` is one of the ``FIELD_*`` constants; ``vocab`` is the
        value tuple for :data:`FIELD_ENUM` fields (index encoded as the
        struct code, normally ``"B"``), else ``None``.

    ``serialize`` falls back to compact JSON whenever the value is not
    a dict matching the schema (missing key, out-of-range int, unknown
    enum string); ``deserialize`` dispatches on the magic byte.  A
    topic encoded with this serde therefore interoperates with plain
    :class:`JsonSerde` producers and consumers in both directions.
    """

    def __init__(
        self,
        fields: Sequence[Tuple[str, str, str, Optional[tuple]]],
    ) -> None:
        self.fields = tuple(fields)
        self._struct = struct.Struct(
            "<BB" + "".join(code for _, code, _, _ in self.fields)
        )
        self._json = JsonSerde()
        self._encoders = []
        self._decoders = []
        #: enum field -> value -> wire index (shared with ``encode_batch``).
        self._enum_index = {}
        for key, _code, kind, vocab in self.fields:
            if kind == FIELD_ENUM:
                index = {value: i for i, value in enumerate(vocab)}
                self._enum_index[key] = index
                self._encoders.append(self._enum_encoder(key, index))
                self._decoders.append(self._enum_decoder(vocab))
            elif kind == FIELD_OPT_FLOAT:
                self._encoders.append(self._opt_float_encoder(key))
                self._decoders.append(self._opt_float_decoder())
            elif kind == FIELD_OPT_INT:
                self._encoders.append(self._opt_int_encoder(key))
                self._decoders.append(self._opt_int_decoder())
            elif kind == FIELD_PLAIN:
                self._encoders.append(self._plain_encoder(key))
                self._decoders.append(None)
            else:
                raise ValueError(f"unknown field kind: {kind!r}")

    # -- per-kind encoders/decoders (closures keep the hot loop tight)
    @staticmethod
    def _plain_encoder(key):
        def encode(value):
            return value[key]

        return encode

    @staticmethod
    def _enum_encoder(key, index):
        def encode(value):
            try:
                return index[value[key]]
            except KeyError:
                raise _Fallback from None

        return encode

    @staticmethod
    def _enum_decoder(vocab):
        def decode(raw):
            return vocab[raw]

        return decode

    @staticmethod
    def _opt_float_encoder(key):
        def encode(value):
            v = value.get(key)
            return float("nan") if v is None else v

        return encode

    @staticmethod
    def _opt_float_decoder():
        def decode(raw):
            return None if raw != raw else raw  # NaN check

        return decode

    @staticmethod
    def _opt_int_encoder(key):
        def encode(value):
            v = value.get(key)
            return -1 if v is None else v

        return encode

    @staticmethod
    def _opt_int_decoder():
        def decode(raw):
            return None if raw < 0 else raw

        return decode

    # ------------------------------------------------------------------
    @property
    def wire_size(self) -> int:
        """Bytes per struct-encoded record (fixed)."""
        return self._struct.size

    @property
    def dtype(self) -> np.dtype:
        """Numpy view of the wire layout, for vectorized batch decode."""
        return np.dtype(
            [("magic", "u1"), ("version", "u1")]
            + [(key, _NUMPY_CODES[code]) for key, code, _, _ in self.fields]
        )

    def decode_batch(self, payloads: Sequence[bytes]) -> np.ndarray:
        """Decode struct-encoded payloads into one structured array.

        One ``np.frombuffer`` over the concatenated fixed-size records —
        no per-record Python.  Enum/optional fields come back as their
        raw wire codes; callers that only need a column (e.g. sorting
        summaries by car id at a shard barrier) read it directly.
        Raises :class:`SerdeError` if any payload is not struct-encoded
        (mixed topics must fall back to :meth:`deserialize`).
        """
        size = self._struct.size
        if not all(
            len(p) == size and p[0] == STRUCT_MAGIC for p in payloads
        ):
            raise SerdeError("batch contains non-struct payloads")
        rows = np.frombuffer(b"".join(payloads), dtype=self.dtype)
        if rows.size and not (rows["version"] == STRUCT_VERSION).all():
            raise SerdeError("mixed/unsupported struct schema versions")
        return rows

    def encode_batch(self, columns: Mapping[str, Sequence]) -> Optional[bytes]:
        """Encode rows given as one equal-length column per field: the
        inverse of :meth:`decode_batch`.

        Returns the rows' struct frames joined in row order — byte for
        byte ``b"".join(serialize(row))`` — or ``None`` as soon as one
        row would take the JSON fallback (unknown enum string,
        out-of-range int, a column missing); the caller then serializes
        row by row.  Every row goes through the same ``struct.pack``
        as :meth:`serialize`, so which values fit is decided by one
        rule.
        """
        try:
            encoded = []
            for key, _code, kind, _vocab in self.fields:
                column = columns[key]
                if kind == FIELD_ENUM:
                    index = self._enum_index[key]
                    column = [index[value] for value in column]
                elif kind == FIELD_OPT_FLOAT:
                    column = [_NAN if v is None else v for v in column]
                elif kind == FIELD_OPT_INT:
                    column = [-1 if v is None else v for v in column]
                encoded.append(column)
            pack = self._struct.pack
            return b"".join(
                [pack(STRUCT_MAGIC, STRUCT_VERSION, *row) for row in zip(*encoded)]
            )
        except (KeyError, TypeError, struct.error):
            return None

    def serialize(self, value: Any) -> bytes:
        if isinstance(value, dict):
            try:
                return self._struct.pack(
                    STRUCT_MAGIC,
                    STRUCT_VERSION,
                    *[encode(value) for encode in self._encoders],
                )
            except (_Fallback, KeyError, TypeError, struct.error):
                pass
        return self._json.serialize(value)

    def deserialize(self, payload: bytes) -> Any:
        if not payload or payload[0] != STRUCT_MAGIC:
            return self._json.deserialize(payload)
        try:
            unpacked = self._struct.unpack(payload)
        except struct.error as exc:
            raise SerdeError(f"bad struct payload: {exc}") from exc
        if unpacked[1] != STRUCT_VERSION:
            raise SerdeError(
                f"unsupported struct schema version {unpacked[1]}"
            )
        out = {}
        for (key, _code, _kind, _vocab), decoder, raw in zip(
            self.fields, self._decoders, unpacked[2:]
        ):
            out[key] = decoder(raw) if decoder is not None else raw
        return out

