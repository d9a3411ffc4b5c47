"""Schema-aware fast serdes for the three CAD3 topics.

``JsonSerde`` stays the system default (the paper's ~200-byte JSON
packets), but every topic has a fixed Table II-shaped schema, so the
hot path can use fixed-layout binary packing instead:

- :class:`TelemetryStructSerde` — the ``IN-DATA`` envelope
  (``{"data": {Table II fields}, "generated_at", "arrived_at"}``),
  71 bytes on the wire vs ~170-200 for JSON, with a hand-written pack path
  and a **vectorized batch decoder** (:func:`decode_telemetry_block`)
  that turns a whole micro-batch of payloads into one
  :class:`~repro.dataset.schema.TelemetryBlock` via ``np.frombuffer`` —
  no per-record Python at all.
- :class:`warning_struct_serde` / :class:`summary_struct_serde` —
  ``OUT-DATA`` / ``CO-DATA`` built on the generic
  :class:`~repro.streaming.serde.FlatStructSerde`.

All three carry the JSON fallback from the serde layer: payloads not
starting with the struct magic byte deserialize as JSON, and values
that do not fit the schema serialize as JSON, so mixed-format topics
stay correct (the golden-equivalence tests run both formats).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import CO_DATA, IN_DATA, OUT_DATA, PAYLOAD_FIELDS
from repro.dataset.schema import (
    ANOMALY_KINDS,
    ANOMALY_KIND_INDEX,
    ROAD_TYPES,
    ROAD_TYPE_INDEX,
    TelemetryBlock,
)
from repro.streaming.serde import (
    FIELD_ENUM,
    FIELD_PLAIN,
    FlatStructSerde,
    JsonSerde,
    Serde,
    SerdeError,
    STRUCT_MAGIC,
    STRUCT_VERSION,
)

#: Known OUT-DATA warning kinds (uint8-coded on the wire).
WARNING_KINDS = ("aggressive_driving",)

_ROAD_TYPE_VALUES = tuple(t.value for t in ROAD_TYPES)
_ANOMALY_VALUES = tuple(k.value for k in ANOMALY_KINDS)


class TelemetryStructSerde(Serde):
    """Fixed-layout binary serde for the IN-DATA telemetry envelope.

    Wire layout (little-endian, packed, 71 bytes)::

        magic u8 | version u8 | car i64 | rd i64 | acc f64 | spd f64 |
        hr u8 | day u8 | rt u8 | vr f64 | ts f64 | ak u8 | lbl i8 |
        generated_at f64 | arrived_at f64

    ``rt`` / ``ak`` index the :class:`~repro.geo.roadnet.RoadType` /
    :class:`~repro.dataset.schema.AnomalyKind` declaration order;
    ``lbl`` uses -1 for ``None``; ``arrived_at`` uses NaN for ``None``
    (the pre-delivery envelope).  Anything that does not fit — unknown
    road type, out-of-range int, extra or missing keys — serializes as
    JSON instead, and payloads without the magic byte deserialize as
    JSON, so this serde is a strict superset of :class:`JsonSerde` on
    this topic.
    """

    _STRUCT = struct.Struct("<BBqqddBBBddBbdd")

    #: Numpy view of the same layout, for the batch decoder.
    DTYPE = np.dtype(
        [
            ("magic", "u1"),
            ("version", "u1"),
            ("car", "<i8"),
            ("rd", "<i8"),
            ("acc", "<f8"),
            ("spd", "<f8"),
            ("hr", "u1"),
            ("day", "u1"),
            ("rt", "u1"),
            ("vr", "<f8"),
            ("ts", "<f8"),
            ("ak", "u1"),
            ("lbl", "i1"),
            ("gen", "<f8"),
            ("arr", "<f8"),
        ]
    )

    def __init__(self) -> None:
        self._json = JsonSerde()
        assert self._STRUCT.size == self.DTYPE.itemsize

    @property
    def wire_size(self) -> int:
        return self._STRUCT.size

    def serialize(self, value: Any) -> bytes:
        try:
            data = value["data"]
            if len(data) != 11 or len(value) != 3:
                return self._json.serialize(value)
            label = data["lbl"]
            arrived = value["arrived_at"]
            return self._STRUCT.pack(
                STRUCT_MAGIC,
                STRUCT_VERSION,
                data["car"],
                data["rd"],
                data["acc"],
                data["spd"],
                data["hr"],
                data["day"],
                ROAD_TYPE_INDEX[data["rt"]],
                data["vr"],
                data["ts"],
                ANOMALY_KIND_INDEX[data["ak"]],
                -1 if label is None else label,
                value["generated_at"],
                float("nan") if arrived is None else arrived,
            )
        except (KeyError, TypeError, IndexError, struct.error):
            return self._json.serialize(value)

    def encode_templates(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each payload's pre-delivery envelope (``generated_at`` 0.0,
        ``arrived_at`` None) as one row of an ``(n, wire_size)`` uint8
        matrix, and a mask of the rows :meth:`serialize` struct-encodes.
        A masked-out row is zeros: its envelope serializes as JSON.

        The payloads as columns through :meth:`encode_columns` when each
        has exactly the Table II keys; otherwise row by row.
        """
        if not set(map(len, payloads)) - {len(PAYLOAD_FIELDS)}:
            try:
                return self.encode_columns(
                    {
                        key: list(map(itemgetter(key), payloads))
                        for key, _, _ in PAYLOAD_FIELDS
                    }
                )
            except KeyError:
                pass
        return self._encode_rows(payloads)

    def encode_columns(
        self, columns: Dict[str, Sequence[Any]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`encode_templates` of payloads given as one column per
        key (:func:`~repro.core.features.payload_columns`): one pack
        over the columns when every row fits the layout; otherwise each
        row is decided by :meth:`serialize` itself, so both follow one
        rule."""
        try:
            nan = float("nan")
            joined = b"".join(
                map(
                    self._STRUCT.pack,
                    repeat(STRUCT_MAGIC), repeat(STRUCT_VERSION),
                    columns["car"], columns["rd"], columns["acc"],
                    columns["spd"], columns["hr"], columns["day"],
                    map(ROAD_TYPE_INDEX.__getitem__, columns["rt"]),
                    columns["vr"], columns["ts"],
                    map(ANOMALY_KIND_INDEX.__getitem__, columns["ak"]),
                    [-1 if label is None else label for label in columns["lbl"]],
                    repeat(0.0), repeat(nan),
                )
            )
            rows = np.frombuffer(joined, dtype=np.uint8).reshape(-1, self.wire_size)
            return rows.copy(), np.ones(len(rows), dtype=bool)
        except (KeyError, TypeError, IndexError, struct.error):
            pass
        return self._encode_rows(
            [dict(zip(columns, row)) for row in zip(*columns.values())]
        )

    def _encode_rows(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        size = self.wire_size
        rows = np.zeros((len(payloads), size), dtype=np.uint8)
        mask = np.zeros(len(payloads), dtype=bool)
        for row, payload in enumerate(payloads):
            frame = self.serialize(
                {"data": payload, "generated_at": 0.0, "arrived_at": None}
            )
            if len(frame) == size and frame[0] == STRUCT_MAGIC:
                rows[row] = np.frombuffer(frame, dtype=np.uint8)
                mask[row] = True
        return rows, mask

    def deserialize(self, payload: bytes) -> Any:
        if not payload or payload[0] != STRUCT_MAGIC:
            return self._json.deserialize(payload)
        try:
            (
                _magic, version, car, rd, acc, spd, hr, day, rt, vr, ts,
                ak, lbl, gen, arr,
            ) = self._STRUCT.unpack(payload)
        except struct.error as exc:
            raise SerdeError(f"bad telemetry struct payload: {exc}") from exc
        if version != STRUCT_VERSION:
            raise SerdeError(f"unsupported telemetry schema version {version}")
        try:
            rt_value = _ROAD_TYPE_VALUES[rt]
            ak_value = _ANOMALY_VALUES[ak]
        except IndexError as exc:
            raise SerdeError(f"bad enum code in telemetry payload: {exc}") from exc
        return {
            "data": {
                "car": car,
                "rd": rd,
                "acc": acc,
                "spd": spd,
                "hr": hr,
                "day": day,
                "rt": rt_value,
                "vr": vr,
                "ts": ts,
                "ak": ak_value,
                "lbl": None if lbl < 0 else lbl,
            },
            "generated_at": gen,
            "arrived_at": None if arr != arr else arr,
        }


def warning_struct_serde() -> FlatStructSerde:
    """OUT-DATA warning schema (car, rd, t, spd, kind, generated_at)."""
    return FlatStructSerde(
        [
            ("car", "q", FIELD_PLAIN, None),
            ("rd", "q", FIELD_PLAIN, None),
            ("t", "d", FIELD_PLAIN, None),
            ("spd", "d", FIELD_PLAIN, None),
            ("kind", "B", FIELD_ENUM, WARNING_KINDS),
            ("generated_at", "d", FIELD_PLAIN, None),
        ]
    )


def summary_struct_serde() -> FlatStructSerde:
    """CO-DATA prediction-summary schema (car, p, n, cls, rd, ts)."""
    return FlatStructSerde(
        [
            ("car", "q", FIELD_PLAIN, None),
            ("p", "d", FIELD_PLAIN, None),
            ("n", "q", FIELD_PLAIN, None),
            ("cls", "b", FIELD_PLAIN, None),
            ("rd", "q", FIELD_PLAIN, None),
            ("ts", "d", FIELD_PLAIN, None),
        ]
    )


#: Serde profiles selectable per scenario.  ``"json"`` is the paper's
#: wire format (and the fallback everywhere); ``"struct"`` swaps every
#: topic to its fixed-layout schema.
SERDE_PROFILES = ("json", "struct")


def topic_serdes(profile: str = "json") -> Dict[str, Serde]:
    """Per-topic serde registry for one profile.

    An empty mapping means "JsonSerde everywhere" (the default the
    nodes fall back to for unlisted topics).
    """
    if profile == "json":
        return {}
    if profile == "struct":
        return {
            IN_DATA: TelemetryStructSerde(),
            OUT_DATA: warning_struct_serde(),
            CO_DATA: summary_struct_serde(),
        }
    raise ValueError(
        f"unknown serde profile {profile!r}; expected one of {SERDE_PROFILES}"
    )


def decode_telemetry_block(
    raw_values: Sequence[bytes], serde: Optional[Serde] = None
) -> TelemetryBlock:
    """Decode one micro-batch of raw IN-DATA payloads into a block.

    When every payload is struct-encoded this is fully vectorized: the
    fixed-size records are joined and reinterpreted through
    :attr:`TelemetryStructSerde.DTYPE` in one ``np.frombuffer`` — zero
    per-record Python work.  Otherwise (JSON payloads, or a mixed
    topic) each payload goes through ``serde.deserialize`` and the
    block is assembled from the resulting envelope dicts.
    """
    if not raw_values:
        return TelemetryBlock.empty()
    size = TelemetryStructSerde.DTYPE.itemsize
    if all(
        len(value) == size and value[0] == STRUCT_MAGIC
        for value in raw_values
    ):
        rows = np.frombuffer(b"".join(raw_values), dtype=TelemetryStructSerde.DTYPE)
        return _telemetry_block_from_rows(rows)
    serde = serde or JsonSerde()
    payloads: List[Dict[str, Any]] = [
        serde.deserialize(value) for value in raw_values
    ]
    return TelemetryBlock.from_payloads(payloads)


def _telemetry_block_from_rows(rows: np.ndarray) -> TelemetryBlock:
    """Structured wire rows -> TelemetryBlock (every field copied out,
    so the block owns its storage even when ``rows`` views a borrowed
    buffer)."""
    if not (rows["version"] == STRUCT_VERSION).all():
        raise SerdeError("mixed/unsupported telemetry schema versions")
    return TelemetryBlock(
        car_id=rows["car"].astype(np.int64),
        road_id=rows["rd"].astype(np.int64),
        accel_ms2=rows["acc"].astype(np.float64),
        speed_kmh=rows["spd"].astype(np.float64),
        hour=rows["hr"].astype(np.int64),
        day=rows["day"].astype(np.int64),
        road_type_code=rows["rt"].astype(np.int64),
        road_mean_speed_kmh=rows["vr"].astype(np.float64),
        timestamp=rows["ts"].astype(np.float64),
        anomaly_kind_code=rows["ak"].astype(np.int64),
        label=rows["lbl"].astype(np.int8),
        generated_at=rows["gen"].astype(np.float64),
        arrived_at=rows["arr"].astype(np.float64),
    )


def decode_telemetry_segments(segments, serde: Optional[Serde] = None) -> TelemetryBlock:
    """Decode a block fetch's :class:`BlockSegment` slabs into a block.

    Uniform struct segments decode with one zero-copy ``np.frombuffer``
    per partition slab — record bytes flow from the broker log into the
    block's arrays without ever materializing per-record objects.  Any
    non-uniform segment (mixed JSON fallback payloads) drops the whole
    batch to the per-record decode, preserving record order.
    """
    if not segments:
        return TelemetryBlock.empty()
    size = TelemetryStructSerde.DTYPE.itemsize
    if all(
        segment.is_uniform and segment.record_size == size
        for segment in segments
    ):
        # One frombuffer over the joined slab bytes: concatenating
        # structured *arrays* would re-promote the field dtype per
        # input (numpy's common-type resolution), which dominates at
        # micro-batch sizes.
        data = (
            segments[0].data
            if len(segments) == 1
            else b"".join(segment.data for segment in segments)
        )
        rows = np.frombuffer(data, dtype=TelemetryStructSerde.DTYPE)
        return _telemetry_block_from_rows(rows)
    values: List[bytes] = []
    for segment in segments:
        values.extend(segment.value_list())
    return decode_telemetry_block(values, serde=serde)


# ----------------------------------------------------------------------
# CO-DATA summary frames: delta encoding for the collaboration plane
# ----------------------------------------------------------------------
#: Magic byte of a framed CO-DATA summary (full resync or delta).
#: Distinct from :data:`~repro.streaming.serde.STRUCT_MAGIC`, so framed
#: and legacy raw payloads coexist on one topic.
SUMMARY_FRAME_MAGIC = 0xC4
SUMMARY_FRAME_VERSION = 1
#: Frame kinds: a full resync carries the topic serde's complete
#: payload; a delta carries only the fields that changed since the
#: sender's last frame for the same ``(receiver, car)`` stream.
SUMMARY_FULL = 0
SUMMARY_DELTA = 1

_FRAME_HEAD = struct.Struct("<BBBB")  # magic, version, kind, epoch
_FRAME_CAR = struct.Struct("<q")

#: Quantization units shared by both codec ends: ``p`` in 1e-6 steps
#: and ``ts`` in milliseconds — exactly the rounding
#: :meth:`~repro.core.features.PredictionSummary.to_payload` applies,
#: so integer-unit deltas reconstruct the full-frame floats bit for bit.
P_UNIT = 1e-6
TS_UNIT = 1e-3

#: Changed-field bitmap bits, in wire order.
_BIT_P = 1
_BIT_N = 2
_BIT_CLS = 4
_BIT_RD = 8
_BIT_TS = 16


def quantize_summary(payload: Dict[str, Any]) -> Tuple[int, int, int, int, int, int]:
    """A summary payload as integer units:
    ``(car, p_units, n, cls, rd, ts_units)``."""
    return (
        int(payload["car"]),
        int(round(float(payload["p"]) / P_UNIT)),
        int(payload["n"]),
        int(payload["cls"]),
        int(payload["rd"]),
        int(round(float(payload["ts"]) / TS_UNIT)),
    )


def summary_payload_from_units(
    units: Tuple[int, int, int, int, int, int]
) -> Dict[str, Any]:
    """Integer units back to the canonical payload dict.  ``round``
    re-applies the :meth:`to_payload` decimal rounding, so the result
    is byte-identical to what a full resync would have carried."""
    car, p_units, n, cls, rd, ts_units = units
    return {
        "car": car,
        "p": round(p_units * P_UNIT, 6),
        "n": n,
        "cls": cls,
        "rd": rd,
        "ts": round(ts_units * TS_UNIT, 3),
    }


def apply_summary_delta(
    base: Tuple[int, int, int, int, int, int],
    deltas: Tuple[Optional[int], ...],
) -> Tuple[int, int, int, int, int, int]:
    """Apply a decoded delta tuple to a baseline's integer units."""
    car, p_units, n, cls, rd, ts_units = base
    dp, dn, dcls, drd, dts = deltas
    return (
        car,
        p_units + dp if dp is not None else p_units,
        n + dn if dn is not None else n,
        cls + dcls if dcls is not None else cls,
        rd + drd if drd is not None else rd,
        ts_units + dts if dts is not None else ts_units,
    )


def _append_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _append_svarint(out: bytearray, value: int) -> None:
    # ZigZag: small magnitudes of either sign stay short on the wire.
    # Sign-aware, so a delta past the 64-bit range maps as well.
    _append_uvarint(out, value << 1 if value >= 0 else (-value << 1) - 1)


def _read_uvarint(buf: bytes, at: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        try:
            byte = buf[at]
        except IndexError as exc:
            raise SerdeError("truncated summary delta varint") from exc
        at += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, at
        shift += 7


def _read_svarint(buf: bytes, at: int) -> Tuple[int, int]:
    unsigned, at = _read_uvarint(buf, at)
    return (unsigned >> 1) ^ -(unsigned & 1), at


@dataclass(frozen=True)
class SummaryFrame:
    """A decoded CO-DATA summary frame.

    Full frames carry the inner serde's payload in ``body``; delta
    frames carry the car id and a 5-tuple of per-field integer deltas
    (``None`` = unchanged), to be resolved against the receiver's
    baseline cache.
    """

    kind: int
    epoch: int
    car: Optional[int] = None
    body: bytes = b""
    deltas: Tuple[Optional[int], ...] = ()


def encode_summary_full(body: bytes, epoch: int) -> bytes:
    """Frame a serde-serialized summary payload as a full resync."""
    return (
        _FRAME_HEAD.pack(
            SUMMARY_FRAME_MAGIC, SUMMARY_FRAME_VERSION, SUMMARY_FULL, epoch
        )
        + body
    )


def encode_summary_delta(
    epoch: int,
    base: Tuple[int, int, int, int, int, int],
    new: Tuple[int, int, int, int, int, int],
) -> bytes:
    """Encode the changed fields between two integer-unit baselines.

    Layout: header (4) | car i64 | changed-field bitmap u8 | one
    ZigZag varint per set bit, in bitmap order.  A fully unchanged
    summary is 13 bytes; a typical refresh (p, n, ts moved) is ~18 —
    versus the 47-byte struct or ~100-byte JSON full frame.
    """
    if base[0] != new[0]:
        raise ValueError(
            f"delta across different cars: {base[0]} vs {new[0]}"
        )
    out = bytearray(
        _FRAME_HEAD.pack(
            SUMMARY_FRAME_MAGIC, SUMMARY_FRAME_VERSION, SUMMARY_DELTA, epoch
        )
    )
    out += _FRAME_CAR.pack(new[0])
    bitmap = 0
    fields = bytearray()
    for bit, index in (
        (_BIT_P, 1),
        (_BIT_N, 2),
        (_BIT_CLS, 3),
        (_BIT_RD, 4),
        (_BIT_TS, 5),
    ):
        if new[index] != base[index]:
            bitmap |= bit
            _append_svarint(fields, new[index] - base[index])
    out.append(bitmap)
    out += fields
    return bytes(out)


def decode_summary_frame(payload: bytes) -> SummaryFrame:
    """Decode a framed summary payload (raises on malformed frames)."""
    try:
        magic, version, kind, epoch = _FRAME_HEAD.unpack_from(payload, 0)
    except struct.error as exc:
        raise SerdeError(f"truncated summary frame: {exc}") from exc
    if magic != SUMMARY_FRAME_MAGIC:
        raise SerdeError(f"bad summary frame magic {magic:#x}")
    if version != SUMMARY_FRAME_VERSION:
        raise SerdeError(f"unsupported summary frame version {version}")
    if kind == SUMMARY_FULL:
        return SummaryFrame(
            kind=kind, epoch=epoch, body=bytes(payload[_FRAME_HEAD.size :])
        )
    if kind != SUMMARY_DELTA:
        raise SerdeError(f"unknown summary frame kind {kind}")
    try:
        (car,) = _FRAME_CAR.unpack_from(payload, _FRAME_HEAD.size)
    except struct.error as exc:
        raise SerdeError(f"truncated summary delta: {exc}") from exc
    at = _FRAME_HEAD.size + _FRAME_CAR.size
    try:
        bitmap = payload[at]
    except IndexError as exc:
        raise SerdeError("truncated summary delta bitmap") from exc
    at += 1
    deltas: List[Optional[int]] = []
    for bit in (_BIT_P, _BIT_N, _BIT_CLS, _BIT_RD, _BIT_TS):
        if bitmap & bit:
            value, at = _read_svarint(payload, at)
            deltas.append(value)
        else:
            deltas.append(None)
    return SummaryFrame(kind=kind, epoch=epoch, car=car, deltas=tuple(deltas))


class SummaryFrameSerde(Serde):
    """CO-DATA serde for the collaboration plane.

    The sender-side plane hands pre-framed bytes through untouched;
    everything else delegates to the topic's configured serde.  On
    deserialize, framed payloads come back as :class:`SummaryFrame`
    markers (the RSU resolves them against its receiver baseline
    cache); raw payloads — legacy handover summaries, or gating-only
    configurations that skip framing — fall through to the inner serde.
    """

    def __init__(self, inner: Serde) -> None:
        self.inner = inner

    def serialize(self, value: Any) -> bytes:
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes(value)
        return self.inner.serialize(value)

    def deserialize(self, payload: bytes) -> Any:
        if payload and payload[0] == SUMMARY_FRAME_MAGIC:
            return decode_summary_frame(payload)
        return self.inner.deserialize(payload)


def summary_frame_car(payload: bytes, serde: Serde) -> int:
    """The car id behind one CO-DATA payload, framed or raw.

    Delta frames carry the id at a fixed offset; full frames
    deserialize their body with the topic serde; unframed payloads go
    straight through the serde — the shard barrier uses this to order
    cross-shard summaries without caring which wire form they took.
    """
    if payload and payload[0] == SUMMARY_FRAME_MAGIC:
        frame = decode_summary_frame(payload)
        if frame.car is not None:
            return frame.car
        return int(serde.deserialize(frame.body)["car"])
    return int(serde.deserialize(payload)["car"])
