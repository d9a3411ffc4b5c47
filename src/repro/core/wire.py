"""The wire schemas of the three CAD3 topics.

Each topic has one serde per profile (:func:`topic_serdes`): the
paper's compact JSON (``"json"``), or a fixed Table II-shaped binary
layout on :class:`~repro.streaming.serde.FlatStructSerde`
(``"struct"``):

- :func:`telemetry_struct_serde` — ``IN-DATA``: the Table II fields
  and the two timestamps, 71 bytes on the wire vs ~170-200 for the
  JSON envelope (``{"data": {Table II fields}, "generated_at",
  "arrived_at"}``).  :func:`decode_telemetry_block` turns a whole
  micro-batch of them into one
  :class:`~repro.dataset.schema.TelemetryBlock` via ``np.frombuffer``
  — no per-record Python at all.
- :func:`warning_struct_serde` / :func:`summary_struct_serde` —
  ``OUT-DATA`` / ``CO-DATA``.

A topic carries its serde's format only: a struct serde raises
:class:`~repro.streaming.serde.SerdeError` on a value its layout cannot
hold and on a payload that is not a struct record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import CO_DATA, IN_DATA, OUT_DATA
from repro.dataset.schema import ANOMALY_KINDS, ROAD_TYPES, TelemetryBlock
from repro.streaming.serde import (
    FIELD_ENUM,
    FIELD_OPT_FLOAT,
    FIELD_OPT_INT,
    FIELD_PLAIN,
    FlatStructSerde,
    JsonSerde,
    Serde,
    SerdeError,
)

#: Known OUT-DATA warning kinds (uint8-coded on the wire).
WARNING_KINDS = ("aggressive_driving",)


def telemetry_struct_serde() -> FlatStructSerde:
    """IN-DATA telemetry schema: the Table II fields, ``gen``
    (``generated_at``) and ``arr`` (``arrived_at``, unset until the
    frame is delivered).  ``rt`` / ``ak`` index the
    :class:`~repro.geo.roadnet.RoadType` /
    :class:`~repro.dataset.schema.AnomalyKind` declaration order."""
    return FlatStructSerde(
        [
            ("car", "q", FIELD_PLAIN, None),
            ("rd", "q", FIELD_PLAIN, None),
            ("acc", "d", FIELD_PLAIN, None),
            ("spd", "d", FIELD_PLAIN, None),
            ("hr", "B", FIELD_PLAIN, None),
            ("day", "B", FIELD_PLAIN, None),
            ("rt", "B", FIELD_ENUM, tuple(t.value for t in ROAD_TYPES)),
            ("vr", "d", FIELD_PLAIN, None),
            ("ts", "d", FIELD_PLAIN, None),
            ("ak", "B", FIELD_ENUM, tuple(k.value for k in ANOMALY_KINDS)),
            ("lbl", "b", FIELD_OPT_INT, None),
            ("gen", "d", FIELD_PLAIN, None),
            ("arr", "d", FIELD_OPT_FLOAT, None),
        ]
    )


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


#: Serde profiles selectable per scenario: ``"json"`` is the paper's
#: wire format; ``"struct"`` swaps every topic to its fixed-layout
#: schema.
SERDE_PROFILES = ("json", "struct")


def topic_serdes(profile: str = "json") -> Dict[str, Serde]:
    """The serde of each of the three topics under one profile."""
    if profile == "json":
        return {IN_DATA: JsonSerde(), OUT_DATA: JsonSerde(), CO_DATA: JsonSerde()}
    if profile == "struct":
        return {
            IN_DATA: telemetry_struct_serde(),
            OUT_DATA: warning_struct_serde(),
            CO_DATA: summary_struct_serde(),
        }
    raise ValueError(
        f"unknown serde profile {profile!r}; expected one of {SERDE_PROFILES}"
    )


def decode_telemetry_block(raw_values: Sequence[bytes], serde: Serde) -> TelemetryBlock:
    """Decode one micro-batch of raw IN-DATA payloads into a block.

    Under a struct serde this is fully vectorized: the fixed-size
    records are joined and reinterpreted through the layout's ``dtype``
    in one ``np.frombuffer`` — zero per-record Python work.  JSON
    payloads go through ``serde.deserialize`` one by one, and the block
    is assembled from the resulting envelope dicts.
    """
    if serde.wire_size is None:
        return TelemetryBlock.from_payloads(
            [serde.deserialize(value) for value in raw_values]
        )
    return _telemetry_block_from_rows(serde.decode_batch(raw_values))


def _telemetry_block_from_rows(rows: np.ndarray) -> TelemetryBlock:
    """Structured wire rows -> TelemetryBlock (every field copied out,
    so the block owns its storage even when ``rows`` views a borrowed
    buffer)."""
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


def decode_telemetry_segments(segments, serde: Serde) -> TelemetryBlock:
    """Decode a block fetch's :class:`BlockSegment` slabs into a block.

    Under a struct serde every partition keeps its slab, and the
    segments decode with one zero-copy ``np.frombuffer`` over their
    joined bytes — record bytes flow from the broker log into the
    block's arrays without ever materializing per-record objects.
    JSON payloads decode one by one, in record order.
    """
    if not segments:
        return TelemetryBlock.empty()
    if serde.wire_size is None:
        return decode_telemetry_block(
            [value for segment in segments for value in segment.value_list()], serde
        )
    # One frombuffer over the joined slab bytes: concatenating
    # structured *arrays* would re-promote the field dtype per input
    # (numpy's common-type resolution), which dominates at micro-batch
    # sizes.
    data = [
        segment.data if segment.is_uniform else b"".join(segment.value_list())
        for segment in segments
    ]
    return _telemetry_block_from_rows(
        serde.decode_rows(data[0] if len(data) == 1 else b"".join(data))
    )


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
