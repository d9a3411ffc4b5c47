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

from typing import Dict, Sequence

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
