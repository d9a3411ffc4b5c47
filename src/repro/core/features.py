"""Feature encoding and the wire messages of the three topics.

Topic names follow the paper exactly: ``IN-DATA`` carries vehicle
telemetry, ``OUT-DATA`` carries abnormal-driving warnings, ``CO-DATA``
carries the prediction summaries RSUs exchange at handover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.schema import AnomalyKind, TelemetryRecord
from repro.geo.roadnet import RoadType

IN_DATA = "IN-DATA"
OUT_DATA = "OUT-DATA"
CO_DATA = "CO-DATA"

#: Stable numeric code per road type, for the centralized model's
#: RoadType feature.
ROAD_TYPE_CODE: Dict[RoadType, int] = {
    road_type: index for index, road_type in enumerate(RoadType)
}

#: Wire-value -> enum member lookup tables, so the per-record decode
#: path avoids the enum constructor's value scan.
_ROAD_TYPE_BY_VALUE: Dict[Any, RoadType] = {t.value: t for t in RoadType}
_ANOMALY_KIND_BY_VALUE: Dict[Any, AnomalyKind] = {k.value: k for k in AnomalyKind}


@lru_cache(maxsize=None)
def road_hour_context(road_type: RoadType, hour: int) -> Tuple[float, float]:
    """``(hour, road_type_code)`` feature context for one record.

    There are only ``len(RoadType) * 24`` distinct contexts, so the
    scalar fallback path memoizes them instead of recomputing the enum
    lookup and float conversions per record.
    """
    return (float(hour), float(ROAD_TYPE_CODE[road_type]))


def _feature_columns(records) -> tuple:
    """(speed, accel, hour, road_type_code) columns from either a
    :class:`~repro.core.block.TelemetryBlock` or a record sequence.

    This is the single source of the feature formulas: both the
    columnar hot path and the legacy record-list path flow through it,
    so they cannot drift apart.
    """
    from repro.core.block import TelemetryBlock

    if isinstance(records, TelemetryBlock):
        return (
            records.speed_kmh,
            records.accel_ms2,
            records.hour.astype(np.float64),
            records.road_type_code.astype(np.float64),
        )
    contexts = [road_hour_context(r.road_type, r.hour) for r in records]
    return (
        np.array([r.speed_kmh for r in records]),
        np.array([r.accel_ms2 for r in records]),
        np.array([hour for hour, _ in contexts]),
        np.array([code for _, code in contexts]),
    )


def base_features(records) -> np.ndarray:
    """[InstSpeed, accel, Hour] matrix — the per-road feature set.

    Accepts a record sequence or a
    :class:`~repro.core.block.TelemetryBlock` (columnar, no per-record
    work).
    """
    speed, accel, hour, _ = _feature_columns(records)
    if speed.size == 0:
        return np.empty((0, 3))
    return np.column_stack([speed, accel, hour])


def centralized_features(records, encoding: str = "ordinal") -> np.ndarray:
    """[InstSpeed, accel, Hour, RoadType...] — the city-scale set.

    Accepts a record sequence or a
    :class:`~repro.core.block.TelemetryBlock`.  ``encoding`` controls
    the RoadType column(s): ``"ordinal"`` (one integer code, the
    default) or ``"onehot"`` (one indicator per road type).  Both lose
    to the per-road models — the centralized gap is structural (shared
    per-class Gaussians straddle the road types' speed modes), not an
    encoding artefact; the detector tests pin this.
    """
    speed, accel, hour, code = _feature_columns(records)
    if encoding == "ordinal":
        if speed.size == 0:
            return np.empty((0, 4))
        return np.column_stack([speed, accel, hour, code])
    if encoding == "onehot":
        types = list(RoadType)
        if speed.size == 0:
            return np.empty((0, 3 + len(types)))
        indicators = (
            code[:, None] == np.arange(len(types), dtype=np.float64)
        ).astype(np.float64)
        return np.column_stack([speed, accel, hour, indicators])
    raise ValueError(f"unknown encoding: {encoding!r}")


def labels_of(records) -> np.ndarray:
    """Label vector; raises if any record is unlabelled.

    Accepts a record sequence or a
    :class:`~repro.core.block.TelemetryBlock` (whose unlabelled
    sentinel is -1).
    """
    from repro.core.block import NO_LABEL, TelemetryBlock

    if isinstance(records, TelemetryBlock):
        labels = records.label.astype(np.int64)
        missing = np.nonzero(labels == NO_LABEL)[0]
        if missing.size:
            first = int(missing[0])
            raise ValueError(
                f"record for car {int(records.car_id[first])} at "
                f"t={float(records.timestamp[first])} has no label; "
                f"run the Preprocessor first"
            )
        return labels
    labels = []
    for record in records:
        if record.label is None:
            raise ValueError(
                f"record for car {record.car_id} at t={record.timestamp} "
                f"has no label; run the Preprocessor first"
            )
        labels.append(record.label)
    return np.array(labels)


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
def record_to_payload(record: TelemetryRecord) -> Dict[str, Any]:
    """Serialize a telemetry record for ``IN-DATA``.

    The resulting compact JSON is ~200 bytes, matching the paper's
    packet-size assumption.
    """
    return {
        "car": record.car_id,
        "rd": record.road_id,
        "acc": round(record.accel_ms2, 3),
        "spd": round(record.speed_kmh, 2),
        "hr": record.hour,
        "day": record.day,
        "rt": record.road_type.value,
        "vr": round(record.road_mean_speed_kmh, 2),
        "ts": round(record.timestamp, 3),
        "ak": record.anomaly_kind.value,
        "lbl": record.label,
    }


def payload_to_record(payload: Dict[str, Any]) -> TelemetryRecord:
    """Inverse of :func:`record_to_payload`."""
    rt = payload["rt"]
    ak = payload.get("ak", "none")
    return TelemetryRecord(
        car_id=int(payload["car"]),
        road_id=int(payload["rd"]),
        accel_ms2=float(payload["acc"]),
        speed_kmh=float(payload["spd"]),
        hour=int(payload["hr"]),
        day=int(payload["day"]),
        road_type=_ROAD_TYPE_BY_VALUE.get(rt) or RoadType(rt),
        road_mean_speed_kmh=float(payload["vr"]),
        timestamp=float(payload["ts"]),
        anomaly_kind=_ANOMALY_KIND_BY_VALUE.get(ak) or AnomalyKind(ak),
        label=payload.get("lbl"),
    )


@dataclass(frozen=True)
class PredictionSummary:
    """The ``CO-DATA`` payload: one vehicle's detection history.

    ``mean_normal_prob`` is the average of the upstream RSU's Naive
    Bayes normal-class probabilities along the previous road — the
    P_prevs-bar of Eq. 1.
    """

    car_id: int
    mean_normal_prob: float
    n_predictions: int
    last_class: int
    from_road_id: int
    timestamp: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_normal_prob <= 1.0:
            raise ValueError(
                f"mean_normal_prob must be in [0, 1]: {self.mean_normal_prob}"
            )
        if self.n_predictions < 1:
            raise ValueError("a summary needs at least one prediction")

    def to_payload(self) -> Dict[str, Any]:
        return {
            "car": self.car_id,
            "p": round(self.mean_normal_prob, 6),
            "n": self.n_predictions,
            "cls": self.last_class,
            "rd": self.from_road_id,
            "ts": round(self.timestamp, 3),
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "PredictionSummary":
        return PredictionSummary(
            car_id=int(payload["car"]),
            mean_normal_prob=float(payload["p"]),
            n_predictions=int(payload["n"]),
            last_class=int(payload["cls"]),
            from_road_id=int(payload["rd"]),
            timestamp=float(payload["ts"]),
        )

    @staticmethod
    def merge(
        summaries: Sequence["PredictionSummary"],
    ) -> Optional["PredictionSummary"]:
        """Combine summaries for one car (multiple upstream roads)."""
        if not summaries:
            return None
        cars = {s.car_id for s in summaries}
        if len(cars) != 1:
            raise ValueError(f"cannot merge summaries of different cars: {cars}")
        total = sum(s.n_predictions for s in summaries)
        weighted = sum(s.mean_normal_prob * s.n_predictions for s in summaries)
        latest = max(summaries, key=lambda s: s.timestamp)
        return PredictionSummary(
            car_id=latest.car_id,
            mean_normal_prob=weighted / total,
            n_predictions=total,
            last_class=latest.last_class,
            from_road_id=latest.from_road_id,
            timestamp=latest.timestamp,
        )


@dataclass(frozen=True)
class WarningMessage:
    """The ``OUT-DATA`` payload: an abnormal-driving warning."""

    car_id: int
    road_id: int
    detected_at: float
    speed_kmh: float
    kind: str = "aggressive_driving"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "car": self.car_id,
            "rd": self.road_id,
            "t": round(self.detected_at, 6),
            "spd": round(self.speed_kmh, 2),
            "kind": self.kind,
        }

    @staticmethod
    def payload_columns(
        cars, roads, speeds, detected_at: float
    ) -> Dict[str, Any]:
        """:meth:`to_payload` of the warnings one detection instant
        raised, as one column per field.  Python's ``round`` value by
        value: ``np.round`` differs in the last ulp."""
        n = len(cars)
        return {
            "car": cars,
            "rd": roads,
            "t": [round(detected_at, 6)] * n,
            "spd": [round(speed, 2) for speed in speeds],
            "kind": [WarningMessage.kind] * n,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "WarningMessage":
        return WarningMessage(
            car_id=int(payload["car"]),
            road_id=int(payload["rd"]),
            detected_at=float(payload["t"]),
            speed_kmh=float(payload["spd"]),
            kind=str(payload.get("kind", "aggressive_driving")),
        )
