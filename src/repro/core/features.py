"""Feature encoding and the wire messages of the three topics.

Topic names follow the paper exactly: ``IN-DATA`` carries vehicle
telemetry, ``OUT-DATA`` carries abnormal-driving warnings, ``CO-DATA``
carries the prediction summaries RSUs exchange at handover.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.schema import (
    NO_LABEL,
    TelemetryBlock,
    TelemetryRecord,
)
from repro.geo.roadnet import RoadType

IN_DATA = "IN-DATA"
OUT_DATA = "OUT-DATA"
CO_DATA = "CO-DATA"

#: Stable numeric code per road type, for the centralized model's
#: RoadType feature.
ROAD_TYPE_CODE: Dict[RoadType, int] = {
    road_type: index for index, road_type in enumerate(RoadType)
}


def _feature_columns(block: TelemetryBlock) -> tuple:
    """(speed, accel, hour, road_type_code) columns of ``block``.

    This is the single source of the feature formulas: the RSU's
    micro-batches and offline training and evaluation all flow through
    it, so they cannot drift apart.
    """
    return (
        block.speed_kmh,
        block.accel_ms2,
        block.hour.astype(np.float64),
        block.road_type_code.astype(np.float64),
    )


def base_features(block: TelemetryBlock) -> np.ndarray:
    """[InstSpeed, accel, Hour] matrix — the per-road (AD3) feature set."""
    speed, accel, hour, _ = _feature_columns(block)
    if speed.size == 0:
        return np.empty((0, 3))
    return np.column_stack([speed, accel, hour])


def centralized_features(
    block: TelemetryBlock, encoding: str = "ordinal"
) -> np.ndarray:
    """[InstSpeed, accel, Hour, RoadType...] — the city-scale set.

    ``encoding`` controls the RoadType column(s): ``"ordinal"`` (one
    integer code, the default) or ``"onehot"`` (one indicator per road
    type).  Both lose to the per-road models — the centralized gap is
    structural (shared per-class Gaussians straddle the road types'
    speed modes), not an encoding artefact; the detector tests pin
    this.
    """
    speed, accel, hour, code = _feature_columns(block)
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


def labels_of(block: TelemetryBlock) -> np.ndarray:
    """Label vector; raises if any row is unlabelled (the
    :data:`~repro.dataset.schema.NO_LABEL` sentinel)."""
    labels = block.label.astype(np.int64)
    missing = np.nonzero(labels == NO_LABEL)[0]
    if missing.size:
        first = int(missing[0])
        raise ValueError(
            f"record for car {int(block.car_id[first])} at "
            f"t={float(block.timestamp[first])} has no label; "
            f"run the Preprocessor first"
        )
    return labels


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
#: The ``IN-DATA`` payload, key by key: the record attribute it carries
#: (an enum's by its ``_value_``) and the decimals it is rounded to
#: (``None``: as is).
PAYLOAD_FIELDS: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("car", "car_id", None),
    ("rd", "road_id", None),
    ("acc", "accel_ms2", 3),
    ("spd", "speed_kmh", 2),
    ("hr", "hour", None),
    ("day", "day", None),
    ("rt", "road_type._value_", None),
    ("vr", "road_mean_speed_kmh", 2),
    ("ts", "timestamp", 3),
    ("ak", "anomaly_kind._value_", None),
    ("lbl", "label", None),
)


def _payload_columns(fields: Mapping[str, Sequence]) -> Dict[str, list]:
    """The ``IN-DATA`` payload columns of record fields given as one
    sequence of Python values per field.  Python's ``round`` value by
    value: ``np.round`` differs in the last ulp."""
    columns: Dict[str, list] = {}
    for key, attribute, digits in PAYLOAD_FIELDS:
        name, _, member = attribute.partition(".")
        values = fields[name]
        if member:
            values = map(attrgetter(member), values)
        if digits is not None:
            values = map(round, values, repeat(digits))
        columns[key] = list(values)
    return columns


def payload_columns(block: TelemetryBlock) -> Dict[str, list]:
    """:func:`record_to_payload` of every row of ``block``, as one
    column per key, from the block's columns."""
    return _payload_columns(block.fields())


def record_to_payload(record: TelemetryRecord) -> Dict[str, Any]:
    """Serialize a telemetry record for ``IN-DATA``.

    The resulting compact JSON is ~200 bytes, matching the paper's
    packet-size assumption.  One row of :func:`payload_columns`.
    """
    fields = {name: (value,) for name, value in vars(record).items()}
    return {key: column[0] for key, column in _payload_columns(fields).items()}


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
