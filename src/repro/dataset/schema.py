"""Record types for the driving dataset.

:class:`TelemetryRecord` is one of the paper's Table II rows (the
preprocessed feature rows fed to the detectors), and
:class:`TelemetryBlock` is the same rows as columns — the form the
dataset and every micro-batch are kept in:

    CarID | RdID | accel | Speed | Hour | Day | RdType | v_r_bar

plus the offline sigma-cutoff label (``class``: 1 = normal,
0 = abnormal) used for training and evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.geo.roadnet import RoadType

#: Class labels, following the paper's convention (Sec. IV-B).
NORMAL = 1
ABNORMAL = 0


class AnomalyKind(enum.Enum):
    """Ground-truth anomaly categories the paper targets."""

    NONE = "none"
    SPEEDING = "speeding"
    SLOWING = "slowing"
    SUDDEN_ACCELERATION = "sudden_acceleration"


@dataclass(frozen=True)
class TelemetryRecord:
    """One preprocessed feature row (Table II).

    Attributes
    ----------
    car_id, road_id:
        Identity and map-matched road context.
    accel_ms2:
        Instantaneous acceleration, m/s^2.
    speed_kmh:
        Instantaneous speed, km/h (Eq. 4).
    hour:
        Hour of day, 0-23.
    day:
        Day of month, 1-31 (July 2016 in the paper).
    road_type:
        Map-matched OSM class.
    road_mean_speed_kmh:
        The road's normal speed ``v_r_bar``.
    label:
        Offline sigma-cutoff class: 1 normal, 0 abnormal.  ``None`` for
        unlabelled (online) records.
    anomaly_kind:
        Ground-truth anomaly category (synthetic data only; the paper's
        pipeline does not observe this).
    timestamp:
        Seconds since dataset epoch; orders records within a trip.
    trip_id:
        Identifier of the generating trip (synthetic provenance; used
        for leakage-free per-trip splits, not by the detectors).
    """

    car_id: int
    road_id: int
    accel_ms2: float
    speed_kmh: float
    hour: int
    day: int
    road_type: RoadType
    road_mean_speed_kmh: float
    label: Optional[int] = None
    anomaly_kind: AnomalyKind = AnomalyKind.NONE
    timestamp: float = 0.0
    trip_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.hour <= 23:
            raise ValueError(f"hour out of range: {self.hour}")
        if not 1 <= self.day <= 31:
            raise ValueError(f"day out of range: {self.day}")
        if self.speed_kmh < 0:
            raise ValueError(f"speed must be non-negative: {self.speed_kmh}")
        if self.label is not None and self.label not in (NORMAL, ABNORMAL):
            raise ValueError(f"label must be 0/1/None: {self.label}")

    @property
    def is_weekend(self) -> bool:
        return is_weekend(self.day)

    def with_label(self, label: int) -> "TelemetryRecord":
        """A copy of this record with ``label`` set."""
        return TelemetryRecord(
            car_id=self.car_id,
            road_id=self.road_id,
            accel_ms2=self.accel_ms2,
            speed_kmh=self.speed_kmh,
            hour=self.hour,
            day=self.day,
            road_type=self.road_type,
            road_mean_speed_kmh=self.road_mean_speed_kmh,
            label=label,
            anomaly_kind=self.anomaly_kind,
            timestamp=self.timestamp,
            trip_id=self.trip_id,
        )


def is_weekend(day: int) -> bool:
    """July 2016: the 1st was a Friday, so days 2,3,9,10,... are
    weekend days."""
    day_of_week = (day + 3) % 7  # 0=Monday ... 6=Sunday
    return day_of_week >= 5


#: Stable numeric code per road type (enum declaration order).  The
#: same codes feed the centralized model's RoadType feature.
ROAD_TYPES: tuple = tuple(RoadType)
ROAD_TYPE_INDEX: Dict[str, int] = {
    road_type.value: index for index, road_type in enumerate(ROAD_TYPES)
}

#: Stable numeric code per anomaly kind.
ANOMALY_KINDS: tuple = tuple(AnomalyKind)
ANOMALY_KIND_INDEX: Dict[str, int] = {
    kind.value: index for index, kind in enumerate(ANOMALY_KINDS)
}

#: Sentinel for "unlabelled" in the int8 label column.
NO_LABEL = -1


class TelemetryBlock:
    """Table II rows as a struct of numpy arrays: the column form of
    :class:`TelemetryRecord`.

    The dataset is one block (plus each row's trip id) from generation
    to replay pool, and each RSU micro-batch is one.  Columns mirror
    Table II plus the streaming envelope timestamps.
    ``road_type_code`` / ``anomaly_kind_code`` index :data:`ROAD_TYPES`
    / :data:`ANOMALY_KINDS`; ``label`` uses :data:`NO_LABEL` (-1) for
    unlabelled records.  ``generated_at`` / ``arrived_at`` are NaN off
    the wire (offline data), and ``arrived_at`` may hold NaN for
    records whose envelope carried ``None`` (never the case past the
    broker).
    """

    __slots__ = (
        "car_id",
        "road_id",
        "accel_ms2",
        "speed_kmh",
        "hour",
        "day",
        "road_type_code",
        "road_mean_speed_kmh",
        "timestamp",
        "anomaly_kind_code",
        "label",
        "generated_at",
        "arrived_at",
    )

    def __init__(
        self,
        car_id: np.ndarray,
        road_id: np.ndarray,
        accel_ms2: np.ndarray,
        speed_kmh: np.ndarray,
        hour: np.ndarray,
        day: np.ndarray,
        road_type_code: np.ndarray,
        road_mean_speed_kmh: np.ndarray,
        timestamp: np.ndarray,
        anomaly_kind_code: np.ndarray,
        label: np.ndarray,
        generated_at: np.ndarray,
        arrived_at: np.ndarray,
    ) -> None:
        self.car_id = car_id
        self.road_id = road_id
        self.accel_ms2 = accel_ms2
        self.speed_kmh = speed_kmh
        self.hour = hour
        self.day = day
        self.road_type_code = road_type_code
        self.road_mean_speed_kmh = road_mean_speed_kmh
        self.timestamp = timestamp
        self.anomaly_kind_code = anomaly_kind_code
        self.label = label
        self.generated_at = generated_at
        self.arrived_at = arrived_at

    def __len__(self) -> int:
        return len(self.car_id)

    def __bool__(self) -> bool:
        return len(self.car_id) > 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "TelemetryBlock":
        return cls.from_payloads([])

    @classmethod
    def from_payloads(cls, payloads: Sequence[Dict[str, Any]]) -> "TelemetryBlock":
        """Build a block from IN-DATA envelopes (one pass).

        Each payload is the wire envelope:
        ``{"data": {Table II fields}, "generated_at": t, "arrived_at": t}``.
        """
        n = len(payloads)
        car_id = np.empty(n, dtype=np.int64)
        road_id = np.empty(n, dtype=np.int64)
        accel = np.empty(n, dtype=np.float64)
        speed = np.empty(n, dtype=np.float64)
        hour = np.empty(n, dtype=np.int64)
        day = np.empty(n, dtype=np.int64)
        road_type_code = np.empty(n, dtype=np.int64)
        road_mean = np.empty(n, dtype=np.float64)
        timestamp = np.empty(n, dtype=np.float64)
        anomaly_code = np.empty(n, dtype=np.int64)
        label = np.empty(n, dtype=np.int8)
        generated_at = np.empty(n, dtype=np.float64)
        arrived_at = np.empty(n, dtype=np.float64)
        rt_index = ROAD_TYPE_INDEX
        ak_index = ANOMALY_KIND_INDEX
        for i, payload in enumerate(payloads):
            data = payload["data"]
            car_id[i] = data["car"]
            road_id[i] = data["rd"]
            accel[i] = data["acc"]
            speed[i] = data["spd"]
            hour[i] = data["hr"]
            day[i] = data["day"]
            road_type_code[i] = rt_index[data["rt"]]
            road_mean[i] = data["vr"]
            timestamp[i] = data["ts"]
            anomaly_code[i] = ak_index[data.get("ak", "none")]
            lbl = data.get("lbl")
            label[i] = NO_LABEL if lbl is None else lbl
            generated_at[i] = payload["generated_at"]
            arrived = payload.get("arrived_at")
            arrived_at[i] = np.nan if arrived is None else arrived
        return cls(
            car_id, road_id, accel, speed, hour, day, road_type_code,
            road_mean, timestamp, anomaly_code, label, generated_at,
            arrived_at,
        )

    @classmethod
    def from_records(cls, records: Sequence[TelemetryRecord]) -> "TelemetryBlock":
        """The block of a record sequence (a record-list caller's one
        conversion): one C-level pass over the records per column."""
        n = len(records)
        nan = np.full(n, np.nan)

        def column(name: str, dtype) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), records), dtype, n)

        def codes(name: str, index: Dict[str, int]) -> np.ndarray:
            values = map(attrgetter(f"{name}._value_"), records)
            return np.fromiter(map(index.__getitem__, values), np.int64, n)

        labels = [
            NO_LABEL if label is None else label
            for label in map(attrgetter("label"), records)
        ]
        return cls(
            car_id=column("car_id", np.int64),
            road_id=column("road_id", np.int64),
            accel_ms2=column("accel_ms2", np.float64),
            speed_kmh=column("speed_kmh", np.float64),
            hour=column("hour", np.int64),
            day=column("day", np.int64),
            road_type_code=codes("road_type", ROAD_TYPE_INDEX),
            road_mean_speed_kmh=column("road_mean_speed_kmh", np.float64),
            timestamp=column("timestamp", np.float64),
            anomaly_kind_code=codes("anomaly_kind", ANOMALY_KIND_INDEX),
            label=np.array(labels, dtype=np.int8),
            generated_at=nan,
            arrived_at=nan,
        )

    def take(self, index) -> "TelemetryBlock":
        """The rows ``index`` (a mask or positions) selects, as a block."""
        return type(self)(*(getattr(self, name)[index] for name in self.__slots__))

    def validate(self) -> None:
        """:class:`TelemetryRecord`'s checks, over the columns."""
        checks = (
            ("hour out of range", self.hour, (self.hour < 0) | (self.hour > 23)),
            ("day out of range", self.day, (self.day < 1) | (self.day > 31)),
            ("speed must be non-negative", self.speed_kmh, self.speed_kmh < 0),
            (
                "label must be 0/1/None",
                self.label,
                ~np.isin(self.label, (NORMAL, ABNORMAL, NO_LABEL)),
            ),
        )
        for message, column, bad in checks:
            if bad.any():
                raise ValueError(f"{message}: {column[bad.argmax()]}")

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def fields(self) -> Dict[str, list]:
        """The columns as Python values (``int`` / ``float`` / enum
        member / ``None`` label), keyed and ordered as
        :class:`TelemetryRecord`'s fields up to ``timestamp``."""
        return {
            "car_id": self.car_id.tolist(),
            "road_id": self.road_id.tolist(),
            "accel_ms2": self.accel_ms2.tolist(),
            "speed_kmh": self.speed_kmh.tolist(),
            "hour": self.hour.tolist(),
            "day": self.day.tolist(),
            "road_type": list(
                map(ROAD_TYPES.__getitem__, self.road_type_code.tolist())
            ),
            "road_mean_speed_kmh": self.road_mean_speed_kmh.tolist(),
            "label": [
                None if label == NO_LABEL else label
                for label in self.label.tolist()
            ],
            "anomaly_kind": list(
                map(ANOMALY_KINDS.__getitem__, self.anomaly_kind_code.tolist())
            ),
            "timestamp": self.timestamp.tolist(),
        }

    def records(self, trip_id: Optional[np.ndarray] = None) -> List[TelemetryRecord]:
        """The rows as records, with ``trip_id``'s trip ids (else 0)."""
        trips = repeat(0, len(self)) if trip_id is None else trip_id.tolist()
        return list(map(TelemetryRecord, *self.fields().values(), trips))

    def __repr__(self) -> str:
        return f"TelemetryBlock(n={len(self)})"

