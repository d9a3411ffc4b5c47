"""Record types for the driving dataset.

These mirror the paper's Table II (the preprocessed feature rows fed to
the detectors):

    CarID | RdID | accel | Speed | Hour | Day | RdType | v_r_bar

plus the offline sigma-cutoff label (``class``: 1 = normal,
0 = abnormal) used for training and evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import List, Optional, Sequence

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
        """July 2016: the 1st was a Friday, so days 2,3,9,10,... are
        weekend days."""
        day_of_week = (self.day + 3) % 7  # 0=Monday ... 6=Sunday
        return day_of_week >= 5

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

    @staticmethod
    def with_labels(
        records: Sequence["TelemetryRecord"], labels: Sequence[Optional[int]]
    ) -> List["TelemetryRecord"]:
        """``[r.with_label(l) for r, l in zip(records, labels)]`` in a
        few C-level passes.  A copy's fields are its source's, validated
        when the source was built, so ``__init__`` does not run again:
        each copy is an ``object.__new__`` whose ``__dict__`` takes its
        source's and then the label.  Only the labels are checked."""
        labels = list(labels)
        if len(labels) != len(records):
            raise ValueError(
                f"{len(labels)} labels for {len(records)} records"
            )
        if set(labels) - {NORMAL, ABNORMAL, None}:
            raise ValueError(f"labels must be 0/1/None: {set(labels)}")
        copies = list(map(object.__new__, repeat(TelemetryRecord, len(labels))))
        states = list(map(_STATE, copies))
        list(map(dict.update, states, map(_STATE, records)))
        list(map(dict.__setitem__, states, repeat("label"), labels))
        return copies


#: An instance's attribute dict, read without a Python-level call.
_STATE = attrgetter("__dict__")

#: Road-type value -> its index in declaration order (the road-type code).
_ROAD_TYPE_INDEX = {road_type.value: index for index, road_type in enumerate(RoadType)}

#: A record's road type as its value string: the enum's plain
#: ``_value_`` attribute, read without a Python-level call.
_ROAD_TYPE_VALUE = attrgetter("road_type._value_")


def road_type_codes(records: Sequence[TelemetryRecord]) -> np.ndarray:
    """Each record's road-type code (its road type's index in
    declaration order), in one C-level pass."""
    return np.fromiter(
        map(_ROAD_TYPE_INDEX.__getitem__, map(_ROAD_TYPE_VALUE, records)),
        np.int64,
        len(records),
    )
