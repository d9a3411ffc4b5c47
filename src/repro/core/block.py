"""Columnar containers for the telemetry hot path.

Every record that crosses an RSU used to pay per-record Python costs:
a dict → :class:`~repro.dataset.schema.TelemetryRecord` dataclass
construction, per-detector list comprehensions rebuilding the feature
matrix, and a ``DetectionEvent`` object per scored record.  At
city-scale load those costs dominate the micro-batch pipeline, so the
batch path works on *columns* instead:

- :class:`TelemetryBlock` — one micro-batch of Table II records as a
  struct-of-numpy-arrays, built **once** per batch and shared by the
  detectors, the per-car bookkeeping, and the event log.
- :class:`DetectionEventLog` — a list-compatible event store that
  accepts whole blocks in O(1) appends and materializes
  :class:`~repro.core.rsu.DetectionEvent` objects only when somebody
  iterates.

Both containers are value-faithful: a block round-trips to the exact
:class:`TelemetryRecord` list it was built from, and the event log
yields events bit-identical to what the per-record path appends — the
golden-equivalence tests pin this.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.dataset.schema import AnomalyKind, TelemetryRecord, road_type_codes
from repro.geo.roadnet import RoadType

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

#: A record's anomaly kind as its value string: the enum's plain
#: ``_value_`` attribute, read without a Python-level call.
_KIND_VALUE = attrgetter("anomaly_kind._value_")


def as_block(records) -> "TelemetryBlock":
    """``records`` as a :class:`TelemetryBlock`: itself when it is one,
    else built from the record sequence.  The record forms of the
    detectors and features convert through this and run the block form."""
    if isinstance(records, TelemetryBlock):
        return records
    return TelemetryBlock.from_records(records)


class TelemetryBlock:
    """One micro-batch of telemetry as a struct of numpy arrays.

    Columns mirror Table II plus the streaming envelope timestamps.
    ``road_type_code`` / ``anomaly_kind_code`` index :data:`ROAD_TYPES`
    / :data:`ANOMALY_KINDS`; ``label`` uses :data:`NO_LABEL` (-1) for
    unlabelled records.  ``arrived_at`` may hold NaN for records whose
    envelope carried ``None`` (never the case past the broker).
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
    def from_records(
        cls,
        records: Sequence[TelemetryRecord],
        generated_at: Optional[np.ndarray] = None,
        arrived_at: Optional[np.ndarray] = None,
    ) -> "TelemetryBlock":
        """Build a block straight from dataclass records (offline use):
        one C-level pass over the records per column."""
        n = len(records)
        nan = np.full(n, np.nan)

        def column(name: str, dtype) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), records), dtype, n)

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
            road_type_code=road_type_codes(records),
            road_mean_speed_kmh=column("road_mean_speed_kmh", np.float64),
            timestamp=column("timestamp", np.float64),
            anomaly_kind_code=np.fromiter(
                map(ANOMALY_KIND_INDEX.__getitem__, map(_KIND_VALUE, records)),
                np.int64,
                n,
            ),
            label=np.array(labels, dtype=np.int8),
            generated_at=nan if generated_at is None else generated_at,
            arrived_at=nan if arrived_at is None else arrived_at,
        )

    def take(self, index) -> "TelemetryBlock":
        """The rows ``index`` (a mask or positions) selects, as a block."""
        return type(self)(*(getattr(self, name)[index] for name in self.__slots__))

    # ------------------------------------------------------------------
    # Materialization (compatibility escape hatch)
    # ------------------------------------------------------------------
    def records(self) -> List[TelemetryRecord]:
        """Materialize dataclass records (for code without a block path)."""
        road_types = ROAD_TYPES
        kinds = ANOMALY_KINDS
        return [
            TelemetryRecord(
                car_id=int(self.car_id[i]),
                road_id=int(self.road_id[i]),
                accel_ms2=float(self.accel_ms2[i]),
                speed_kmh=float(self.speed_kmh[i]),
                hour=int(self.hour[i]),
                day=int(self.day[i]),
                road_type=road_types[self.road_type_code[i]],
                road_mean_speed_kmh=float(self.road_mean_speed_kmh[i]),
                label=None if self.label[i] == NO_LABEL else int(self.label[i]),
                anomaly_kind=kinds[self.anomaly_kind_code[i]],
                timestamp=float(self.timestamp[i]),
            )
            for i in range(len(self))
        ]

    def __repr__(self) -> str:
        return f"TelemetryBlock(n={len(self)})"


class DetectionEventLog:
    """Columnar, list-compatible store of detection events.

    The hot path appends one whole micro-batch at a time
    (:meth:`append_block`, O(1) per batch); the legacy per-record path
    still works through :meth:`append`.  Iteration, indexing, and
    ``len`` behave like the plain ``List[DetectionEvent]`` this
    replaces; the vectorized accessors (:meth:`tx_s`,
    :meth:`queuing_s`, ...) are what the reports read.
    """

    __slots__ = ("_segments", "_length", "_materialized")

    def __init__(self) -> None:
        # Each segment is either a DetectionEvent or a block tuple
        # (car_ids, generated, arrived, detected_at_scalar, abnormal,
        # labels); order across segments is append order.
        self._segments: List[Any] = []
        self._length = 0
        self._materialized: Optional[List[Any]] = None

    def append(self, event) -> None:
        self._segments.append(event)
        self._length += 1
        self._materialized = None

    def append_block(
        self,
        car_ids: np.ndarray,
        generated_at: np.ndarray,
        arrived_at: np.ndarray,
        detected_at: float,
        abnormal: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """Record one scored micro-batch.

        ``labels`` uses :data:`NO_LABEL` for unlabelled records;
        ``detected_at`` is the batch completion time shared by every
        record of the block.
        """
        n = len(car_ids)
        if n == 0:
            return
        self._segments.append(
            (car_ids, generated_at, arrived_at, detected_at, abnormal, labels)
        )
        self._length += n
        self._materialized = None

    # ------------------------------------------------------------------
    # List protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def _materialize(self) -> List[Any]:
        if self._materialized is not None:
            return self._materialized
        from repro.core.rsu import DetectionEvent

        events: List[Any] = []
        for segment in self._segments:
            if not isinstance(segment, tuple):
                events.append(segment)
                continue
            car_ids, generated, arrived, detected_at, abnormal, labels = segment
            events.extend(
                DetectionEvent(
                    car_id=car,
                    generated_at=gen,
                    arrived_at=arr,
                    detected_at=detected_at,
                    abnormal=abn,
                    true_label=None if lbl == NO_LABEL else lbl,
                )
                for car, gen, arr, abn, lbl in zip(
                    car_ids.tolist(),
                    generated.tolist(),
                    arrived.tolist(),
                    abnormal.tolist(),
                    labels.tolist(),
                )
            )
        self._materialized = events
        return events

    # ------------------------------------------------------------------
    # Vectorized accessors
    # ------------------------------------------------------------------
    def _column(self, picker) -> np.ndarray:
        parts: List[np.ndarray] = []
        for segment in self._segments:
            parts.append(picker(segment))
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def car_ids(self) -> np.ndarray:
        return self._column(
            lambda s: s[0] if isinstance(s, tuple) else np.array([s.car_id])
        )

    def generated_at(self) -> np.ndarray:
        return self._column(
            lambda s: s[1] if isinstance(s, tuple) else np.array([s.generated_at])
        )

    def arrived_at(self) -> np.ndarray:
        return self._column(
            lambda s: s[2] if isinstance(s, tuple) else np.array([s.arrived_at])
        )

    def detected_at(self) -> np.ndarray:
        return self._column(
            lambda s: np.full(len(s[0]), s[3])
            if isinstance(s, tuple)
            else np.array([s.detected_at])
        )

    def abnormal(self) -> np.ndarray:
        return self._column(
            lambda s: np.asarray(s[4], dtype=bool)
            if isinstance(s, tuple)
            else np.array([s.abnormal], dtype=bool)
        )

    def true_labels(self) -> np.ndarray:
        """Labels as int8 with :data:`NO_LABEL` for unlabelled."""
        return self._column(
            lambda s: np.asarray(s[5], dtype=np.int8)
            if isinstance(s, tuple)
            else np.array(
                [NO_LABEL if s.true_label is None else s.true_label],
                dtype=np.int8,
            )
        )

    def tx_s(self) -> np.ndarray:
        """Per-event DSRC transfer time (arrived - generated)."""
        return self.arrived_at() - self.generated_at()

    def queuing_s(self) -> np.ndarray:
        """Per-event queuing + processing time (detected - arrived)."""
        return self.detected_at() - self.arrived_at()

    def __repr__(self) -> str:
        return f"DetectionEventLog(n={self._length})"
