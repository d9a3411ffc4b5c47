"""CSV round-tripping for dataset records.

The paper's pipeline reads the preprocessed dataset from disk (Kafka
producers replay it); these helpers give the same capability with
stdlib ``csv`` so datasets can be generated once and replayed by many
experiments.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Union

from repro.dataset.schema import AnomalyKind, TelemetryRecord
from repro.geo.roadnet import RoadType

PathLike = Union[str, Path]

TELEMETRY_FIELDS = [
    "car_id",
    "road_id",
    "accel_ms2",
    "speed_kmh",
    "hour",
    "day",
    "road_type",
    "road_mean_speed_kmh",
    "label",
    "anomaly_kind",
    "timestamp",
    "trip_id",
]


def write_telemetry_csv(path: PathLike, records: List[TelemetryRecord]) -> None:
    """Write Table II rows to CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=TELEMETRY_FIELDS)
        writer.writeheader()
        for record in records:
            writer.writerow(
                {
                    "car_id": record.car_id,
                    "road_id": record.road_id,
                    "accel_ms2": repr(record.accel_ms2),
                    "speed_kmh": repr(record.speed_kmh),
                    "hour": record.hour,
                    "day": record.day,
                    "road_type": record.road_type.value,
                    "road_mean_speed_kmh": repr(record.road_mean_speed_kmh),
                    "label": "" if record.label is None else record.label,
                    "anomaly_kind": record.anomaly_kind.value,
                    "timestamp": repr(record.timestamp),
                    "trip_id": record.trip_id,
                }
            )


def read_telemetry_csv(path: PathLike) -> List[TelemetryRecord]:
    """Read Table II rows back from CSV."""
    records = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            records.append(
                TelemetryRecord(
                    car_id=int(row["car_id"]),
                    road_id=int(row["road_id"]),
                    accel_ms2=float(row["accel_ms2"]),
                    speed_kmh=float(row["speed_kmh"]),
                    hour=int(row["hour"]),
                    day=int(row["day"]),
                    road_type=RoadType(row["road_type"]),
                    road_mean_speed_kmh=float(row["road_mean_speed_kmh"]),
                    label=int(row["label"]) if row["label"] != "" else None,
                    anomaly_kind=AnomalyKind(row["anomaly_kind"]),
                    timestamp=float(row["timestamp"]),
                    trip_id=int(row.get("trip_id", 0)),
                )
            )
    return records

