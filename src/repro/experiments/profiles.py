"""Fig. 2: speed profiles of motorway vs. motorway-link roads.

The paper's Fig. 2 plots hourly speed profiles for the two road types,
split by weekday/weekend, showing the spatio-temporal variation that
motivates context-aware detection.  This harness produces the same
four series, either from the profile library directly (the generating
distribution) or measured from a synthetic dataset (the empirical
version).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataset.schema import TelemetryRecord
from repro.dataset.speed_profiles import SpeedProfileLibrary
from repro.geo.roadnet import RoadType


@dataclass
class SpeedProfileSeries:
    """One Fig. 2 curve: hourly mean speeds for (road type, weekend)."""

    road_type: RoadType
    weekend: bool
    hourly_mean_kmh: List[float]

    @property
    def label(self) -> str:
        day = "weekend" if self.weekend else "weekday"
        return f"{self.road_type.value} ({day})"


@dataclass
class Fig2Result:
    series: List[SpeedProfileSeries] = field(default_factory=list)

    def get(self, road_type: RoadType, weekend: bool) -> SpeedProfileSeries:
        for entry in self.series:
            if entry.road_type is road_type and entry.weekend is weekend:
                return entry
        raise KeyError(f"no series for ({road_type}, weekend={weekend})")

    def format_table(self) -> str:
        header = "hour " + " ".join(
            f"{entry.label:>26}" for entry in self.series
        )
        lines = [header]
        for hour in range(24):
            row = f"{hour:>4} " + " ".join(
                f"{entry.hourly_mean_kmh[hour]:>26.1f}" for entry in self.series
            )
            lines.append(row)
        return "\n".join(lines)


def fig2_speed_profiles(
    records: Optional[Sequence[TelemetryRecord]] = None,
    road_types: Tuple[RoadType, ...] = (
        RoadType.MOTORWAY,
        RoadType.MOTORWAY_LINK,
    ),
) -> Fig2Result:
    """Build the Fig. 2 series.

    With ``records`` given, series are empirical hourly means measured
    from the data (hours with no observations carry NaN); otherwise
    they come from the generating profile library.
    """
    result = Fig2Result()
    if records is None:
        library = SpeedProfileLibrary()
        for road_type in road_types:
            for weekend in (False, True):
                result.series.append(
                    SpeedProfileSeries(
                        road_type=road_type,
                        weekend=weekend,
                        hourly_mean_kmh=library.hourly_means(road_type, weekend),
                    )
                )
        return result

    sums: Dict[Tuple[RoadType, bool, int], float] = {}
    counts: Dict[Tuple[RoadType, bool, int], int] = {}
    for record in records:
        key = (record.road_type, record.is_weekend, record.hour)
        sums[key] = sums.get(key, 0.0) + record.speed_kmh
        counts[key] = counts.get(key, 0) + 1
    for road_type in road_types:
        for weekend in (False, True):
            hourly = []
            for hour in range(24):
                key = (road_type, weekend, hour)
                if key in counts:
                    hourly.append(sums[key] / counts[key])
                else:
                    hourly.append(float("nan"))
            result.series.append(
                SpeedProfileSeries(
                    road_type=road_type, weekend=weekend, hourly_mean_kmh=hourly
                )
            )
    return result
