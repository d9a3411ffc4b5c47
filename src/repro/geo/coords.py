"""WGS-84 coordinate primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geo.distance import EARTH_RADIUS_M


@dataclass(frozen=True)
class LatLon:
    """A geographic point in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def as_tuple(self) -> tuple:
        return (self.lat, self.lon)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned lat/lon box (south, west, north, east)."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        if self.south > self.north:
            raise ValueError(
                f"south ({self.south}) exceeds north ({self.north})"
            )
        if self.west > self.east:
            raise ValueError(f"west ({self.west}) exceeds east ({self.east})")

    @property
    def center(self) -> LatLon:
        return LatLon(
            (self.south + self.north) / 2.0, (self.west + self.east) / 2.0
        )


#: Bounding box of Shenzhen, China — the paper's study area.
SHENZHEN_BBOX = BoundingBox(south=22.45, west=113.75, north=22.85, east=114.65)


def destination_point(origin: LatLon, bearing_deg: float, distance_m: float) -> LatLon:
    """Point ``distance_m`` metres from ``origin`` along ``bearing_deg``.

    Standard great-circle destination formula; used by the synthetic
    network builder to lay out road geometry.
    """
    angular = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)

    sin_phi2 = math.sin(phi1) * math.cos(angular) + math.cos(phi1) * math.sin(
        angular
    ) * math.cos(theta)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(angular) * math.cos(phi1),
        math.cos(angular) - math.sin(phi1) * sin_phi2,
    )
    lon = math.degrees(lam2)
    lon = (lon + 540.0) % 360.0 - 180.0  # normalize to [-180, 180)
    return LatLon(math.degrees(phi2), lon)
