"""Geographic substrate.

The paper extracts Shenzhen trips from raw GPS and map-matches them
onto the OSM road network.  This reproduction generates Table II
telemetry directly on a synthetic network (see :mod:`repro.dataset`),
so it keeps the network, not the matching:

- :mod:`repro.geo.coords` — WGS-84 points and projections.
- :mod:`repro.geo.distance` — great-circle (haversine) distance, the
  ``Dist`` function of the paper's Eq. 4.
- :mod:`repro.geo.roadnet` — road segments, road types, and the road
  graph.
- :mod:`repro.geo.network_builder` — synthetic Shenzhen-like road
  network generation (substitute for the proprietary OSM extract).
"""

from repro.geo.coords import BoundingBox, LatLon, destination_point
from repro.geo.distance import (
    EARTH_RADIUS_M,
    bearing_deg,
    haversine_m,
    path_length_m,
)
from repro.geo.network_builder import CityNetworkBuilder, NetworkSpec
from repro.geo.roadnet import RoadNetwork, RoadSegment, RoadType
from repro.geo.router import RouteNotFound, Router

__all__ = [
    "BoundingBox",
    "CityNetworkBuilder",
    "EARTH_RADIUS_M",
    "LatLon",
    "NetworkSpec",
    "RoadNetwork",
    "RoadSegment",
    "RoadType",
    "RouteNotFound",
    "Router",
    "bearing_deg",
    "destination_point",
    "haversine_m",
    "path_length_m",
]
