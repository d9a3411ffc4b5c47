"""Road network model.

Segments carry the attributes the paper's pipeline needs: a road type
(OSM highway class), geometry, length, and a free-flow speed used by the
synthetic data generator.  The network is a graph over segment endpoints
so trips can be routed and adjacent RSUs discovered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geo.coords import LatLon
from repro.geo.distance import haversine_m


class RoadType(enum.Enum):
    """OSM highway classes used in the paper (Tables III and V)."""

    MOTORWAY = "motorway"
    MOTORWAY_LINK = "motorway_link"
    TRUNK = "trunk"
    TRUNK_LINK = "trunk_link"
    PRIMARY = "primary"
    PRIMARY_LINK = "primary_link"
    SECONDARY = "secondary"
    SECONDARY_LINK = "secondary_link"
    TERTIARY = "tertiary"
    RESIDENTIAL = "residential"

    @property
    def is_link(self) -> bool:
        return self.value.endswith("_link")


#: Typical free-flow speed by road type, km/h.  Motorway / motorway-link
#: values follow the paper's Table III (mean speeds 160 and 115 km/h in
#: the filtered dataset); the rest follow common urban practice.
FREE_FLOW_KMH: Dict[RoadType, float] = {
    RoadType.MOTORWAY: 160.0,
    RoadType.MOTORWAY_LINK: 115.0,
    RoadType.TRUNK: 80.0,
    RoadType.TRUNK_LINK: 60.0,
    RoadType.PRIMARY: 60.0,
    RoadType.PRIMARY_LINK: 45.0,
    RoadType.SECONDARY: 50.0,
    RoadType.SECONDARY_LINK: 40.0,
    RoadType.TERTIARY: 40.0,
    RoadType.RESIDENTIAL: 30.0,
}


@dataclass
class RoadSegment:
    """One road trunk — the paper's unit of RSU coverage.

    Attributes
    ----------
    segment_id:
        The ``RdID`` of the paper's Table II.
    road_type:
        OSM highway class.
    polyline:
        Ordered geometry, at least two points.
    free_flow_kmh:
        Nominal free-flow speed; the synthetic generator's normal-speed
        anchor for the segment.
    lanes:
        Number of lanes (used for vehicle-density computations).
    """

    segment_id: int
    road_type: RoadType
    polyline: List[LatLon]
    free_flow_kmh: Optional[float] = None
    lanes: int = 2
    name: str = ""

    length_m: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.polyline) < 2:
            raise ValueError(
                f"segment {self.segment_id} needs >= 2 points, "
                f"got {len(self.polyline)}"
            )
        if self.lanes < 1:
            raise ValueError(f"segment {self.segment_id} needs >= 1 lane")
        if self.free_flow_kmh is None:
            self.free_flow_kmh = FREE_FLOW_KMH[self.road_type]
        if self.free_flow_kmh <= 0:
            raise ValueError(
                f"segment {self.segment_id} free-flow speed must be positive"
            )
        self.length_m = sum(
            haversine_m(a.lat, a.lon, b.lat, b.lon)
            for a, b in zip(self.polyline, self.polyline[1:])
        )

    @property
    def start(self) -> LatLon:
        return self.polyline[0]

    @property
    def end(self) -> LatLon:
        return self.polyline[-1]


class RoadNetwork:
    """A graph of :class:`RoadSegment` objects.

    Segments are connected when they share an endpoint (within a small
    snapping tolerance).  The network answers the queries the rest of
    the system needs: adjacency (for inter-RSU collaboration topology),
    lookup by id and by road type.
    """

    #: Endpoints closer than this (metres) are treated as the same node.
    SNAP_TOLERANCE_M = 15.0

    def __init__(self) -> None:
        self._segments: Dict[int, RoadSegment] = {}
        self._adjacency: Dict[int, set] = {}
        # Spatial hash of snap nodes: cell -> list of (point, members).
        # Cell size ~2x the snap tolerance keeps candidate lists tiny,
        # making add_segment O(1) amortised instead of O(n).
        self._node_grid: Dict[Tuple[int, int], List[Tuple[LatLon, set]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_segment(self, segment: RoadSegment) -> None:
        if segment.segment_id in self._segments:
            raise ValueError(f"duplicate segment id {segment.segment_id}")
        self._segments[segment.segment_id] = segment
        self._adjacency[segment.segment_id] = set()
        for endpoint in (segment.start, segment.end):
            node_members = self._node_for(endpoint)
            for other_id in node_members:
                self._adjacency[segment.segment_id].add(other_id)
                self._adjacency[other_id].add(segment.segment_id)
            node_members.add(segment.segment_id)

    def _grid_cell(self, point: LatLon) -> Tuple[int, int]:
        # ~1e-5 degrees per metre of latitude; cell edge ~2x tolerance.
        cell_deg = self.SNAP_TOLERANCE_M * 2.0 * 1e-5
        return (int(point.lat / cell_deg), int(point.lon / cell_deg))

    def _node_for(self, point: LatLon) -> set:
        cell_lat, cell_lon = self._grid_cell(point)
        for dlat in (-1, 0, 1):
            for dlon in (-1, 0, 1):
                bucket = self._node_grid.get((cell_lat + dlat, cell_lon + dlon))
                if not bucket:
                    continue
                for node_point, members in bucket:
                    if (
                        haversine_m(
                            node_point.lat, node_point.lon, point.lat, point.lon
                        )
                        <= self.SNAP_TOLERANCE_M
                    ):
                        return members
        members: set = set()
        self._node_grid.setdefault((cell_lat, cell_lon), []).append(
            (point, members)
        )
        return members

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def segment(self, segment_id: int) -> RoadSegment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise KeyError(f"unknown segment id {segment_id}") from None

    def segments(self) -> Iterable[RoadSegment]:
        return self._segments.values()

    def segment_ids(self) -> List[int]:
        return sorted(self._segments)

    def by_road_type(self, road_type: RoadType) -> List[RoadSegment]:
        return [
            seg
            for seg in self._segments.values()
            if seg.road_type is road_type
        ]

    def neighbors(self, segment_id: int) -> List[int]:
        """Segment ids sharing an endpoint with ``segment_id``."""
        if segment_id not in self._adjacency:
            raise KeyError(f"unknown segment id {segment_id}")
        return sorted(self._adjacency[segment_id])

    def total_length_m(self) -> float:
        return sum(seg.length_m for seg in self._segments.values())
