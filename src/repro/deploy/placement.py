"""RSU placement planning (the paper's Table V).

Table V reports, per road type, the traffic-density share, road count,
mean/STD road length, and the number of RSUs required.  The paper's
counts are consistent with one RSU per kilometre of road ("takes into
account both DSRC range and average road length" — a 1 km coverage
diameter is twice a conservative ~500 m DSRC radius), restricted to
frequently used roads.  The planner implements that rule over an
arbitrary road network and reproduces Table V on the calibrated
synthetic city.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.geo.roadnet import RoadNetwork, RoadType


@dataclass(frozen=True)
class RoadTypePlacement:
    """One row of Table V."""

    road_type: RoadType
    traffic_density: float
    n_roads: int
    mean_length_m: float
    std_length_m: float
    rsus_required: int


@dataclass
class PlacementPlan:
    """The full Table V plus aggregate capacity numbers."""

    rows: List[RoadTypePlacement]
    rsu_spacing_m: float
    vehicles_per_rsu: int

    @property
    def total_rsus(self) -> int:
        return sum(row.rsus_required for row in self.rows)

    @property
    def total_vehicle_capacity(self) -> int:
        """Concurrent road users the deployment can serve.

        The paper: "With a single RSU per road trunk, CAD3 can support
        a total of 13 million concurrent road users" (51,129 trunks x
        256 vehicles).  The per-row capacity uses the planner's
        ``vehicles_per_rsu``.
        """
        return self.total_rsus * self.vehicles_per_rsu

    def row(self, road_type: RoadType) -> RoadTypePlacement:
        for row in self.rows:
            if row.road_type is road_type:
                return row
        raise KeyError(f"no placement row for {road_type}")

    def format_table(self) -> str:
        """Render in the paper's Table V layout."""
        lines = [
            f"{'Road':<16}{'Density':>9}{'#road':>8}{'Mean(m)':>10}"
            f"{'STD(m)':>10}{'RSUs':>7}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.road_type.value:<16}{row.traffic_density:>8.1%}"
                f"{row.n_roads:>8}{row.mean_length_m:>10.0f}"
                f"{row.std_length_m:>10.0f}{row.rsus_required:>7}"
            )
        lines.append(f"{'TOTAL':<16}{'':>8}{'':>8}{'':>10}{'':>10}"
                     f"{self.total_rsus:>7}")
        return "\n".join(lines)


class RsuPlacementPlanner:
    """Compute RSU requirements for a road network.

    Parameters
    ----------
    rsu_spacing_m:
        Road length served by one RSU; the paper's Table V counts are
        consistent with 1,000 m.
    vehicles_per_rsu:
        Concurrent-vehicle capacity of one RSU (the paper demonstrates
        256 under 50 ms).
    min_traffic_density:
        Road types below this traffic share are skipped ("for cost
        efficiency, the deployment considers frequently used roads").
    """

    def __init__(
        self,
        rsu_spacing_m: float = 1000.0,
        vehicles_per_rsu: int = 256,
        min_traffic_density: float = 0.0,
    ) -> None:
        if rsu_spacing_m <= 0:
            raise ValueError("spacing must be positive")
        if vehicles_per_rsu < 1:
            raise ValueError("capacity must be >= 1")
        self.rsu_spacing_m = rsu_spacing_m
        self.vehicles_per_rsu = vehicles_per_rsu
        self.min_traffic_density = min_traffic_density

    def plan(
        self,
        network: RoadNetwork,
        traffic_density: Dict[RoadType, float],
    ) -> PlacementPlan:
        """Build Table V for ``network``.

        ``traffic_density`` gives each road type's share of vehicle
        traffic (the Density column); types missing from the mapping
        are treated as carrying no traffic and skipped.
        """
        rows = []
        for road_type in RoadType:
            density = traffic_density.get(road_type, 0.0)
            if density < self.min_traffic_density:
                continue
            segments = network.by_road_type(road_type)
            if not segments:
                continue
            lengths = np.array([seg.length_m for seg in segments])
            rsus = int(lengths.sum() / self.rsu_spacing_m)
            rows.append(
                RoadTypePlacement(
                    road_type=road_type,
                    traffic_density=density,
                    n_roads=len(segments),
                    mean_length_m=float(lengths.mean()),
                    std_length_m=float(lengths.std()),
                    rsus_required=max(rsus, 1),
                )
            )
        return PlacementPlan(
            rows=rows,
            rsu_spacing_m=self.rsu_spacing_m,
            vehicles_per_rsu=self.vehicles_per_rsu,
        )

    def plan_for_demand(
        self,
        network: RoadNetwork,
        traffic_density: Dict[RoadType, float],
        peak_vehicles: int,
    ) -> PlacementPlan:
        """Size the deployment for coverage *and* peak capacity.

        The coverage rule (one RSU per km) under-provisions road types
        that carry a large traffic share over little road length (the
        link classes): at peak, their per-RSU vehicle count exceeds
        the demonstrated 256-vehicle envelope.  This variant raises
        each class's RSU count to
        ``max(coverage_rsus, ceil(peak_share / vehicles_per_rsu))``,
        making the citywide peak feasible by construction.
        """
        if peak_vehicles < 0:
            raise ValueError("peak_vehicles must be non-negative")
        base = self.plan(network, traffic_density)
        total_density = sum(row.traffic_density for row in base.rows)
        rows = []
        for row in base.rows:
            share = row.traffic_density / total_density
            demand_rsus = math.ceil(
                share * peak_vehicles / self.vehicles_per_rsu
            )
            rows.append(
                RoadTypePlacement(
                    road_type=row.road_type,
                    traffic_density=row.traffic_density,
                    n_roads=row.n_roads,
                    mean_length_m=row.mean_length_m,
                    std_length_m=row.std_length_m,
                    rsus_required=max(row.rsus_required, demand_rsus),
                )
            )
        return PlacementPlan(
            rows=rows,
            rsu_spacing_m=self.rsu_spacing_m,
            vehicles_per_rsu=self.vehicles_per_rsu,
        )

    def rsus_for_road(self, length_m: float) -> int:
        """RSUs for a single road of ``length_m`` (at least one)."""
        if length_m <= 0:
            raise ValueError("length must be positive")
        return max(1, math.ceil(length_m / self.rsu_spacing_m))
