"""City-scale feasibility: the paper's peak-hour claims.

Two macroscopic claims close the paper's argument:

1. "With a dense deployment of edge nodes, CAD3 can scale up to the
   size of Shenzhen ... over 2 million concurrent vehicles at peak
   hours."
2. "With a single RSU per road trunk, CAD3 can support a total of 13
   million concurrent road users ... while exploiting only 1/5 of the
   DSRC bandwidth."

This harness distributes a peak-hour vehicle population over the
planned RSU deployment proportionally to each road type's traffic
density (Table V's Density column) and checks every class stays within
the demonstrated per-RSU envelope (256 vehicles under 50 ms,
~5 Mb/s of 27 Mb/s DSRC).

This is arithmetic over measured envelopes.  The *executed* scaled
corridor is the sharded multi-process engine
(:class:`repro.parallel.engine.ShardedScenario`): ``repro obs --shards
N`` runs it from the CLI, and the benchmark's ``corridor_sharded``
workload times it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.deploy.placement import PlacementPlan
from repro.experiments.deployment import table5_placement
from repro.geo.roadnet import RoadType
from repro.net.dsrc import DSRC_BANDWIDTH_BPS

#: The paper's peak-hour figure for Shenzhen ("over 2 million on the
#: road in the morning rush").
SHENZHEN_PEAK_VEHICLES = 2_000_000

#: Measured per-vehicle bandwidth (Fig. 6c regime).
PER_VEHICLE_BPS = 20_000.0


@dataclass
class RoadTypeLoad:
    """Peak-hour load assessment for one road type."""

    road_type: RoadType
    vehicles: int
    rsus: int
    vehicles_per_rsu: float
    bandwidth_per_rsu_bps: float
    within_capacity: bool

    def format_row(self) -> str:
        ok = "ok" if self.within_capacity else "OVER"
        return (
            f"{self.road_type.value:<16}{self.vehicles:>10,}"
            f"{self.rsus:>7}{self.vehicles_per_rsu:>10.1f}"
            f"{self.bandwidth_per_rsu_bps / 1e6:>9.2f}Mb/s  {ok}"
        )


@dataclass
class PeakHourAssessment:
    """Result of :func:`peak_hour_feasibility`."""

    total_vehicles: int
    rows: List[RoadTypeLoad] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return all(row.within_capacity for row in self.rows)

    def format_table(self) -> str:
        header = (
            f"{'Road type':<16}{'vehicles':>10}{'RSUs':>7}"
            f"{'veh/RSU':>10}{'bw/RSU':>13}"
        )
        return "\n".join(
            [header] + [row.format_row() for row in self.rows]
        )


def peak_hour_feasibility(
    total_vehicles: int = SHENZHEN_PEAK_VEHICLES,
    plan: Optional[PlacementPlan] = None,
    vehicles_per_rsu_limit: int = 256,
    per_vehicle_bps: float = PER_VEHICLE_BPS,
) -> PeakHourAssessment:
    """Spread ``total_vehicles`` over the deployment and check limits.

    Vehicles are distributed across road types by Table V's traffic
    density and uniformly across each type's RSUs — the paper's
    implicit model (one RSU per trunk, traffic proportional to
    observed density).
    """
    plan = plan or table5_placement()
    total_density = sum(row.traffic_density for row in plan.rows)
    assessment = PeakHourAssessment(total_vehicles=total_vehicles)
    for row in plan.rows:
        share = row.traffic_density / total_density
        vehicles = int(round(total_vehicles * share))
        per_rsu = vehicles / row.rsus_required
        bandwidth = per_rsu * per_vehicle_bps
        assessment.rows.append(
            RoadTypeLoad(
                road_type=row.road_type,
                vehicles=vehicles,
                rsus=row.rsus_required,
                vehicles_per_rsu=per_rsu,
                bandwidth_per_rsu_bps=bandwidth,
                within_capacity=(
                    per_rsu <= vehicles_per_rsu_limit
                    and bandwidth <= DSRC_BANDWIDTH_BPS
                ),
            )
        )
    return assessment


def max_supported_vehicles(
    plan: Optional[PlacementPlan] = None,
    vehicles_per_rsu_limit: int = 256,
) -> int:
    """Largest citywide population the deployment serves, given the
    density-proportional spreading model.

    The binding constraint is the road type whose density-to-RSU ratio
    is worst; scale until it saturates.
    """
    plan = plan or table5_placement()
    total_density = sum(row.traffic_density for row in plan.rows)
    limit = float("inf")
    for row in plan.rows:
        share = row.traffic_density / total_density
        # share * N / rsus <= limit  =>  N <= limit * rsus / share
        limit = min(limit, vehicles_per_rsu_limit * row.rsus_required / share)
    return int(limit)
