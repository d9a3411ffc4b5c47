"""Declarative scenario topology, shared by the serial and sharded engines.

:meth:`TestbedScenario.corridor` used to wire its RSUs, vehicles, and
handovers imperatively; the sharded engine needs the same structure as
*data* — which RSU gets which car ids, which record stripe each vehicle
replays, and which cars hand over where — so each worker can materialize
exactly its own slice with identical identities and RNG stream names.
:func:`corridor_topology` captures the legacy build as a
:class:`CorridorTopology`; both engines build from it, which is what the
golden-equivalence tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class RsuSpec:
    """One RSU: its detector key and outgoing CO-DATA links."""

    name: str
    #: Key into the scenario bundle's fitted detectors.
    detector: str
    #: RSU names this node can forward CO-DATA to (build order).
    connects_to: Tuple[str, ...] = ()


@dataclass(frozen=True)
class VehicleGroup:
    """Vehicles attached to one RSU at build time.

    ``car_ids`` are explicit (not assigned by a build-order counter), so
    a shard that builds only this group creates the same identities —
    and therefore the same ``vehicle.{car_id}`` RNG streams — as the
    single-process build.  Vehicle ``car_ids[i]`` replays record stripe
    ``pool_records[i::len(car_ids)]``, matching the legacy striping.
    """

    rsu: str
    car_ids: Tuple[int, ...]
    #: Key into the scenario bundle's replay record pools.
    pool: str


@dataclass(frozen=True)
class HandoverSpec:
    """A scheduled migration of ``car_ids`` (in pool order) to one RSU."""

    at_s: float
    to_rsu: str
    car_ids: Tuple[int, ...]
    #: Pool the migrated vehicles replay from (stripe ``i`` of the pool
    #: goes to the car at position ``i``).
    pool: str


@dataclass(frozen=True)
class CorridorTopology:
    """The corridor scenario as data: RSUs, vehicle groups, handovers."""

    rsus: Tuple[RsuSpec, ...]
    groups: Tuple[VehicleGroup, ...]
    handovers: Tuple[HandoverSpec, ...]

    # ------------------------------------------------------------------
    def rsu_names(self) -> List[str]:
        return [spec.name for spec in self.rsus]

    def edges(self) -> List[Tuple[str, str]]:
        """Directed CO-DATA links ``(src, dst)``."""
        return [
            (spec.name, dst) for spec in self.rsus for dst in spec.connects_to
        ]

    def vehicle_load(self) -> Dict[str, int]:
        """Per-RSU load estimate: homed vehicles + handover influx.

        The influx term matters for planning: the handover target's
        post-migration population (and per-window event work) grows by
        every pool it receives.
        """
        load = {spec.name: 0 for spec in self.rsus}
        for group in self.groups:
            load[group.rsu] += len(group.car_ids)
        for handover in self.handovers:
            load[handover.to_rsu] += len(handover.car_ids)
        return load


def corridor_topology(spec, motorways: int = 4) -> CorridorTopology:
    """The paper's corridor (Fig. 5) as a :class:`CorridorTopology`.

    Car-id ranges reproduce the legacy sequential assignment: motorway
    ``i`` (1-based) owns ids ``(i-1)*n+1 .. i*n``, the link RSU owns the
    final block.  The handover pool is the first
    ``int(n * handover_fraction)`` vehicles of each motorway, in
    motorway order — ascending car id, which also pins the serial
    migration loop's ordering.
    """
    n = spec.n_vehicles
    link_name = "rsu-mw-link"
    rsus = [RsuSpec(link_name, "link")]
    groups: List[VehicleGroup] = []
    pool: List[int] = []
    n_migrating = int(n * spec.handover_fraction)
    for index in range(motorways):
        name = f"rsu-mw-{index + 1}"
        rsus.append(RsuSpec(name, "motorway", connects_to=(link_name,)))
        car_ids = tuple(range(index * n + 1, (index + 1) * n + 1))
        groups.append(VehicleGroup(name, car_ids, "motorway"))
        pool.extend(car_ids[:n_migrating])
    groups.append(
        VehicleGroup(
            link_name,
            tuple(range(motorways * n + 1, (motorways + 1) * n + 1)),
            "link",
        )
    )
    handovers: List[HandoverSpec] = []
    if pool:
        at = (
            spec.handover_at_s
            if spec.handover_at_s is not None
            else spec.duration_s / 2.0
        )
        handovers.append(HandoverSpec(at, link_name, tuple(pool), "link"))
    return CorridorTopology(tuple(rsus), tuple(groups), tuple(handovers))
