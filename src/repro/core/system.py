"""Testbed scenario assembly (the paper's Fig. 5 in simulation).

Two topologies, matching the evaluation:

- :meth:`TestbedScenario.single_rsu` — one motorway RSU serving 8-256
  vehicles (Fig. 6a latency and Fig. 6c bandwidth scalability).
- :meth:`TestbedScenario.corridor` — four motorway RSUs collaborating
  with one motorway-link RSU, 128 vehicles each, with mid-run vehicle
  handover (Fig. 6b dissemination latency and Fig. 6d per-RSU
  bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.collaborative import CollaborativeDetector, summaries_from_upstream
from repro.core.detector import AD3Detector
from repro.core.rsu import RsuConfig, RsuNode
from repro.core.scenario import ScenarioBuilder, ScenarioSpec
from repro.core.vehicle import VehicleNode, VehicleStats
from repro.core.wire import topic_serdes
from repro.dataset.generator import DatasetGenerator, GeneratorConfig
from repro.dataset.preprocess import Preprocessor
from repro.dataset.schema import TelemetryRecord
from repro.geo.network_builder import CityNetworkBuilder
from repro.geo.roadnet import RoadType
from repro.net.dsrc import DSRC_BANDWIDTH_BPS, DsrcChannel
from repro.net.htb import HtbClass, HtbShaper
from repro.net.link import WiredLink
from repro.simkernel.rng import RngRegistry
from repro.simkernel.simulator import Simulator


@dataclass
class ResilienceStats:
    """What the faults cost, and how the system absorbed them.

    Aggregated over the whole scenario after the run; the injector's
    ``fault_log`` records what was injected and when, the counters
    record the system's response.
    """

    #: Timestamped injector actions (empty on fault-free runs).
    fault_log: List[object] = field(default_factory=list)
    #: Telemetry refused by a down broker and dropped (no retry policy).
    records_lost: int = 0
    #: Telemetry buffered during an outage and later delivered.
    records_retried: int = 0
    #: Telemetry evicted from full retry buffers (lost despite retry).
    records_dropped: int = 0
    #: Telemetry not yet appended (retry backlog, HTB-delayed or on
    #: the air) discarded on purpose at a cross-road handover (stale
    #: for the new RSU's road model).
    records_abandoned: int = 0
    #: Warning polls refused by a down broker.
    poll_failures: int = 0
    #: Redundant produce attempts rejected by broker-side idempotence.
    duplicates_rejected: int = 0
    #: Broker shutdowns (crashes + permanent failures).
    broker_crashes: int = 0
    #: CO-DATA summaries lost to partitions or dead targets.
    summaries_lost: int = 0
    #: Per-RSU ``(time, "degraded" | "recovered")`` transitions.
    degradation_events: Dict[str, List[Tuple[float, str]]] = field(
        default_factory=dict
    )
    #: Per-RSU restart time (crashed-and-recovered nodes only).
    restarted_at_s: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "ResilienceStats") -> None:
        """Fold another partition's stats into this one (shards own
        disjoint RSUs and vehicles): counters add, per-RSU maps union,
        the fault log extends.  Driven by the field list so a counter
        added to the dataclass cannot be dropped under sharding."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, dict):
                mine.update(theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, spec.name, mine + theirs)

    def to_dict(self) -> dict:
        return {
            "fault_log": [
                {
                    "time_s": entry.time_s,
                    "kind": entry.kind,
                    "target": entry.target,
                    "detail": entry.detail,
                }
                for entry in self.fault_log
            ],
            "records_lost": self.records_lost,
            "records_retried": self.records_retried,
            "records_dropped": self.records_dropped,
            "records_abandoned": self.records_abandoned,
            "poll_failures": self.poll_failures,
            "duplicates_rejected": self.duplicates_rejected,
            "broker_crashes": self.broker_crashes,
            "summaries_lost": self.summaries_lost,
            "degradation_events": {
                name: [[t, kind] for t, kind in events]
                for name, events in self.degradation_events.items()
            },
            "restarted_at_s": dict(self.restarted_at_s),
        }


@dataclass
class RsuMetrics:
    """Per-RSU results."""

    name: str
    mean_processing_ms: float
    bandwidth_in_bps: float
    n_events: int
    warnings_issued: int
    summaries_sent: int
    summaries_received: int
    mean_tx_ms: float
    mean_queuing_ms: float
    #: Online detection quality (None if no labelled events).
    detection: Optional[object] = None
    #: CO-DATA byte/suppression accounting (zero unless the
    #: bandwidth-adaptive collaboration plane is enabled).
    co_bytes_sent: int = 0
    co_bytes_suppressed: int = 0
    co_msgs_gated: int = 0
    co_stale_dropped: int = 0


@dataclass
class ScenarioResult:
    """Everything the Fig. 6 experiments read."""

    config: ScenarioSpec
    duration_s: float
    rsu_metrics: Dict[str, RsuMetrics]
    vehicle_stats: Dict[int, VehicleStats]
    #: Fault/recovery accounting (None only for results built by older
    #: code paths that predate the resilience layer).
    resilience: Optional[ResilienceStats] = None
    #: Merged metrics snapshot (:class:`repro.obs.metrics.RegistrySnapshot`);
    #: None unless the run had ``observability=True``.
    obs: Optional[object] = None

    # ------------------------------------------------------------------
    def _all_latencies(self, attribute: str) -> np.ndarray:
        values: List[float] = []
        for stats in self.vehicle_stats.values():
            values.extend(getattr(stats, attribute))
        return np.asarray(values)

    @property
    def e2e_latencies_ms(self) -> np.ndarray:
        return self._all_latencies("e2e_latencies_s") * 1e3

    @property
    def dissemination_latencies_ms(self) -> np.ndarray:
        return self._all_latencies("dissemination_latencies_s") * 1e3

    def mean_e2e_ms(self) -> float:
        latencies = self.e2e_latencies_ms
        return float(latencies.mean()) if latencies.size else 0.0

    def mean_dissemination_ms(self) -> float:
        latencies = self.dissemination_latencies_ms
        return float(latencies.mean()) if latencies.size else 0.0

    def mean_tx_ms(self) -> float:
        weighted = [
            (m.mean_tx_ms, m.n_events) for m in self.rsu_metrics.values()
        ]
        total = sum(n for _, n in weighted)
        if total == 0:
            return 0.0
        return sum(v * n for v, n in weighted) / total

    def mean_processing_ms(self) -> float:
        values = [m.mean_processing_ms for m in self.rsu_metrics.values()]
        return float(np.mean(values)) if values else 0.0

    def per_vehicle_bandwidth_bps(self) -> float:
        rates = [
            stats.bandwidth_bps(self.duration_s)
            for stats in self.vehicle_stats.values()
        ]
        return float(np.mean(rates)) if rates else 0.0

    def total_bandwidth_bps(self) -> float:
        return sum(m.bandwidth_in_bps for m in self.rsu_metrics.values())

    def to_dict(self) -> dict:
        """JSON-serialisable summary (for experiment artefacts)."""
        return {
            "duration_s": self.duration_s,
            "resilience": (
                None if self.resilience is None else self.resilience.to_dict()
            ),
            "obs": None if self.obs is None else self.obs.to_dict(),
            "n_vehicles": len(self.vehicle_stats),
            "mean_e2e_ms": self.mean_e2e_ms(),
            "mean_tx_ms": self.mean_tx_ms(),
            "mean_processing_ms": self.mean_processing_ms(),
            "mean_dissemination_ms": self.mean_dissemination_ms(),
            "per_vehicle_bandwidth_bps": self.per_vehicle_bandwidth_bps(),
            "total_bandwidth_bps": self.total_bandwidth_bps(),
            "rsus": {
                name: {
                    "bandwidth_in_bps": metrics.bandwidth_in_bps,
                    "mean_processing_ms": metrics.mean_processing_ms,
                    "n_events": metrics.n_events,
                    "warnings_issued": metrics.warnings_issued,
                    "summaries_sent": metrics.summaries_sent,
                    "summaries_received": metrics.summaries_received,
                    "co_bytes_sent": metrics.co_bytes_sent,
                    "co_bytes_suppressed": metrics.co_bytes_suppressed,
                    "co_msgs_gated": metrics.co_msgs_gated,
                    "co_stale_dropped": metrics.co_stale_dropped,
                    "detection": (
                        None
                        if metrics.detection is None
                        else {
                            "accuracy": metrics.detection.accuracy,
                            "f1": metrics.detection.f1,
                            "tp_rate": metrics.detection.tp_rate,
                            "fn_rate": metrics.detection.fn_rate,
                        }
                    ),
                }
                for name, metrics in self.rsu_metrics.items()
            },
        }


def default_training_dataset(seed: int = 11, n_cars: int = 150):
    """A labelled corridor dataset big enough to train scenario models."""
    network = CityNetworkBuilder(seed=seed).build_corridor()
    generator = DatasetGenerator(
        network,
        GeneratorConfig(
            n_cars=n_cars, trips_per_car=6, seed=seed, erroneous_rate=0.0
        ),
    )
    dataset = generator.generate()
    dataset.records = Preprocessor().run(dataset.records)
    return dataset


@dataclass
class ScenarioBundle:
    """Fitted detectors and replay record pools for one scenario.

    Built once in the parent process; forked shard workers share it
    copy-on-write, so every shard materializes from byte-identical
    models and record pools.
    """

    detectors: Dict[str, object]
    pools: Dict[str, List[TelemetryRecord]]


def corridor_bundle(
    config: ScenarioSpec,
    dataset=None,
    link_detector_kind: str = "cad3",
) -> ScenarioBundle:
    """Train the corridor's detectors and split its replay pools.

    ``link_detector_kind`` selects what the link RSU runs: ``"cad3"``
    (the collaborative detector, default) or ``"ad3"`` (standalone NB).
    """
    if link_detector_kind not in ("cad3", "ad3"):
        raise ValueError(f"unknown link_detector_kind: {link_detector_kind!r}")
    dataset = dataset or default_training_dataset(config.seed)
    train, replay = TestbedScenario._train_replay_split(dataset)
    motorway_train = [r for r in train if r.road_type is RoadType.MOTORWAY]
    link_train = [r for r in train if r.road_type is RoadType.MOTORWAY_LINK]
    motorway_records = [r for r in replay if r.road_type is RoadType.MOTORWAY]
    link_records = [r for r in replay if r.road_type is RoadType.MOTORWAY_LINK]

    motorway_detector = AD3Detector(RoadType.MOTORWAY).fit(motorway_train)
    if link_detector_kind == "cad3":
        summaries = summaries_from_upstream(motorway_detector, motorway_train)
        link_detector = CollaborativeDetector(RoadType.MOTORWAY_LINK).fit(
            link_train, summaries
        )
    else:
        link_detector = AD3Detector(RoadType.MOTORWAY_LINK).fit(link_train)
    return ScenarioBundle(
        detectors={"motorway": motorway_detector, "link": link_detector},
        pools={"motorway": motorway_records, "link": link_records},
    )


def collect_rsu_metrics(
    rsus: Dict[str, "RsuNode"], duration_s: float
) -> Dict[str, RsuMetrics]:
    """Per-RSU metrics after a run (shared with the shard workers)."""
    rsu_metrics = {}
    for name, rsu in rsus.items():
        tx = rsu.events.tx_s()
        queuing = rsu.events.queuing_s()
        plane = getattr(rsu, "collab", None)
        rsu_metrics[name] = RsuMetrics(
            name=name,
            mean_processing_ms=rsu.mean_processing_ms(),
            bandwidth_in_bps=rsu.bandwidth_in_bps(duration_s),
            n_events=len(rsu.events),
            warnings_issued=rsu.warnings_issued,
            summaries_sent=rsu.summaries_sent,
            summaries_received=rsu.summaries_received,
            mean_tx_ms=float(np.mean(tx)) * 1e3 if tx.size else 0.0,
            mean_queuing_ms=(
                float(np.mean(queuing)) * 1e3 if queuing.size else 0.0
            ),
            detection=rsu.detection_report(),
            co_bytes_sent=0 if plane is None else plane.bytes_sent,
            co_bytes_suppressed=(
                0 if plane is None else plane.bytes_suppressed
            ),
            co_msgs_gated=0 if plane is None else plane.msgs_gated,
            co_stale_dropped=getattr(rsu, "summaries_stale_dropped", 0),
        )
    return rsu_metrics


class TestbedScenario:
    """A wired-up simulation ready to :meth:`run`."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: ScenarioSpec) -> None:
        self.config = config
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        self.rsus: Dict[str, RsuNode] = {}
        self.channels: Dict[str, DsrcChannel] = {}
        self.shapers: Dict[str, HtbShaper] = {}
        self.vehicles: List[VehicleNode] = []
        self._next_car_id = 1
        self._record_pools: Dict[RoadType, List[TelemetryRecord]] = {}
        self._injector = None
        # Populated by run() on observability runs.
        self.obs_registry = None
        self.obs_recorder = None

    @staticmethod
    def builder() -> ScenarioBuilder:
        """Start a fluent :class:`~repro.core.scenario.ScenarioBuilder`."""
        return ScenarioBuilder()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _rsu_config(self) -> RsuConfig:
        return RsuConfig(
            batch_interval_s=self.config.batch_interval_s,
            processing_model=self.config.processing_model,
            columnar=self.config.columnar,
            block=self.config.columnar,
            serdes=topic_serdes(self.config.serde_profile),
            upstream_timeout_s=self.config.upstream_timeout_s,
            collab=self.config.collab,
        )

    def add_rsu(self, name: str, detector) -> RsuNode:
        rsu = RsuNode(
            self.sim,
            name,
            detector,
            config=self._rsu_config(),
            jitter_rng=self.rng.stream(f"jitter.{name}"),
        )
        self.rsus[name] = rsu
        self.channels[name] = DsrcChannel(
            self.sim,
            mcs=self.config.mcs,
            rng=self.rng.stream(f"dsrc.{name}"),
            loss_prob=self.config.loss_prob,
        )
        if self.config.use_htb:
            root = HtbClass(f"{name}-root", DSRC_BANDWIDTH_BPS, DSRC_BANDWIDTH_BPS)
            self.shapers[name] = HtbShaper(root)
        collab = self.config.collab
        if (
            collab is not None
            and collab.enabled
            and collab.priority
            and self.config.use_htb
        ):
            # Two CO-DATA leaf classes under the RSU's shaper: urgent
            # (decision-changing deltas, warnings-adjacent) charges
            # before refresh (staleness keep-alives), so gated-but-sent
            # refresh traffic never delays what matters.
            shaper = self.shapers[name]
            urgent = shaper.add_leaf(
                HtbClass(
                    f"{name}-co-urgent",
                    collab.urgent_rate_bps,
                    DSRC_BANDWIDTH_BPS,
                    priority=0,
                )
            )
            refresh = shaper.add_leaf(
                HtbClass(
                    f"{name}-co-refresh",
                    collab.refresh_rate_bps,
                    DSRC_BANDWIDTH_BPS,
                    priority=1,
                )
            )
            rsu.attach_co_shaper(shaper, urgent.name, refresh.name)
        return rsu

    def _shaper_for(self, rsu_name: str, car_id: int) -> Optional[HtbShaper]:
        if not self.config.use_htb:
            return None
        shaper = self.shapers[rsu_name]
        leaf_name = f"vehicle-{car_id}"
        try:
            shaper.leaf(leaf_name)
        except KeyError:
            shaper.add_leaf(
                HtbClass(leaf_name, self.config.htb_floor_bps, DSRC_BANDWIDTH_BPS)
            )
        return shaper

    def add_vehicles(
        self,
        rsu_name: str,
        count: int,
        records: Sequence[TelemetryRecord],
    ) -> List[VehicleNode]:
        """Attach ``count`` vehicles to an RSU, striping ``records``."""
        car_ids = tuple(
            range(self._next_car_id, self._next_car_id + count)
        )
        return self.add_vehicles_with_ids(rsu_name, car_ids, records)

    def add_vehicles_with_ids(
        self,
        rsu_name: str,
        car_ids: Sequence[int],
        records: Sequence[TelemetryRecord],
    ) -> List[VehicleNode]:
        """Attach vehicles with explicit identities, striping ``records``.

        Shard workers build only their own vehicle groups, so car ids
        (and the ``vehicle.{car_id}`` RNG stream names derived from
        them) must come from the topology, not a build-order counter.
        Vehicle ``car_ids[i]`` replays stripe ``records[i::len(car_ids)]``
        — identical to the counter-based path for a full group.
        """
        if not records:
            raise ValueError("need a non-empty record pool")
        rsu = self.rsus[rsu_name]
        channel = self.channels[rsu_name]
        created = []
        count = len(car_ids)
        for index, car_id in enumerate(car_ids):
            stripe = list(records[index::count]) or list(records)
            vehicle = VehicleNode(
                self.sim,
                car_id,
                stripe,
                rsu,
                channel,
                shaper=self._shaper_for(rsu_name, car_id),
                update_rate_hz=self.config.update_rate_hz,
                poll_interval_s=self.config.poll_interval_s,
                rng=self.rng.stream(f"vehicle.{car_id}"),
                serdes=topic_serdes(self.config.serde_profile),
                dissemination=self.config.dissemination,
                retry=self.config.producer_retry,
            )
            self.vehicles.append(vehicle)
            created.append(vehicle)
        if car_ids:
            self._next_car_id = max(self._next_car_id, max(car_ids) + 1)
        return created

    def connect(self, src: str, dst: str, latency_s: float = 0.5e-3) -> None:
        link = WiredLink(self.sim, latency_s=latency_s, name=f"{src}->{dst}")
        self.rsus[src].connect(self.rsus[dst], link)

    # ------------------------------------------------------------------
    # Declarative assembly (shared with the sharded engine)
    # ------------------------------------------------------------------
    def materialize(
        self,
        topology,
        bundle: ScenarioBundle,
        local=None,
        remote_rsu=None,
    ) -> None:
        """Build (a shard of) a declarative topology.

        ``local=None`` builds everything (the serial path).  With a set
        of RSU names, only those RSUs and their vehicle groups are
        created; links toward non-local RSUs attach to a
        ``remote_rsu(name)`` proxy (the sharded engine's capture
        stand-in).  Handovers are *not* scheduled here: the serial path
        schedules them as simulator events
        (:meth:`schedule_topology_handovers`), the sharded engine
        executes them at its barriers.
        """

        def is_local(name: str) -> bool:
            return local is None or name in local

        for spec in topology.rsus:
            if not is_local(spec.name):
                continue
            self.add_rsu(spec.name, bundle.detectors[spec.detector])
            for dst in spec.connects_to:
                if is_local(dst):
                    self.connect(spec.name, dst)
                else:
                    if remote_rsu is None:
                        raise ValueError(
                            f"{spec.name!r} links to non-local {dst!r} but "
                            "no remote_rsu factory was given"
                        )
                    link = WiredLink(
                        self.sim, latency_s=0.5e-3, name=f"{spec.name}->{dst}"
                    )
                    self.rsus[spec.name].connect(remote_rsu(dst), link)
        for group in topology.groups:
            if is_local(group.rsu):
                self.add_vehicles_with_ids(
                    group.rsu, group.car_ids, bundle.pools[group.pool]
                )

    def schedule_topology_handovers(
        self, topology, bundle: ScenarioBundle
    ) -> None:
        """Schedule a topology's handovers as simulator events."""
        by_id = {vehicle.car_id: vehicle for vehicle in self.vehicles}
        for handover in topology.handovers:
            self.schedule_handover(
                [by_id[car_id] for car_id in handover.car_ids],
                handover.to_rsu,
                handover.at_s,
                bundle.pools[handover.pool],
            )

    def schedule_handover(
        self,
        vehicles: Sequence[VehicleNode],
        to_rsu: str,
        at_s: float,
        new_records: Sequence[TelemetryRecord],
    ) -> None:
        """Migrate ``vehicles`` to ``to_rsu`` at ``at_s`` (the paper's
        emulated mobility: producers switch RSU and sub-dataset)."""
        target = self.rsus[to_rsu]
        channel = self.channels[to_rsu]

        def migrate() -> None:
            for index, vehicle in enumerate(vehicles):
                old = vehicle.rsu
                old.handover(vehicle.car_id, to_rsu)
                # The vehicle changes road (and sub-dataset): telemetry
                # still buffered for the old RSU is stale, not replayed.
                vehicle.migrate(target, channel, drop_pending=True)
                vehicle.shaper = self._shaper_for(to_rsu, vehicle.car_id)
                stripe = list(new_records[index :: max(1, len(vehicles))])
                if stripe:
                    vehicle.set_records(stripe)

        self.sim.at(at_s, migrate, label="handover")

    def schedule_failover(
        self, rsu_name: str, fallback_name: str, at_s: float
    ) -> None:
        """Fail an RSU at ``at_s`` and re-home its vehicles.

        Models the edge-resilience scenario the paper motivates: when
        a node dies, its vehicles attach to a neighbouring RSU and
        detection continues (without the dead node's history — the
        failed node cannot forward CO-DATA summaries).
        """
        if rsu_name == fallback_name:
            raise ValueError("fallback must be a different RSU")
        failed = self.rsus[rsu_name]
        fallback = self.rsus[fallback_name]
        fallback_channel = self.channels[fallback_name]

        def fail() -> None:
            failed.fail()
            for vehicle in self.vehicles:
                if vehicle.rsu is failed:
                    vehicle.migrate(fallback, fallback_channel)
                    vehicle.shaper = self._shaper_for(
                        fallback_name, vehicle.car_id
                    )

        self.sim.at(at_s, fail, label="failover")

    # ------------------------------------------------------------------
    # Trip churn (mid-run spawn / retire)
    # ------------------------------------------------------------------
    def spawn_vehicles(
        self,
        rsu_name: str,
        count: int,
        at_s: float,
        records: Sequence[TelemetryRecord],
    ) -> None:
        """Schedule ``count`` fresh vehicles to join ``rsu_name`` at
        ``at_s`` and run until the scenario ends.

        Car ids are assigned when the spawn *fires* (from the same
        counter :meth:`add_vehicles` uses), so interleaved spawns stay
        deterministic: the simulator fires same-time events in schedule
        order.
        """
        if count < 1:
            raise ValueError("spawn count must be >= 1")

        def spawn() -> None:
            created = self.add_vehicles(rsu_name, count, records)
            for vehicle in created:
                vehicle.start(until=self.config.duration_s)

        self.sim.at(at_s, spawn, label="spawn")

    def schedule_retire(self, car_ids: Sequence[int], at_s: float) -> None:
        """Retire the given vehicles at ``at_s`` (their trips end).

        Retired vehicles stop producing and polling but stay attached,
        so their remaining warnings stay auditable; their stats are
        still collected at the end of the run.
        """
        targets = tuple(car_ids)

        def retire() -> None:
            by_id = {vehicle.car_id: vehicle for vehicle in self.vehicles}
            for car_id in targets:
                vehicle = by_id.get(car_id)
                if vehicle is None:
                    raise KeyError(f"no vehicle with car id {car_id}")
                vehicle.retire()

        self.sim.at(at_s, retire, label="retire")

    # ------------------------------------------------------------------
    # Canonical topologies
    # ------------------------------------------------------------------
    @staticmethod
    def _train_replay_split(dataset) -> tuple:
        """The paper's protocol: 80 % of trips train the models, the
        remaining 20 % are what the emulated vehicles replay online."""
        return dataset.split_by_trip(0.8, seed=0)

    @classmethod
    def single_rsu(
        cls, config: ScenarioSpec, dataset=None
    ) -> "TestbedScenario":
        """One motorway RSU with ``config.n_vehicles`` vehicles."""
        scenario = cls(config)
        dataset = dataset or default_training_dataset(config.seed)
        train, replay = cls._train_replay_split(dataset)
        motorway_train = [
            r for r in train if r.road_type is RoadType.MOTORWAY
        ]
        motorway_replay = [
            r for r in replay if r.road_type is RoadType.MOTORWAY
        ]
        detector = AD3Detector(RoadType.MOTORWAY).fit(motorway_train)
        scenario.add_rsu("rsu-motorway", detector)
        scenario.add_vehicles(
            "rsu-motorway", config.n_vehicles, motorway_replay
        )
        return scenario

    @classmethod
    def single_rsu_cloud(
        cls, config: ScenarioSpec, dataset=None, cloud=None
    ) -> "TestbedScenario":
        """The QF-COTE-style baseline: detection offloaded to the
        cloud behind the RSU (Sec. VII-A comparison)."""
        from repro.core.cloud import CloudRelayRsu

        scenario = cls(config)
        dataset = dataset or default_training_dataset(config.seed)
        train, replay = cls._train_replay_split(dataset)
        motorway_train = [
            r for r in train if r.road_type is RoadType.MOTORWAY
        ]
        motorway = [r for r in replay if r.road_type is RoadType.MOTORWAY]
        detector = AD3Detector(RoadType.MOTORWAY).fit(motorway_train)
        name = "rsu-motorway-cloud"
        rsu = CloudRelayRsu(
            scenario.sim,
            name,
            detector,
            cloud=cloud,
            config=scenario._rsu_config(),
            jitter_rng=scenario.rng.stream(f"jitter.{name}"),
        )
        scenario.rsus[name] = rsu
        scenario.channels[name] = DsrcChannel(
            scenario.sim,
            mcs=config.mcs,
            rng=scenario.rng.stream(f"dsrc.{name}"),
        )
        if config.use_htb:
            root = HtbClass(
                f"{name}-root", DSRC_BANDWIDTH_BPS, DSRC_BANDWIDTH_BPS
            )
            scenario.shapers[name] = HtbShaper(root)
        scenario.add_vehicles(name, config.n_vehicles, motorway)
        return scenario

    @classmethod
    def corridor(
        cls,
        config: ScenarioSpec,
        motorways: int = 4,
        dataset=None,
        link_detector_kind: str = "cad3",
    ) -> "TestbedScenario":
        """``motorways`` motorway RSUs collaborating with one link RSU.

        ``link_detector_kind`` selects what the link RSU runs:
        ``"cad3"`` (the collaborative detector, default) or ``"ad3"``
        (standalone NB) — the knob behind the full-system Fig. 7
        comparison.
        """
        from repro.core.topology import corridor_topology

        topology = corridor_topology(config, motorways)
        bundle = corridor_bundle(
            config, dataset=dataset, link_detector_kind=link_detector_kind
        )
        scenario = cls(config)
        scenario.materialize(topology, bundle)
        scenario.schedule_topology_handovers(topology, bundle)
        return scenario

    @classmethod
    def chain(
        cls,
        config: ScenarioSpec,
        hops: int = 3,
        dataset=None,
    ) -> "TestbedScenario":
        """``hops`` motorway RSUs in a line; every vehicle traverses
        them all, handing over (and carrying its summary on) at each
        boundary — the online form of the mesoscopic chain.
        """
        if hops < 2:
            raise ValueError("a chain needs at least 2 hops")
        scenario = cls(config)
        dataset = dataset or default_training_dataset(config.seed)
        train, replay = cls._train_replay_split(dataset)
        motorway_train = [
            r for r in train if r.road_type is RoadType.MOTORWAY
        ]
        motorway_replay = [
            r for r in replay if r.road_type is RoadType.MOTORWAY
        ]
        nb = AD3Detector(RoadType.MOTORWAY).fit(motorway_train)
        summaries = summaries_from_upstream(nb, motorway_train)
        collaborative = CollaborativeDetector(
            RoadType.MOTORWAY, nb=nb
        ).fit(motorway_train, summaries, refit_nb=False)

        names = [f"rsu-hop-{index + 1}" for index in range(hops)]
        for index, name in enumerate(names):
            # First hop detects standalone; downstream hops fuse the
            # carried-on history.
            scenario.add_rsu(name, nb if index == 0 else collaborative)
            if index > 0:
                scenario.connect(names[index - 1], name)
        vehicles = scenario.add_vehicles(
            names[0], config.n_vehicles, motorway_replay
        )
        dwell = config.duration_s / hops
        for index in range(1, hops):
            scenario.schedule_handover(
                vehicles, names[index], index * dwell, motorway_replay
            )
        return scenario

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Start everything, run for the configured duration, collect."""
        until = self.config.duration_s
        if self.config.faults is not None and self._injector is None:
            # Imported lazily: repro.faults builds on repro.core.
            from repro.faults.injector import FaultInjector

            self._injector = FaultInjector(self)
            self._injector.install(self.config.faults)
        observing = self.config.observability
        snapshot = None
        if observing:
            # Imported lazily: repro.obs stays off the cold path.
            from repro.obs import metrics as obs_metrics
            from repro.obs.collect import finalize_scenario
            from repro.obs.trace import (
                SpanRecorder,
                disable_tracing,
                enable_tracing,
            )

            self.obs_registry = obs_metrics.MetricsRegistry()
            self.obs_recorder = SpanRecorder()
            obs_metrics.enable(self.obs_registry)
            enable_tracing(self.obs_recorder)
        try:
            for rsu in self.rsus.values():
                rsu.start(until=until)
            for vehicle in self.vehicles:
                vehicle.start(until=until)
            # Allow in-flight batches/polls to complete shortly past the
            # nominal end before freezing measurements.
            self.sim.run_until(until + 0.5)
            self.wind_down()
            if observing:
                finalize_scenario(self, self.obs_registry, self.obs_recorder)
                snapshot = self.obs_registry.snapshot()
        finally:
            if observing:
                obs_metrics.disable()
                disable_tracing()

        return ScenarioResult(
            config=self.config,
            duration_s=self.config.duration_s,
            rsu_metrics=collect_rsu_metrics(self.rsus, self.config.duration_s),
            vehicle_stats={v.car_id: v.stats for v in self.vehicles},
            resilience=self._collect_resilience(),
            obs=snapshot,
        )

    def wind_down(self) -> None:
        """Freeze a run at the current instant (shared with the shard
        workers).  Frames still deferred past the last tick resolve
        first: those delivered by now land, the rest stay on the air
        for good, their delivery events never to fire."""
        for channel in self.channels.values():
            channel.flush(self.sim.now)
        for vehicle in self.vehicles:
            vehicle.stop()
        for rsu in self.rsus.values():
            rsu.stop()

    def _collect_resilience(self) -> ResilienceStats:
        """Aggregate fault/recovery accounting across all nodes."""
        stats = ResilienceStats(
            fault_log=list(self._injector.log) if self._injector else []
        )
        for vehicle in self.vehicles:
            stats.records_lost += vehicle.stats.records_lost
            stats.poll_failures += vehicle.stats.poll_failures
            stats.records_retried += vehicle._producer.records_retried
            stats.records_dropped += vehicle._producer.records_dropped
            stats.records_abandoned += vehicle._producer.records_abandoned
        for name, rsu in self.rsus.items():
            stats.duplicates_rejected += rsu.broker.duplicates_rejected
            stats.broker_crashes += rsu.broker.crashes
            stats.summaries_lost += rsu.summaries_lost
            if rsu.degradation_events:
                stats.degradation_events[name] = list(rsu.degradation_events)
            if rsu.restarted_at is not None:
                stats.restarted_at_s[name] = rsu.restarted_at
        return stats
