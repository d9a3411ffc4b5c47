"""Synthetic telemetry generation.

Substitute for the paper's proprietary Shenzhen private-car dataset.
The generator produces two artefacts:

- **Telemetry records** (Table II shape) — the feature rows consumed by
  the detection models; produced directly at scale, in place of the
  paper's raw-GPS trips and their Eq. 4 derivation.
- Per-record **ground-truth anomaly kinds** — what the paper's offline
  sigma-cutoff labelling approximates.

The behavioural structure that matters for CAD3 (persistent per-driver
anomaly episodes spanning segment handovers) comes from
:class:`repro.dataset.drivers.DriverModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.drivers import DriverModel, DriverProfile
from repro.dataset.schema import AnomalyKind, TelemetryRecord
from repro.dataset.speed_profiles import SpeedProfileLibrary
from repro.geo.roadnet import RoadNetwork, RoadSegment, RoadType
from repro.simkernel.rng import RngRegistry

#: Seconds in a day; trips are placed inside a (day, hour) grid.
DAY_S = 86_400.0


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic dataset.

    Defaults are sized for unit-test speed; experiment harnesses scale
    ``n_cars`` / ``trips_per_car`` up to paper-sized workloads.
    """

    n_cars: int = 50
    n_days: int = 7
    trips_per_car: int = 4  # mean trips per car over the whole window
    sample_period_s: float = 3.0  # telemetry sampling period
    max_records_per_segment: int = 60
    min_records_per_segment: int = 3
    erroneous_rate: float = 0.01  # fraction of corrupted records
    seed: int = 42
    #: Trip shape: "corridor" sends every trip motorway -> motorway
    #: link (the microscopic use case); "random" walks the road graph;
    #: "routed" Dijkstra-routes between random segments (connected
    #: networks such as the grid city).
    route_plan: str = "corridor"
    route_length: int = 3  # segments per random-walk route

    def __post_init__(self) -> None:
        if self.n_cars < 1:
            raise ValueError("n_cars must be >= 1")
        if not 1 <= self.n_days <= 31:
            raise ValueError("n_days must be in [1, 31]")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if not 0.0 <= self.erroneous_rate < 1.0:
            raise ValueError("erroneous_rate must be in [0, 1)")
        if self.route_plan not in ("corridor", "random", "routed"):
            raise ValueError(f"unknown route_plan: {self.route_plan}")


@dataclass
class SyntheticDataset:
    """The generator's output bundle."""

    records: List[TelemetryRecord]
    network: RoadNetwork
    profiles: SpeedProfileLibrary
    drivers: Dict[int, DriverProfile] = field(default_factory=dict)

    def by_road_type(self, road_type: RoadType) -> List[TelemetryRecord]:
        return [r for r in self.records if r.road_type is road_type]

    def split(
        self, train_fraction: float = 0.8, seed: int = 0
    ) -> Tuple[List[TelemetryRecord], List[TelemetryRecord]]:
        """Deterministic shuffled train/test split (paper uses 80/20)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        order = np.random.default_rng(seed).permutation(len(self.records))
        cut = int(len(self.records) * train_fraction)
        train = [self.records[i] for i in order[:cut]]
        test = [self.records[i] for i in order[cut:]]
        return train, test

    def split_by_trip(
        self, train_fraction: float = 0.8, seed: int = 0
    ) -> Tuple[List[TelemetryRecord], List[TelemetryRecord]]:
        """Split keeping each trip's records together.

        The collaborative model consumes per-trip prediction history, so
        its evaluation must not leak records of one trip across the
        split.  Trips are keyed by the record's ``trip_id``: the trips,
        in id order, are shuffled and cut, and each side lists its
        trips' records trip by trip in shuffled order, each trip's in
        record order (one stable sort on the trips' shuffled ranks).
        """
        records = self.records
        trip_ids = np.fromiter(
            map(attrgetter("trip_id"), records), np.int64, len(records)
        )
        trips, trip_of = np.unique(trip_ids, return_inverse=True)
        order = np.random.default_rng(seed).permutation(len(trips))
        cut = int(len(trips) * train_fraction)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        record_rank = rank[trip_of]
        ordered = np.argsort(record_rank, kind="stable").tolist()
        n_train = int(np.count_nonzero(record_rank < cut))
        take = records.__getitem__
        train = list(map(take, ordered[:n_train]))
        test = list(map(take, ordered[n_train:]))
        return train, test


class DatasetGenerator:
    """Generate a :class:`SyntheticDataset` over a road network."""

    #: Aggressiveness is Beta-distributed: most drivers are calm, a
    #: long tail is aggressive.
    AGGRESSIVENESS_ALPHA = 2.0
    AGGRESSIVENESS_BETA = 5.0

    def __init__(
        self,
        network: RoadNetwork,
        config: Optional[GeneratorConfig] = None,
        profiles: Optional[SpeedProfileLibrary] = None,
    ) -> None:
        self.network = network
        self.config = config or GeneratorConfig()
        self.profiles = profiles or SpeedProfileLibrary()
        registry = RngRegistry(self.config.seed)
        self._rng = registry.stream("dataset.generator")
        self._driver_rng = registry.stream("dataset.drivers")
        self._error_rng = registry.stream("dataset.errors")
        self._router = None  # built lazily for the "routed" plan

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def make_drivers(self) -> Dict[int, DriverProfile]:
        drivers = {}
        for car_id in range(1, self.config.n_cars + 1):
            aggressiveness = float(
                self._rng.beta(self.AGGRESSIVENESS_ALPHA, self.AGGRESSIVENESS_BETA)
            )
            bias = float(self._rng.normal(0.0, 3.0))
            drivers[car_id] = DriverProfile(
                car_id=car_id,
                aggressiveness=aggressiveness,
                speed_bias_kmh=bias,
            )
        return drivers

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _corridor_route(self) -> List[RoadSegment]:
        motorways = self.network.by_road_type(RoadType.MOTORWAY)
        links = self.network.by_road_type(RoadType.MOTORWAY_LINK)
        if not motorways or not links:
            raise ValueError(
                "corridor route plan needs motorway and motorway_link "
                "segments in the network"
            )
        motorway = motorways[int(self._rng.integers(len(motorways)))]
        link = links[int(self._rng.integers(len(links)))]
        return [motorway, link]

    def _random_route(self) -> List[RoadSegment]:
        ids = self.network.segment_ids()
        start = ids[int(self._rng.integers(len(ids)))]
        route = [self.network.segment(start)]
        current = start
        for _ in range(self.config.route_length - 1):
            neighbors = self.network.neighbors(current)
            if not neighbors:
                break
            current = neighbors[int(self._rng.integers(len(neighbors)))]
            route.append(self.network.segment(current))
        return route

    def _routed_route(self) -> List[RoadSegment]:
        from repro.geo.router import RouteNotFound, Router

        if self._router is None:
            self._router = Router(self.network)
        ids = self.network.segment_ids()
        for _ in range(20):
            source = ids[int(self._rng.integers(len(ids)))]
            destination = ids[int(self._rng.integers(len(ids)))]
            try:
                path = self._router.route(source, destination)
            except RouteNotFound:
                continue
            if len(path) >= 2:
                return [self.network.segment(sid) for sid in path]
        # Disconnected or degenerate network: fall back to a walk.
        return self._random_route()

    def _route(self) -> List[RoadSegment]:
        if self.config.route_plan == "corridor":
            return self._corridor_route()
        if self.config.route_plan == "routed":
            return self._routed_route()
        return self._random_route()

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self) -> SyntheticDataset:
        """Produce the full dataset."""
        drivers = self.make_drivers()
        records: List[TelemetryRecord] = []
        trip_object_id = 1
        for car_id, profile in drivers.items():
            model = DriverModel(profile, self._driver_rng)
            n_trips = max(
                1, int(self._rng.poisson(self.config.trips_per_car))
            )
            for _ in range(n_trips):
                day = int(self._rng.integers(1, self.config.n_days + 1))
                hour = self._sample_trip_hour()
                route = self._route()
                records.extend(
                    self._generate_trip(
                        trip_object_id, car_id, model, route, day, hour
                    )
                )
                trip_object_id += 1
        return SyntheticDataset(
            records=records,
            network=self.network,
            profiles=self.profiles,
            drivers=drivers,
        )

    def _sample_trip_hour(self) -> int:
        """Trip start hours concentrate at rush hours (bimodal)."""
        if self._rng.random() < 0.6:
            center = 8.0 if self._rng.random() < 0.5 else 18.0
            hour = int(round(self._rng.normal(center, 2.0)))
        else:
            hour = int(self._rng.integers(0, 24))
        return min(23, max(0, hour))

    def _generate_trip(
        self,
        object_id: int,
        car_id: int,
        model: DriverModel,
        route: Sequence[RoadSegment],
        day: int,
        hour: int,
    ) -> List[TelemetryRecord]:
        config = self.config
        model.begin_trip()
        records: List[TelemetryRecord] = []
        weekend = TelemetryRecord(
            car_id=car_id,
            road_id=route[0].segment_id,
            accel_ms2=0.0,
            speed_kmh=0.0,
            hour=hour,
            day=day,
            road_type=route[0].road_type,
            road_mean_speed_kmh=1.0,
        ).is_weekend
        clock = (day - 1) * DAY_S + hour * 3600.0
        for leg_index, segment in enumerate(route):
            if leg_index > 0:
                model.on_segment_change()
            profile = self.profiles.profile(segment.road_type, hour, weekend)
            n_samples = self._samples_for_segment(segment, profile.mean_kmh)
            # The behaviour state is fixed for the whole segment, so the
            # per-sample speed/accel normals batch into one vectorized
            # draw with identical stream consumption.  Only a
            # SUDDEN_ACCELERATION episode interleaves a uniform between
            # the normals and must keep the scalar loop.
            if model.anomaly_kind is AnomalyKind.SUDDEN_ACCELERATION:
                pairs = [
                    (
                        model.sample_speed(profile.mean_kmh, profile.sigma_kmh),
                        model.sample_accel(
                            profile.sigma_kmh, config.sample_period_s
                        ),
                    )
                    for _ in range(n_samples)
                ]
            else:
                speeds, accels = model.sample_batch(
                    profile.mean_kmh, profile.sigma_kmh, n_samples
                )
                pairs = list(zip(speeds.tolist(), accels.tolist()))
            pairs = self._corrupt_batch(pairs)
            for speed, accel in pairs:
                records.append(
                    TelemetryRecord(
                        car_id=car_id,
                        road_id=segment.segment_id,
                        accel_ms2=accel,
                        speed_kmh=speed,
                        hour=hour,
                        day=day,
                        road_type=segment.road_type,
                        road_mean_speed_kmh=profile.mean_kmh,
                        anomaly_kind=model.anomaly_kind,
                        timestamp=clock,
                        trip_id=object_id,
                    )
                )
                clock += config.sample_period_s
        return records

    def _samples_for_segment(
        self, segment: RoadSegment, mean_speed_kmh: float
    ) -> int:
        """Telemetry samples for one traversal, from traversal time."""
        config = self.config
        traversal_s = segment.length_m / max(mean_speed_kmh / 3.6, 1.0)
        n_samples = int(traversal_s / config.sample_period_s)
        return max(
            config.min_records_per_segment,
            min(config.max_records_per_segment, n_samples),
        )

    def _maybe_corrupt(self, speed: float, accel: float) -> Tuple[float, float]:
        """Inject the erroneous measurements the paper filters out."""
        if self._error_rng.random() >= self.config.erroneous_rate:
            return speed, accel
        mode = self._error_rng.integers(3)
        if mode == 0:
            return float(self._error_rng.uniform(400.0, 1000.0)), accel
        if mode == 1:
            return speed, float(self._error_rng.uniform(25.0, 80.0))
        return 0.0, 0.0  # stuck-sensor reading

    def _corrupt_batch(
        self, pairs: List[Tuple[float, float]]
    ) -> List[Tuple[float, float]]:
        """Apply :meth:`_maybe_corrupt` to a segment's samples.

        Fast path: draw the per-sample gate uniforms as one block.
        When none trips (the common case at the default 1% rate) the
        error stream has consumed exactly the same ``n`` doubles the
        scalar loop would have, and nothing else.  When any trips, the
        corruption draws must interleave with the gates sample by
        sample, so the stream is rewound to the snapshot and the scalar
        loop replays it faithfully.
        """
        n = len(pairs)
        rate = self.config.erroneous_rate
        if n == 0 or rate == 0.0:
            if n:
                self._error_rng.random(n)  # keep the gate consumption
            return pairs
        state = self._error_rng.bit_generator.state
        gates = self._error_rng.random(n)
        if not (gates < rate).any():
            return pairs
        self._error_rng.bit_generator.state = state
        return [self._maybe_corrupt(speed, accel) for speed, accel in pairs]

