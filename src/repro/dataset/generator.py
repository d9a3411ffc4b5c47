"""Synthetic telemetry generation.

Substitute for the paper's proprietary Shenzhen private-car dataset.
The generator produces two artefacts, as columns of one
:class:`~repro.dataset.schema.TelemetryBlock`:

- **Telemetry rows** (Table II shape) — the feature rows consumed by
  the detection models; produced directly at scale, in place of the
  paper's raw-GPS trips and their Eq. 4 derivation.
- Per-row **ground-truth anomaly kinds** — what the paper's offline
  sigma-cutoff labelling approximates.

The behavioural structure that matters for CAD3 (persistent per-driver
anomaly episodes spanning segment handovers) comes from
:class:`repro.dataset.drivers.DriverModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.drivers import DriverModel, DriverProfile
from repro.dataset.preprocess import _groups
from repro.dataset.schema import (
    ANOMALY_KIND_INDEX,
    NO_LABEL,
    ROAD_TYPE_INDEX,
    AnomalyKind,
    TelemetryBlock,
    TelemetryRecord,
    is_weekend,
)
from repro.dataset.speed_profiles import SpeedProfile, SpeedProfileLibrary
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
    #: Probability an anomaly episode persists across a segment
    #: handover (:class:`DriverModel`'s ``episode_continue_prob``).
    episode_continue_prob: float = 0.85

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
        if not 0.0 <= self.episode_continue_prob <= 1.0:
            raise ValueError("episode_continue_prob must be in [0, 1]")


@dataclass(eq=False)
class SyntheticDataset:
    """The dataset as one column store: ``block`` holds the Table II
    rows as columns and ``trip_id`` each row's generating trip.

    Filtering, labelling and splitting are array passes that return
    datasets; :attr:`records` is a row view for per-record consumers,
    materialized on first use.
    """

    block: TelemetryBlock
    trip_id: np.ndarray
    network: Optional[RoadNetwork] = None
    profiles: Optional[SpeedProfileLibrary] = None
    drivers: Dict[int, DriverProfile] = field(default_factory=dict)
    _records: Optional[List[TelemetryRecord]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.trip_id) != len(self.block):
            raise ValueError(
                f"{len(self.trip_id)} trip ids for {len(self.block)} rows"
            )
        self.block.validate()

    @classmethod
    def from_records(
        cls,
        records: Sequence[TelemetryRecord],
        network: Optional[RoadNetwork] = None,
        profiles: Optional[SpeedProfileLibrary] = None,
    ) -> "SyntheticDataset":
        """The dataset of a record sequence (a record-list caller's one
        conversion, e.g. a CSV read back)."""
        records = list(records)
        trip_id = np.fromiter(
            map(attrgetter("trip_id"), records), np.int64, len(records)
        )
        return cls(TelemetryBlock.from_records(records), trip_id, network, profiles)

    @property
    def records(self) -> List[TelemetryRecord]:
        """The rows as records (made once, on first use)."""
        if self._records is None:
            self._records = self.block.records(self.trip_id)
        return self._records

    def take(self, index) -> "SyntheticDataset":
        """The rows ``index`` (a mask or positions) selects."""
        return replace(
            self, block=self.block.take(index), trip_id=self.trip_id[index]
        )

    def trips(self) -> Dict[int, np.ndarray]:
        """Each trip's row positions in row order, the trips in the
        order of their first row (one stable sort by trip id)."""
        if not len(self.trip_id):
            return {}
        return dict(sorted(_groups(self.trip_id), key=lambda group: group[1][0]))

    def by_road_type(self, road_type: RoadType) -> "SyntheticDataset":
        """The rows on ``road_type`` roads."""
        code = ROAD_TYPE_INDEX[road_type.value]
        return self.take(self.block.road_type_code == code)

    def split(
        self, train_fraction: float = 0.8, seed: int = 0
    ) -> Tuple["SyntheticDataset", "SyntheticDataset"]:
        """Deterministic shuffled train/test split (paper uses 80/20)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        order = np.random.default_rng(seed).permutation(len(self.block))
        cut = int(len(self.block) * train_fraction)
        return self.take(order[:cut]), self.take(order[cut:])

    def split_by_trip(
        self, train_fraction: float = 0.8, seed: int = 0
    ) -> Tuple["SyntheticDataset", "SyntheticDataset"]:
        """Split keeping each trip's records together.

        The collaborative model consumes per-trip prediction history, so
        its evaluation must not leak records of one trip across the
        split.  The trips, in id order, are shuffled and cut, and each
        side lists its trips' rows trip by trip in shuffled order, each
        trip's in row order (one stable sort on the trips' shuffled
        ranks).
        """
        trips, trip_of = np.unique(self.trip_id, return_inverse=True)
        order = np.random.default_rng(seed).permutation(len(trips))
        cut = int(len(trips) * train_fraction)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        row_rank = rank[trip_of]
        ordered = np.argsort(row_rank, kind="stable")
        n_train = int(np.count_nonzero(row_rank < cut))
        return self.take(ordered[:n_train]), self.take(ordered[n_train:])


class _Chunks:
    """The dataset being generated, as per-segment column chunks that
    :meth:`columns` concatenates once."""

    def __init__(self) -> None:
        #: Per segment: car, trip, road id, road-type code, hour, day,
        #: road mean speed, anomaly-kind code, sample count, speeds and
        #: accelerations.
        self.segments: List[tuple] = []
        #: Per trip: its clock at the first sample and its sample count.
        self.trips: List[Tuple[float, int]] = []

    def columns(self, sample_period_s: float) -> Tuple[TelemetryBlock, np.ndarray]:
        """The block and the trip-id column."""
        (
            cars, trips, roads, types, hours, days, means, kinds, counts,
            speeds, accels,
        ) = zip(*self.segments)
        counts = np.array(counts)

        def rows(column: tuple) -> np.ndarray:
            return np.repeat(np.array(column), counts)

        n = int(counts.sum())
        nan = np.full(n, np.nan)
        block = TelemetryBlock(
            car_id=rows(cars),
            road_id=rows(roads),
            accel_ms2=np.concatenate(accels),
            speed_kmh=np.concatenate(speeds),
            hour=rows(hours),
            day=rows(days),
            road_type_code=rows(types),
            road_mean_speed_kmh=rows(means),
            timestamp=self._timestamps(sample_period_s),
            anomaly_kind_code=rows(kinds),
            label=np.full(n, NO_LABEL, dtype=np.int8),
            generated_at=nan,
            arrived_at=nan,
        )
        return block, rows(trips)

    def _timestamps(self, sample_period_s: float) -> np.ndarray:
        """Each sample's trip clock, which starts at the trip's start and
        advances by the period after each sample: one row per trip,
        summed left to right along the row (``start + k * period``
        rounds differently), read back trip by trip."""
        starts, lengths = (np.array(column) for column in zip(*self.trips))
        width = max(1, int(lengths.max()))
        steps = np.full((len(starts), width), sample_period_s)
        steps[:, 0] = starts
        clocks = np.cumsum(steps, axis=1)
        return clocks[np.arange(width) < lengths[:, None]]


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
        self._corridor = None  # the corridor plan's motorways and links
        #: (segment id, hour, weekend) -> :meth:`_leg`.
        self._legs: Dict[Tuple[int, int, bool], tuple] = {}

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
        if self._corridor is None:
            motorways = self.network.by_road_type(RoadType.MOTORWAY)
            links = self.network.by_road_type(RoadType.MOTORWAY_LINK)
            if not motorways or not links:
                raise ValueError(
                    "corridor route plan needs motorway and motorway_link "
                    "segments in the network"
                )
            self._corridor = (motorways, links)
        motorways, links = self._corridor
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
        config = self.config
        drivers = self.make_drivers()
        chunks = _Chunks()
        trip_object_id = 1
        for car_id, profile in drivers.items():
            model = DriverModel(
                profile,
                self._driver_rng,
                episode_continue_prob=config.episode_continue_prob,
            )
            n_trips = max(1, int(self._rng.poisson(config.trips_per_car)))
            for _ in range(n_trips):
                day = int(self._rng.integers(1, config.n_days + 1))
                hour = self._sample_trip_hour()
                route = self._route()
                self._generate_trip(
                    chunks, trip_object_id, car_id, model, route, day, hour
                )
                trip_object_id += 1
        block, trip_id = chunks.columns(config.sample_period_s)
        if config.erroneous_rate == 0.0:
            # No gate can trip, so the per-sample gates the error stream
            # owes are drawn as one block.
            self._error_rng.random(len(block))
        return SyntheticDataset(
            block=block,
            trip_id=trip_id,
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
        chunks: _Chunks,
        object_id: int,
        car_id: int,
        model: DriverModel,
        route: Sequence[RoadSegment],
        day: int,
        hour: int,
    ) -> None:
        """Append one trip's segments to ``chunks``."""
        config = self.config
        model.begin_trip()
        weekend = is_weekend(day)
        legs = self._legs
        corrupt = config.erroneous_rate > 0.0
        n_trip = 0
        for leg_index, segment in enumerate(route):
            if leg_index > 0:
                model.on_segment_change()
            key = (segment.segment_id, hour, weekend)
            leg = legs.get(key)
            if leg is None:
                leg = legs[key] = self._leg(segment, hour, weekend)
            profile, n_samples, road_type_code = leg
            # The behaviour state is fixed for the whole segment, so the
            # per-sample speed/accel normals batch into one vectorized
            # draw with identical stream consumption.  Only a
            # SUDDEN_ACCELERATION episode interleaves a uniform between
            # the normals and must keep the scalar loop.
            kind = model.anomaly_kind
            if kind is AnomalyKind.SUDDEN_ACCELERATION:
                speeds = np.empty(n_samples)
                accels = np.empty(n_samples)
                for index in range(n_samples):
                    speeds[index] = model.sample_speed(
                        profile.mean_kmh, profile.sigma_kmh
                    )
                    accels[index] = model.sample_accel(
                        profile.sigma_kmh, config.sample_period_s
                    )
            else:
                speeds, accels = model.sample_batch(
                    profile.mean_kmh, profile.sigma_kmh, n_samples
                )
            if corrupt:
                self._corrupt_batch(speeds, accels)
            chunks.segments.append(
                (
                    car_id,
                    object_id,
                    segment.segment_id,
                    road_type_code,
                    hour,
                    day,
                    profile.mean_kmh,
                    ANOMALY_KIND_INDEX[kind._value_],
                    n_samples,
                    speeds,
                    accels,
                )
            )
            n_trip += n_samples
        chunks.trips.append(((day - 1) * DAY_S + hour * 3600.0, n_trip))

    def _leg(
        self, segment: RoadSegment, hour: int, weekend: bool
    ) -> Tuple[SpeedProfile, int, int]:
        """A segment's speed profile, samples per traversal and
        road-type code at (hour, weekend): the same for every trip that
        drives it then, so :meth:`_generate_trip` memoizes them."""
        profile = self.profiles.profile(segment.road_type, hour, weekend)
        n_samples = self._samples_for_segment(segment, profile.mean_kmh)
        return profile, n_samples, ROAD_TYPE_INDEX[segment.road_type.value]

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

    def _corrupt_batch(self, speeds: np.ndarray, accels: np.ndarray) -> None:
        """Apply :meth:`_maybe_corrupt` to a segment's samples, in place.

        Fast path: draw the per-sample gate uniforms as one block.
        When none trips (the common case at the default 1% rate) the
        error stream has consumed exactly the same ``n`` doubles the
        scalar loop would have, and nothing else.  When any trips, the
        corruption draws must interleave with the gates sample by
        sample, so the stream is rewound to the snapshot and the scalar
        loop replays it faithfully.
        """
        state = self._error_rng.bit_generator.state
        gates = self._error_rng.random(len(speeds))
        if not (gates < self.config.erroneous_rate).any():
            return
        self._error_rng.bit_generator.state = state
        for index in range(len(speeds)):
            speeds[index], accels[index] = self._maybe_corrupt(
                speeds[index], accels[index]
            )
