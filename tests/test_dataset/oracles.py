"""The per-record reference generator.

:class:`~repro.dataset.generator.DatasetGenerator` writes the dataset as
per-segment column chunks.  :func:`reference_records` is the form it
replaced: the same draws, in the same order, but one
:class:`TelemetryRecord` built per sample with a running clock, speeds
and accelerations taken from the vectorized draw value by value, and
corruption applied to (speed, accel) pairs.  It reuses the generator
for what the column form did not change (RNG streams, drivers, routes,
trip hours, samples per segment) and holds its own copy of what it did.

The differential test in ``test_generator.py`` holds the column
generator's rows equal to these records, ``repr`` for ``repr``, and its
RNG streams' end states to the reference's.
"""

from typing import List, Sequence, Tuple

from repro.dataset.drivers import DriverModel
from repro.dataset.generator import DAY_S, DatasetGenerator
from repro.dataset.schema import AnomalyKind, TelemetryRecord
from repro.geo.roadnet import RoadSegment


def reference_records(generator: DatasetGenerator) -> List[TelemetryRecord]:
    """What ``generator.generate().records`` must equal, drawn from a
    fresh ``generator`` of the same network and config (whose RNG
    streams it leaves where ``generate`` must leave them)."""
    config = generator.config
    drivers = generator.make_drivers()
    records: List[TelemetryRecord] = []
    trip_object_id = 1
    for car_id, profile in drivers.items():
        model = DriverModel(
            profile,
            generator._driver_rng,
            episode_continue_prob=config.episode_continue_prob,
        )
        n_trips = max(1, int(generator._rng.poisson(config.trips_per_car)))
        for _ in range(n_trips):
            day = int(generator._rng.integers(1, config.n_days + 1))
            hour = generator._sample_trip_hour()
            route = generator._route()
            records.extend(
                _generate_trip(
                    generator, trip_object_id, car_id, model, route, day, hour
                )
            )
            trip_object_id += 1
    return records


def _generate_trip(
    generator: DatasetGenerator,
    object_id: int,
    car_id: int,
    model: DriverModel,
    route: Sequence[RoadSegment],
    day: int,
    hour: int,
) -> List[TelemetryRecord]:
    config = generator.config
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
        profile = generator.profiles.profile(segment.road_type, hour, weekend)
        n_samples = generator._samples_for_segment(segment, profile.mean_kmh)
        if model.anomaly_kind is AnomalyKind.SUDDEN_ACCELERATION:
            pairs = [
                (
                    model.sample_speed(profile.mean_kmh, profile.sigma_kmh),
                    model.sample_accel(profile.sigma_kmh, config.sample_period_s),
                )
                for _ in range(n_samples)
            ]
        else:
            speeds, accels = model.sample_batch(
                profile.mean_kmh, profile.sigma_kmh, n_samples
            )
            pairs = list(zip(speeds.tolist(), accels.tolist()))
        pairs = _corrupt_batch(generator, pairs)
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


def _maybe_corrupt(
    generator: DatasetGenerator, speed: float, accel: float
) -> Tuple[float, float]:
    rng = generator._error_rng
    if rng.random() >= generator.config.erroneous_rate:
        return speed, accel
    mode = rng.integers(3)
    if mode == 0:
        return float(rng.uniform(400.0, 1000.0)), accel
    if mode == 1:
        return speed, float(rng.uniform(25.0, 80.0))
    return 0.0, 0.0


def _corrupt_batch(
    generator: DatasetGenerator, pairs: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    rng = generator._error_rng
    n = len(pairs)
    rate = generator.config.erroneous_rate
    if n == 0 or rate == 0.0:
        if n:
            rng.random(n)
        return pairs
    state = rng.bit_generator.state
    gates = rng.random(n)
    if not (gates < rate).any():
        return pairs
    rng.bit_generator.state = state
    return [_maybe_corrupt(generator, speed, accel) for speed, accel in pairs]
