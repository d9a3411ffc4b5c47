"""Tests for the synthetic dataset generator."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset import AnomalyKind, DatasetGenerator, GeneratorConfig
from repro.geo import CityNetworkBuilder, RoadType
from tests.test_dataset.oracles import reference_records


@pytest.fixture(scope="module")
def corridor():
    return CityNetworkBuilder(seed=1).build_corridor()


@pytest.fixture(scope="module")
def small_dataset(corridor):
    generator = DatasetGenerator(
        corridor, GeneratorConfig(n_cars=40, trips_per_car=4, seed=9)
    )
    return generator.generate()


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(episode_continue_prob=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(n_cars=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n_days=0)
        with pytest.raises(ValueError):
            GeneratorConfig(sample_period_s=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(erroneous_rate=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(route_plan="flying")


class TestGeneration:
    def test_produces_records(self, small_dataset):
        assert len(small_dataset.records) > 100

    def test_every_car_appears(self, small_dataset):
        cars = {record.car_id for record in small_dataset.records}
        assert cars == set(range(1, 41))

    def test_corridor_routes_cover_both_road_types(self, small_dataset):
        types = {record.road_type for record in small_dataset.records}
        assert types == {RoadType.MOTORWAY, RoadType.MOTORWAY_LINK}

    def test_deterministic(self, corridor):
        config = GeneratorConfig(n_cars=10, trips_per_car=3, seed=123)
        first = DatasetGenerator(corridor, config).generate()
        second = DatasetGenerator(corridor, config).generate()
        assert len(first.records) == len(second.records)
        assert all(
            a.speed_kmh == b.speed_kmh and a.car_id == b.car_id
            for a, b in zip(first.records, second.records)
        )

    def test_seed_changes_output(self, corridor):
        first = DatasetGenerator(
            corridor, GeneratorConfig(n_cars=10, seed=1)
        ).generate()
        second = DatasetGenerator(
            corridor, GeneratorConfig(n_cars=10, seed=2)
        ).generate()
        speeds_a = [r.speed_kmh for r in first.records[:50]]
        speeds_b = [r.speed_kmh for r in second.records[:50]]
        assert speeds_a != speeds_b

    def test_motorway_speeds_realistic(self, small_dataset):
        speeds = [
            r.speed_kmh
            for r in small_dataset.by_road_type(RoadType.MOTORWAY).records
            if r.speed_kmh < 300
        ]
        assert 100.0 < np.mean(speeds) < 180.0

    def test_anomaly_kinds_present(self, small_dataset):
        kinds = {r.anomaly_kind.value for r in small_dataset.records}
        assert "none" in kinds
        assert len(kinds) >= 3  # at least two anomaly categories occur

    def test_trip_hours_bimodal_at_rush(self, corridor):
        dataset = DatasetGenerator(
            corridor, GeneratorConfig(n_cars=200, trips_per_car=5, seed=4)
        ).generate()
        hours = np.array([r.hour for r in dataset.records])
        rush = np.sum((np.abs(hours - 8) <= 2) | (np.abs(hours - 18) <= 2))
        assert rush / len(hours) > 0.4

    def test_erroneous_rate_injects_bad_records(self, corridor):
        dataset = DatasetGenerator(
            corridor,
            GeneratorConfig(n_cars=50, trips_per_car=5, seed=7, erroneous_rate=0.05),
        ).generate()
        absurd = [r for r in dataset.records if r.speed_kmh > 350.0]
        assert absurd

    def test_record_timestamps_increase_within_trip(self, small_dataset):
        by_trip = {}
        for record in small_dataset.records:
            by_trip.setdefault(record.trip_id, []).append(record.timestamp)
        for timestamps in by_trip.values():
            assert timestamps == sorted(timestamps)

    def test_trip_ids_belong_to_one_car(self, small_dataset):
        cars_per_trip = {}
        for record in small_dataset.records:
            cars_per_trip.setdefault(record.trip_id, set()).add(record.car_id)
        assert all(len(cars) == 1 for cars in cars_per_trip.values())


class TestSplits:
    def test_split_fractions(self, small_dataset):
        train, test = (part.records for part in small_dataset.split(0.8, seed=0))
        total = len(small_dataset.records)
        assert len(train) + len(test) == total
        assert abs(len(train) - 0.8 * total) <= 1

    def test_split_validation(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.split(1.0)

    def test_split_by_trip_keeps_trips_together(self, small_dataset):
        train, test = (part.records for part in small_dataset.split_by_trip(0.8, seed=0))
        train_trips = {r.trip_id for r in train}
        test_trips = {r.trip_id for r in test}
        assert not train_trips & test_trips
        assert len(train) + len(test) == len(small_dataset.records)

    def test_split_deterministic(self, small_dataset):
        a_train, _ = small_dataset.split(0.8, seed=5)
        b_train, _ = small_dataset.split(0.8, seed=5)
        assert [r.timestamp for r in a_train.records] == [
            r.timestamp for r in b_train.records
        ]

    def test_trips_group_rows_in_first_row_order(self, small_dataset):
        _, test = small_dataset.split_by_trip(0.8, seed=0)
        expected = {}
        for row, trip in enumerate(test.trip_id.tolist()):
            expected.setdefault(trip, []).append(row)
        trips = test.trips()
        assert list(trips) == list(expected)
        assert {t: rows.tolist() for t, rows in trips.items()} == expected
        assert all(type(trip) is int for trip in trips)
        assert test.take(np.zeros(len(test.trip_id), dtype=bool)).trips() == {}


class TestRandomRoutePlan:
    def test_random_walk_routes(self):
        network = CityNetworkBuilder(seed=2).build_corridor()
        dataset = DatasetGenerator(
            network,
            GeneratorConfig(n_cars=10, trips_per_car=3, seed=8, route_plan="random"),
        ).generate()
        assert dataset.records


class TestGoldenPins:
    """Bit-exact pins of the record stream the engines replay.

    The hashes cover ``generate()``'s records, the stream every
    scenario is built from.  A changed hash means the RNG substream
    consumption order changed — every downstream golden suite would
    silently shift with it.
    """

    PINS = {
        (): "6db546232befb8c8",
        (("erroneous_rate", 0.05),): "9db95e814b4e2b8a",
        (("erroneous_rate", 0.0),): "584d382324753c8b",
        (("n_cars", 120), ("trips_per_car", 6)): "c21c61615314419f",
    }

    @staticmethod
    def fingerprint(corridor, **overrides):
        import hashlib

        dataset = DatasetGenerator(corridor, GeneratorConfig(**overrides)).generate()
        digest = hashlib.sha256()
        for record in dataset.records:
            digest.update(repr(record).encode())
        return digest.hexdigest()[:16]

    @pytest.mark.parametrize("overrides", sorted(PINS, key=repr))
    def test_output_hash_is_pinned(self, corridor, overrides):
        assert self.fingerprint(corridor, **dict(overrides)) == self.PINS[
            overrides
        ]


@lru_cache(maxsize=None)
def _network(route_plan):
    """The corridor for the corridor and random-walk plans, the
    connected grid for Dijkstra-routed trips."""
    if route_plan == "routed":
        return CityNetworkBuilder(seed=3).build_grid(rows=3, cols=3)
    return CityNetworkBuilder(seed=1).build_corridor()


def _reprs(records):
    return [repr(record) for record in records]


def _stream_states(generator):
    return [
        rng.bit_generator.state
        for rng in (generator._rng, generator._driver_rng, generator._error_rng)
    ]


class TestColumnsMatchThePerRecordReference:
    """The column generator's rows are the per-record generator's
    records (``tests/test_dataset/oracles.py``), ``repr`` for ``repr``:
    values, types, anomaly kinds and timestamps; and it leaves its RNG
    streams where the reference does.  Periods that are not
    representable (0.1, 0.7) make the timestamps' rounding depend on
    the order the periods are added in."""

    @given(
        n_cars=st.integers(1, 12),
        erroneous_rate=st.sampled_from([0.0, 0.01, 0.3]),
        route_plan=st.sampled_from(["corridor", "random", "routed"]),
        seed=st.integers(0, 2**32 - 1),
        sample_period_s=st.sampled_from([3.0, 0.1, 0.7]),
    )
    @example(
        n_cars=12, erroneous_rate=0.3, route_plan="corridor", seed=5,
        sample_period_s=0.7,
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_reference_records(
        self, n_cars, erroneous_rate, route_plan, seed, sample_period_s
    ):
        config = GeneratorConfig(
            n_cars=n_cars,
            erroneous_rate=erroneous_rate,
            route_plan=route_plan,
            seed=seed,
            sample_period_s=sample_period_s,
        )
        network = _network(route_plan)
        columns = DatasetGenerator(network, config)
        reference = DatasetGenerator(network, config)
        rows = columns.generate().records
        assert _reprs(rows) == _reprs(reference_records(reference))
        assert _stream_states(columns) == _stream_states(reference)

    def test_the_example_covers_bursts_and_corruption(self):
        """The explicit example above draws SUDDEN_ACCELERATION
        segments (the scalar draw path) and corrupted samples of every
        mode."""
        config = GeneratorConfig(
            n_cars=12, erroneous_rate=0.3, seed=5, sample_period_s=0.7
        )
        reference = reference_records(DatasetGenerator(_network("corridor"), config))
        kinds = {record.anomaly_kind for record in reference}
        assert AnomalyKind.SUDDEN_ACCELERATION in kinds
        assert any(record.speed_kmh >= 400.0 for record in reference)
        assert any(record.accel_ms2 >= 25.0 for record in reference)
        assert any(
            record.speed_kmh == 0.0 and record.accel_ms2 == 0.0
            for record in reference
        )
