"""Tests for Table III statistics and CSV round-tripping."""

import pytest

from repro.dataset import (
    DatasetGenerator,
    GeneratorConfig,
    compute_statistics,
    read_telemetry_csv,
    write_telemetry_csv,
)
from repro.geo import CityNetworkBuilder, RoadType


@pytest.fixture(scope="module")
def dataset():
    network = CityNetworkBuilder(seed=1).build_corridor()
    return DatasetGenerator(
        network, GeneratorConfig(n_cars=20, trips_per_car=3, seed=2)
    ).generate()


class TestStatistics:
    def test_overall_row(self, dataset):
        stats = compute_statistics(dataset.records)
        assert stats.overall.name == "Shenzhen"
        assert stats.overall.n_cars == 20
        assert stats.overall.n_trajectories == len(dataset.records)
        assert stats.overall.n_trips > 0

    def test_per_road_type_partition(self, dataset):
        stats = compute_statistics(dataset.records)
        per_type_total = sum(
            row.n_trajectories for row in stats.per_road_type.values()
        )
        assert per_type_total == stats.overall.n_trajectories

    def test_motorway_faster_than_link(self, dataset):
        stats = compute_statistics(dataset.records)
        motorway = stats.per_road_type[RoadType.MOTORWAY]
        link = stats.per_road_type[RoadType.MOTORWAY_LINK]
        assert motorway.mean_speed_kmh > link.mean_speed_kmh

    def test_format_table(self, dataset):
        text = compute_statistics(dataset.records).format_table()
        assert "Shenzhen" in text
        assert "Motorway" in text
        assert len(text.splitlines()) >= 3

    def test_empty_records(self):
        stats = compute_statistics([])
        assert stats.overall.n_trajectories == 0
        assert stats.overall.mean_speed_kmh == 0.0


class TestCsvRoundTrip:
    def test_telemetry_round_trip(self, dataset, tmp_path):
        path = tmp_path / "telemetry.csv"
        records = dataset.records[:200]
        write_telemetry_csv(path, records)
        loaded = read_telemetry_csv(path)
        assert len(loaded) == len(records)
        for original, restored in zip(records, loaded):
            assert restored == original
