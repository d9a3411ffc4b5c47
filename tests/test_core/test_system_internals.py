"""Unit tests for TestbedScenario wiring details."""

import pytest

from repro.core import ScenarioSpec, TestbedScenario
from repro.core.detector import AD3Detector
from repro.core.system import default_training_dataset
from repro.geo import RoadType


@pytest.fixture(scope="module")
def training_dataset():
    return default_training_dataset(seed=11, n_cars=50)


@pytest.fixture(scope="module")
def motorway_detector(training_dataset):
    motorway = training_dataset.by_road_type(RoadType.MOTORWAY).block
    return AD3Detector(RoadType.MOTORWAY).fit(motorway)


class TestConstruction:
    def test_add_vehicles_stripes_records(
        self, training_dataset, motorway_detector
    ):
        scenario = TestbedScenario(ScenarioSpec(n_vehicles=4, duration_s=1.0))
        scenario.add_rsu("rsu", motorway_detector)
        records = training_dataset.by_road_type(RoadType.MOTORWAY).records[:40]
        vehicles = scenario.add_vehicles("rsu", 4, records)
        assert len(vehicles) == 4
        # Distinct car ids, monotonically assigned.
        ids = [v.car_id for v in vehicles]
        assert ids == sorted(set(ids))

    def test_add_vehicles_empty_pool_rejected(self, motorway_detector):
        scenario = TestbedScenario(ScenarioSpec(n_vehicles=1, duration_s=1.0))
        scenario.add_rsu("rsu", motorway_detector)
        with pytest.raises(ValueError):
            scenario.add_vehicles("rsu", 2, [])

    def test_htb_leaves_created_per_vehicle(
        self, training_dataset, motorway_detector
    ):
        scenario = TestbedScenario(ScenarioSpec(n_vehicles=3, duration_s=1.0))
        scenario.add_rsu("rsu", motorway_detector)
        records = training_dataset.by_road_type(RoadType.MOTORWAY).records[:30]
        vehicles = scenario.add_vehicles("rsu", 3, records)
        shaper = scenario.shapers["rsu"]
        for vehicle in vehicles:
            assert shaper.leaf(f"vehicle-{vehicle.car_id}")

    def test_htb_disabled(self, training_dataset, motorway_detector):
        scenario = TestbedScenario(
            ScenarioSpec(n_vehicles=2, duration_s=1.0, use_htb=False)
        )
        scenario.add_rsu("rsu", motorway_detector)
        records = training_dataset.by_road_type(RoadType.MOTORWAY).records[:20]
        vehicles = scenario.add_vehicles("rsu", 2, records)
        assert all(v.shaper is None for v in vehicles)
        assert "rsu" not in scenario.shapers

    def test_corridor_link_detector_kind_validated(self, training_dataset):
        with pytest.raises(ValueError):
            TestbedScenario.corridor(
                ScenarioSpec(n_vehicles=2, duration_s=1.0),
                dataset=training_dataset,
                link_detector_kind="psychic",
            )

    def test_replay_uses_held_out_trips(self, training_dataset):
        """Vehicles must replay the 20 % test split, not training data
        (the paper's online-testing protocol)."""
        scenario = TestbedScenario.single_rsu(
            ScenarioSpec(n_vehicles=4, duration_s=1.0),
            dataset=training_dataset,
        )
        train, replay = TestbedScenario._train_replay_split(training_dataset)
        replay_trips = set(replay.trip_id.tolist())
        train_trips = set(train.trip_id.tolist())
        for vehicle in scenario.vehicles:
            stream_sample = vehicle._stripe[:5]
            for record in stream_sample:
                assert record.trip_id in replay_trips
                assert record.trip_id not in train_trips


class TestRunSemantics:
    def test_result_detection_report_present(self, training_dataset):
        scenario = TestbedScenario.single_rsu(
            ScenarioSpec(n_vehicles=8, duration_s=2.0, seed=3),
            dataset=training_dataset,
        )
        result = scenario.run()
        report = result.rsu_metrics["rsu-motorway"].detection
        assert report is not None
        assert report.n_samples == result.rsu_metrics["rsu-motorway"].n_events
        assert 0.0 <= report.accuracy <= 1.0

    def test_two_runs_same_seed_identical_reports(self, training_dataset):
        def run():
            scenario = TestbedScenario.single_rsu(
                ScenarioSpec(n_vehicles=8, duration_s=2.0, seed=3),
                dataset=training_dataset,
            )
            return scenario.run().rsu_metrics["rsu-motorway"].detection

        first, second = run(), run()
        assert first.accuracy == second.accuracy
        assert first.tp == second.tp
