"""Tests for the cloud-offloaded detection baseline."""

import numpy as np
import pytest

from repro.core import ScenarioSpec, TestbedScenario
from repro.core.cloud import CloudProfile, CloudRelayRsu
from repro.core.detector import AD3Detector
from repro.core.system import default_training_dataset
from repro.core.vehicle import VehicleNode
from repro.geo import RoadType
from repro.net.dsrc import DsrcChannel
from repro.simkernel import Simulator


@pytest.fixture(scope="module")
def training_dataset():
    return default_training_dataset(seed=11, n_cars=50)


class TestCloudProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            CloudProfile(uplink_latency_s=-1.0)
        with pytest.raises(ValueError):
            CloudProfile(processing_base_s=-0.1)


class TestCloudRelayRsu:
    def test_detection_delayed_by_round_trip(self, training_dataset):
        sim = Simulator()
        motorway_rows = training_dataset.by_road_type(RoadType.MOTORWAY)
        motorway = motorway_rows.records
        detector = AD3Detector(RoadType.MOTORWAY).fit(motorway_rows.block)
        rsu = CloudRelayRsu(
            sim,
            "cloud-rsu",
            detector,
            cloud=CloudProfile(jitter_fraction=0.0),
        )
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        vehicle = VehicleNode(
            sim, 1, motorway[:30], rsu, channel, rng=np.random.default_rng(1)
        )
        rsu.start(until=2.0)
        vehicle.start(until=2.0)
        sim.run_until(3.0)
        assert rsu.batches_offloaded > 0
        assert rsu.events
        # Every detection waited at least the WAN round trip.
        for event in rsu.events:
            assert event.detected_at - event.arrived_at >= 0.24

    def test_scenario_latency_in_paper_regime(self, training_dataset):
        config = ScenarioSpec(n_vehicles=16, duration_s=3.0, seed=7)
        result = TestbedScenario.single_rsu_cloud(
            config, dataset=training_dataset
        ).run()
        assert result.mean_e2e_ms() > 250.0

    def test_faster_cloud_is_faster(self, training_dataset):
        def run(profile):
            config = ScenarioSpec(n_vehicles=8, duration_s=2.0, seed=7)
            return (
                TestbedScenario.single_rsu_cloud(
                    config, dataset=training_dataset, cloud=profile
                )
                .run()
                .mean_e2e_ms()
            )

        near = run(CloudProfile(uplink_latency_s=0.02, downlink_latency_s=0.02))
        far = run(CloudProfile(uplink_latency_s=0.2, downlink_latency_s=0.2))
        assert near < far

    def test_the_cloud_rsu_is_wired_as_the_edge_one(self, training_dataset):
        """Same channel and shaper as ``single_rsu``: only the RSU class
        differs, so a lossy spec reaches the cloud scenario's medium."""
        config = ScenarioSpec(n_vehicles=2, duration_s=1.0, seed=7, loss_prob=0.3)
        edge = TestbedScenario.single_rsu(config, dataset=training_dataset)
        cloud = TestbedScenario.single_rsu_cloud(config, dataset=training_dataset)
        for scenario in (edge, cloud):
            (channel,) = scenario.channels.values()
            assert channel.loss_prob == 0.3
            assert set(scenario.shapers) == set(scenario.channels)
        assert type(cloud.rsus["rsu-motorway-cloud"]).__name__ == "CloudRelayRsu"
