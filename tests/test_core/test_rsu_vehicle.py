"""Tests for RSU and vehicle nodes (unit level)."""

import numpy as np
import pytest

from repro.core import CO_DATA, IN_DATA, OUT_DATA, RsuConfig, RsuNode
from repro.core.detector import AD3Detector
from repro.core.features import PredictionSummary
from repro.core.vehicle import VehicleNode
from repro.geo import RoadType
from repro.microbatch import ProcessingModel
from repro.net.dsrc import DsrcChannel
from repro.net.link import WiredLink
from repro.simkernel import Simulator
from repro.streaming import Consumer, JsonSerde


@pytest.fixture
def motorway_ad3(motorway_records):
    train, _ = motorway_records
    return AD3Detector(RoadType.MOTORWAY).fit(train)


def build_rsu(sim, detector, name="rsu-test"):
    return RsuNode(
        sim,
        name,
        detector,
        config=RsuConfig(
            processing_model=ProcessingModel(jitter_fraction=0.0)
        ),
    )


class TestRsuNode:
    def test_creates_paper_topics(self, motorway_ad3):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        assert rsu.broker.topic_names() == sorted([IN_DATA, OUT_DATA, CO_DATA])
        for name in (IN_DATA, OUT_DATA, CO_DATA):
            assert rsu.broker.topic(name).num_partitions == 3

    def test_detects_and_warns(self, motorway_ad3, motorway_records):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        _, test = motorway_records
        # Replay a stream with known abnormal records so warnings fire.
        abnormal = [r for r in test if r.label == 0][:25]
        normal = [r for r in test if r.label == 1][:25]
        vehicle = VehicleNode(
            sim, 1, abnormal + normal, rsu, channel, rng=np.random.default_rng(1)
        )
        rsu.start(until=3.0)
        vehicle.start(until=3.0)
        sim.run_until(3.5)
        assert rsu.events
        assert rsu.warnings_issued > 0
        assert vehicle.stats.warnings_received > 0
        # Latency ordering per event: generated <= arrived <= detected.
        for event in rsu.events:
            assert event.generated_at <= event.arrived_at <= event.detected_at

    def test_handover_transfers_summary(self, motorway_ad3, motorway_records):
        sim = Simulator()
        source = build_rsu(sim, motorway_ad3, "rsu-a")
        target = build_rsu(sim, motorway_ad3, "rsu-b")
        source.connect(target, WiredLink(sim))
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        _, test = motorway_records
        vehicle = VehicleNode(
            sim, 42, test[:50], source, channel, rng=np.random.default_rng(2)
        )
        source.start(until=2.0)
        target.start(until=2.0)
        vehicle.start(until=2.0)
        sim.run_until(1.0)
        assert source.handover(42, "rsu-b") is True
        # History handed off: immediately after, nothing left to send
        # (the vehicle keeps beaconing, so it would repopulate later).
        assert source.build_summary(42) is None
        sim.run_until(2.5)
        assert source.summaries_sent == 1
        assert target.summaries_received == 1
        assert 42 in target.summaries

    def test_handover_to_unconnected_rsu_raises(self, motorway_ad3):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        with pytest.raises(KeyError):
            rsu.handover(1, "rsu-nowhere")

    def test_duplicate_connect_rejected(self, motorway_ad3):
        sim = Simulator()
        a = build_rsu(sim, motorway_ad3, "a")
        b = build_rsu(sim, motorway_ad3, "b")
        a.connect(b, WiredLink(sim))
        with pytest.raises(ValueError):
            a.connect(b, WiredLink(sim))

    def test_summary_merge_on_repeated_co_data(self, motorway_ad3):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        serde = JsonSerde()
        for prob, n in ((0.9, 10), (0.1, 30)):
            summary = PredictionSummary(
                car_id=5,
                mean_normal_prob=prob,
                n_predictions=n,
                last_class=1,
                from_road_id=2,
                timestamp=sim.now,
            )
            rsu.broker.produce(CO_DATA, serde.serialize(summary.to_payload()))
        rsu._drain_co_data()
        merged = rsu.summaries[5]
        assert merged.n_predictions == 40
        assert merged.mean_normal_prob == pytest.approx(0.3)

    def test_bandwidth_accounting(self, motorway_ad3, motorway_records):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        _, test = motorway_records
        vehicle = VehicleNode(
            sim, 1, test[:50], rsu, channel, rng=np.random.default_rng(3)
        )
        rsu.start(until=2.0)
        vehicle.start(until=2.0)
        sim.run_until(2.2)
        bandwidth = rsu.bandwidth_in_bps(2.0)
        # One vehicle at 10 Hz with ~230 B packets: 15-25 Kb/s.
        assert 8_000 < bandwidth < 40_000
        with pytest.raises(ValueError):
            rsu.bandwidth_in_bps(0.0)


class TestVehicleNode:
    def test_transmits_at_update_rate(self, motorway_ad3, motorway_records):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        _, test = motorway_records
        vehicle = VehicleNode(
            sim,
            1,
            test[:20],
            rsu,
            channel,
            update_rate_hz=10.0,
            rng=np.random.default_rng(4),
        )
        vehicle.start(until=2.0)
        sim.run_until(2.2)
        assert vehicle.stats.records_sent == pytest.approx(20, abs=2)

    def test_validation(self, motorway_ad3, motorway_records):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        channel = DsrcChannel(sim)
        _, test = motorway_records
        with pytest.raises(ValueError):
            VehicleNode(sim, 1, test[:5], rsu, channel, update_rate_hz=0.0)
        with pytest.raises(ValueError):
            VehicleNode(sim, 1, test[:5], rsu, channel, poll_interval_s=0.0)

    def test_double_start_rejected(self, motorway_ad3, motorway_records):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        channel = DsrcChannel(sim)
        _, test = motorway_records
        vehicle = VehicleNode(sim, 1, test[:5], rsu, channel)
        vehicle.start()
        with pytest.raises(RuntimeError):
            vehicle.start()

    def test_set_records_validates(self, motorway_ad3, motorway_records):
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        channel = DsrcChannel(sim)
        _, test = motorway_records
        vehicle = VehicleNode(sim, 1, test[:5], rsu, channel)
        with pytest.raises(ValueError):
            vehicle.set_records([])

    def test_outgoing_identity_is_vehicle(self, motorway_ad3, motorway_records):
        """Replayed records must carry the vehicle's car id, not the
        dataset car id (regression test for the handover-keying bug)."""
        sim = Simulator()
        rsu = build_rsu(sim, motorway_ad3)
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        _, test = motorway_records
        vehicle = VehicleNode(
            sim, 777, test[:20], rsu, channel, rng=np.random.default_rng(5)
        )
        vehicle.start(until=0.5)
        sim.run_until(0.6)
        # the RSU was never started: no micro-batch tick flushed the
        # frames the vehicle deferred on the channel
        channel.flush(sim.now)
        consumer = Consumer(rsu.broker)
        consumer.subscribe([IN_DATA])
        cars = {r.value["data"]["car"] for r in consumer.poll()}
        assert cars == {777}
