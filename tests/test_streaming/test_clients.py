"""Tests for producer/consumer clients."""

import pytest

from repro.streaming import (
    Broker,
    Consumer,
    JsonSerde,
    Producer,
    RawSerde,
)
from repro.streaming.serde import SerdeError


@pytest.fixture
def broker():
    b = Broker("rsu")
    b.create_topic("IN-DATA")
    b.create_topic("OUT-DATA")
    return b


class TestSerde:
    def test_json_round_trip(self):
        serde = JsonSerde()
        value = {"car": 1, "speed": 120.5, "tags": ["a", "b"]}
        assert serde.deserialize(serde.serialize(value)) == value

    def test_json_deterministic(self):
        serde = JsonSerde()
        assert serde.serialize({"b": 1, "a": 2}) == serde.serialize(
            {"a": 2, "b": 1}
        )

    def test_json_rejects_unserializable(self):
        with pytest.raises(SerdeError):
            JsonSerde().serialize(object())

    def test_json_rejects_bad_payload(self):
        with pytest.raises(SerdeError):
            JsonSerde().deserialize(b"{not json")

    def test_raw_passthrough(self):
        serde = RawSerde()
        assert serde.serialize(b"abc") == b"abc"
        assert serde.serialize("abc") == b"abc"
        with pytest.raises(SerdeError):
            serde.serialize(42)

    def test_telemetry_payload_near_200_bytes(self):
        """The paper assumes ~200-byte packets; our serialized
        telemetry envelope must land in that ballpark."""
        from repro.core.features import record_to_payload
        from repro.dataset.schema import TelemetryRecord
        from repro.geo import RoadType

        record = TelemetryRecord(
            car_id=123,
            road_id=55636,
            accel_ms2=0.31,
            speed_kmh=163.25,
            hour=18,
            day=12,
            road_type=RoadType.MOTORWAY,
            road_mean_speed_kmh=158.7,
            timestamp=86_400.5,
        )
        envelope = {
            "data": record_to_payload(record),
            "generated_at": 12.345678,
            "arrived_at": 12.349876,
        }
        size = len(JsonSerde().serialize(envelope))
        assert 120 <= size <= 300


class TestProducer:
    def test_send_returns_metadata(self, broker):
        producer = Producer(broker)
        metadata = producer.send("IN-DATA", {"x": 1}, key="car-1")
        assert metadata.topic == "IN-DATA"
        assert metadata.offset == 0
        assert producer.records_sent == 1
        assert producer.bytes_sent == metadata.serialized_size

    def test_closed_producer_rejects(self, broker):
        producer = Producer(broker)
        producer.close()
        assert producer.closed
        with pytest.raises(RuntimeError):
            producer.send("IN-DATA", {"x": 1})


class TestConsumer:
    def test_poll_round_trip(self, broker):
        producer = Producer(broker)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        producer.send("IN-DATA", {"n": 1})
        producer.send("IN-DATA", {"n": 2})
        values = [r.value for r in consumer.poll()]
        assert values == [{"n": 1}, {"n": 2}] or sorted(
            v["n"] for v in values
        ) == [1, 2]

    def test_poll_advances_position(self, broker):
        producer = Producer(broker)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        producer.send("IN-DATA", {"n": 1})
        assert len(consumer.poll()) == 1
        assert consumer.poll() == []

    def test_group_resume_from_commit(self, broker):
        producer = Producer(broker)
        for n in range(4):
            producer.send("IN-DATA", {"n": n}, key="k")

        first = Consumer(broker, group="g")
        first.subscribe(["IN-DATA"])
        first.poll()

        # A replacement consumer in the same group sees nothing old.
        producer.send("IN-DATA", {"n": 99}, key="k")
        second = Consumer(broker, group="g")
        second.subscribe(["IN-DATA"])
        values = [r.value["n"] for r in second.poll()]
        assert values == [99]

    def test_groupless_consumers_each_see_everything(self, broker):
        producer = Producer(broker)
        producer.send("IN-DATA", {"n": 1})
        a = Consumer(broker)
        b = Consumer(broker)
        a.subscribe(["IN-DATA"])
        b.subscribe(["IN-DATA"])
        assert len(a.poll()) == 1
        assert len(b.poll()) == 1

    def test_seek_to_end_skips_history(self, broker):
        producer = Producer(broker)
        producer.send("IN-DATA", {"n": 1})
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        consumer.seek_to_end()
        assert consumer.poll() == []
        producer.send("IN-DATA", {"n": 2})
        assert [r.value["n"] for r in consumer.poll()] == [2]

    def test_seek_validation(self, broker):
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        with pytest.raises(KeyError):
            consumer.seek("OUT-DATA", 0, 0)
        with pytest.raises(ValueError):
            consumer.seek("IN-DATA", 0, -1)

    def test_lag(self, broker):
        producer = Producer(broker)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        for _ in range(3):
            producer.send("IN-DATA", {"x": 0})
        assert consumer.lag() == 3
        consumer.poll()
        assert consumer.lag() == 0

    def test_manual_commit_requires_group(self, broker):
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        with pytest.raises(RuntimeError):
            consumer.commit()

    def test_max_records_respected(self, broker):
        producer = Producer(broker)
        for n in range(10):
            producer.send("IN-DATA", {"n": n}, partition=0)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        assert len(consumer.poll(max_records=4)) == 4

    def test_subscribe_unknown_topic_raises(self, broker):
        consumer = Consumer(broker)
        with pytest.raises(Exception):
            consumer.subscribe(["NOPE"])

