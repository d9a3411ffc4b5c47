"""Tests for producer/consumer clients."""

import pytest

from repro.streaming import Broker, Consumer, JsonSerde, Producer
from repro.streaming.serde import STRUCT_MAGIC, SerdeError

_JSON = JsonSerde()


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


def _send(producer, n, key=None):
    """Send ``{"n": n}`` as JSON bytes."""
    return producer.send("IN-DATA", _JSON.serialize({"n": n}), key=key)


def _polled(consumer, max_records=500):
    """What one ``poll_block`` read, deserialized, in order."""
    return [
        _JSON.deserialize(value)
        for segment in consumer.poll_block(max_records)
        for value in segment.value_list()
    ]


class TestProducer:
    def test_send_returns_metadata(self, broker):
        producer = Producer(broker)
        partition, offset = producer.send("IN-DATA", b'{"x":1}', key=b"car-1")
        assert partition == broker.topic("IN-DATA").route(b"car-1")
        assert offset == 0
        assert producer.records_sent == 1
        assert producer.bytes_sent == len(b'{"x":1}') + len(b"car-1")

    def test_closed_producer_rejects(self, broker):
        producer = Producer(broker)
        producer.close()
        assert producer.closed
        with pytest.raises(RuntimeError):
            producer.send("IN-DATA", b"x")


class TestConsumer:
    def test_poll_round_trip(self, broker):
        producer = Producer(broker)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        _send(producer, 1)
        _send(producer, 2)
        values = _polled(consumer)
        assert values == [{"n": 1}, {"n": 2}] or sorted(
            v["n"] for v in values
        ) == [1, 2]

    def test_poll_advances_position(self, broker):
        producer = Producer(broker)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        _send(producer, 1)
        assert len(_polled(consumer)) == 1
        assert consumer.poll_block() == []

    def test_group_resume_from_commit(self, broker):
        producer = Producer(broker)
        for n in range(4):
            _send(producer, n, key=b"k")

        first = Consumer(broker, group="g")
        first.subscribe(["IN-DATA"])
        first.poll_block()

        # A replacement consumer in the same group sees nothing old.
        _send(producer, 99, key=b"k")
        second = Consumer(broker, group="g")
        second.subscribe(["IN-DATA"])
        assert [value["n"] for value in _polled(second)] == [99]

    def test_groupless_consumers_each_see_everything(self, broker):
        producer = Producer(broker)
        _send(producer, 1)
        a = Consumer(broker)
        b = Consumer(broker)
        a.subscribe(["IN-DATA"])
        b.subscribe(["IN-DATA"])
        assert len(_polled(a)) == 1
        assert len(_polled(b)) == 1

    def test_seek_to_end_skips_history(self, broker):
        producer = Producer(broker)
        _send(producer, 1)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        consumer.seek_to_end()
        assert consumer.poll_block() == []
        _send(producer, 2)
        assert [value["n"] for value in _polled(consumer)] == [2]

    def test_lag(self, broker):
        producer = Producer(broker)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        for _ in range(3):
            _send(producer, 0)
        assert consumer.lag() == 3
        consumer.poll_block()
        assert consumer.lag() == 0

    def test_max_records_respected(self, broker):
        producer = Producer(broker)
        for n in range(10):
            _send(producer, n, key=b"k")  # one key: one partition
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        assert len(_polled(consumer, max_records=4)) == 4

    def test_subscribe_unknown_topic_raises(self, broker):
        consumer = Consumer(broker)
        with pytest.raises(Exception):
            consumer.subscribe(["NOPE"])


#: Struct-encoded values of one width (the slab holds them), and a JSON
#: value of the same width that turns a partition's slab off for good.
_STRUCT = [bytes([STRUCT_MAGIC, 1]) + bytes([n]) * 10 for n in range(12)]
_FALLBACK = b'{"car":1234}'
assert len(_FALLBACK) == len(_STRUCT[0])


@pytest.mark.parametrize("start", [0, 2, 5, 6, 7, 10])
@pytest.mark.parametrize("budget", [1, 2, 3, 500])
def test_poll_block_reads_across_a_slab_that_turned_off(start, budget):
    """Six struct values, then a JSON one, then five more struct values:
    read from ``start`` in polls of ``budget``, before and after the
    JSON append.  Every value comes back in order, and positions,
    commits and the broker's fetched counters advance as one record at
    a time would."""
    broker = Broker("rsu")
    broker.create_topic("t", 1)
    log = [(b"k" if n % 3 else None, _STRUCT[n]) for n in range(6)]
    broker.produce_block("t", *zip(*log))
    broker.commit("g", "t", 0, start)
    consumer = Consumer(broker, group="g")
    consumer.subscribe(["t"])
    read, uniform = [], []

    def drain():
        while True:
            before = consumer.position("t", 0)
            out, nbytes = broker.records_out, broker.bytes_out
            segments = consumer.poll_block(budget)
            if not segments:
                return
            (segment,) = segments
            taken = log[before : before + budget]
            assert segment.count == broker.records_out - out == len(taken)
            assert segment.nbytes == broker.bytes_out - nbytes == sum(
                len(value) + len(key or b"") for key, value in taken
            )
            assert consumer.position("t", 0) == before + len(taken)
            assert broker.committed("g", "t", 0) == before + len(taken)
            read.extend(segment.value_list())
            uniform.append(segment.is_uniform)

    drain()
    assert all(uniform)  # the slab was live: zero-copy views
    late = [(b"k", _FALLBACK)] + [(None, value) for value in _STRUCT[6:11]]
    broker.produce_block("t", *zip(*late))
    log += late
    uniform.clear()
    drain()
    assert not any(uniform)  # the slab is off for the whole log
    assert read == [value for _, value in log[start:]]
    assert consumer.records_consumed == len(log) - start
    assert consumer.lag() == 0
