"""Performance guardrails for the substrates themselves.

Unlike the paper-reproduction benches (which assert *system* claims),
these measure the building blocks' throughput so regressions that
would silently stretch every experiment show up here first.  Bounds
are deliberately loose (10x headroom on a laptop-class machine).
"""

import numpy as np

from repro.core.features import record_to_payload
from repro.core.wire import decode_telemetry_block, telemetry_struct_serde
from repro.dataset.schema import AnomalyKind, TelemetryRecord
from repro.geo.roadnet import RoadType
from repro.ml import DecisionTreeClassifier, GaussianNaiveBayes
from repro.simkernel import Simulator
from repro.streaming import Broker, Consumer, Producer
from repro.streaming.serde import JsonSerde


def test_simulator_event_throughput(benchmark):
    """The DES must sustain >= 100 K events/s (experiments schedule
    millions)."""

    def run():
        sim = Simulator()
        count = 200_000
        state = {"fired": 0}

        def tick():
            state["fired"] += 1

        for index in range(count):
            sim.at(index * 1e-6, tick)
        sim.run()
        return state["fired"]

    fired = benchmark.pedantic(run, rounds=1, iterations=1)
    assert fired == 200_000
    assert benchmark.stats["mean"] < 2.0  # >= 100 K events/s


def test_broker_produce_throughput(benchmark):
    """The in-process log must sustain >= 50 K produces/s, one record
    (serialized in the loop) per ``send``."""
    serde = JsonSerde()

    def run():
        broker = Broker("perf")
        broker.create_topic("t", 3)
        producer = Producer(broker)
        for index in range(50_000):
            producer.send(
                "t",
                serde.serialize({"n": index}),
                key=serde.serialize(str(index % 256)),
            )
        return broker.records_in

    produced = benchmark.pedantic(run, rounds=1, iterations=1)
    assert produced == 50_000
    assert benchmark.stats["mean"] < 1.0


def test_consumer_poll_throughput(benchmark):
    """Polls of 5,000 records, every value deserialized."""
    serde = JsonSerde()
    broker = Broker("perf")
    broker.create_topic("t", 3)
    producer = Producer(broker)
    for index in range(50_000):
        producer.send("t", serde.serialize({"n": index}))

    def run():
        consumer = Consumer(broker)
        consumer.subscribe(["t"])
        total = 0
        while True:
            segments = consumer.poll_block(max_records=5_000)
            if not segments:
                return total
            for segment in segments:
                total += len(list(map(serde.deserialize, segment.value_list())))

    consumed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert consumed == 50_000
    assert benchmark.stats["mean"] < 1.5


def _telemetry_envelopes(count):
    rng = np.random.default_rng(42)
    envelopes = []
    for index in range(count):
        record = TelemetryRecord(
            car_id=int(index % 64),
            road_id=int(index % 200),
            accel_ms2=float(rng.normal(0, 2)),
            speed_kmh=float(abs(rng.normal(90, 20))),
            hour=int(index % 24),
            day=int(index % 7) + 1,
            road_type=RoadType.MOTORWAY,
            road_mean_speed_kmh=100.0,
            timestamp=float(index) * 0.05,
            anomaly_kind=AnomalyKind.NONE,
            label=int(index % 2),
        )
        envelopes.append(
            {
                "data": record_to_payload(record),
                "generated_at": index * 0.05,
                "arrived_at": index * 0.05 + 0.012,
            }
        )
    return envelopes


def _flat(envelope):
    """The telemetry struct serde's record of one envelope."""
    return {
        **envelope["data"],
        "gen": envelope["generated_at"],
        "arr": envelope["arrived_at"],
    }


def test_struct_serde_round_trip_throughput(benchmark):
    """The fixed-layout telemetry serde must round-trip >= 100 K
    records/s — it exists to take serialization off the hot path, so
    it must comfortably beat the rate the simulator feeds it."""
    values = [_flat(e) for e in _telemetry_envelopes(20_000)]
    serde = telemetry_struct_serde()

    def run():
        payloads = [serde.serialize(value) for value in values]
        decoded = [serde.deserialize(p) for p in payloads]
        return len(decoded), len(payloads[0])

    count, wire = benchmark.pedantic(run, rounds=1, iterations=1)
    assert count == 20_000
    assert wire == serde.wire_size
    assert benchmark.stats["mean"] < 0.4  # >= 100 K round trips/s


def test_struct_batch_decode_beats_json(benchmark):
    """decode_telemetry_block over struct payloads (one np.frombuffer)
    must decode a micro-batch >= 5x faster than per-record JSON."""
    import time

    envelopes = _telemetry_envelopes(20_000)
    struct_serde = telemetry_struct_serde()
    json_serde = JsonSerde()
    struct_raw = [struct_serde.serialize(_flat(e)) for e in envelopes]
    json_raw = [json_serde.serialize(e) for e in envelopes]

    start = time.perf_counter()
    json_block = decode_telemetry_block(json_raw, serde=json_serde)
    json_elapsed = time.perf_counter() - start

    def run():
        return decode_telemetry_block(struct_raw, serde=struct_serde)

    block = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(block) == len(json_block) == 20_000
    assert np.array_equal(block.speed_kmh, json_block.speed_kmh)
    assert benchmark.stats["mean"] * 5 < json_elapsed


def test_naive_bayes_fit_predict_speed(benchmark):
    """NB on a paper-scale batch (100 K x 3) in well under a second —
    the lightweight-model premise of the whole system."""
    rng = np.random.default_rng(0)
    X = np.vstack(
        [rng.normal(0, 1, (50_000, 3)), rng.normal(2, 1, (50_000, 3))]
    )
    y = np.array([0] * 50_000 + [1] * 50_000)

    def run():
        model = GaussianNaiveBayes().fit(X, y)
        return model.predict(X)

    predictions = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(predictions) == 100_000
    assert benchmark.stats["mean"] < 1.0


def test_decision_tree_fit_speed(benchmark):
    """The fusion tree fits 50 K x 3 rows within a couple of seconds
    (binned splits keep it near-linear)."""
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (50_000, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)

    def run():
        return DecisionTreeClassifier(max_depth=5).fit(X, y)

    model = benchmark.pedantic(run, rounds=1, iterations=1)
    assert model.depth <= 5
    assert benchmark.stats["mean"] < 4.0
