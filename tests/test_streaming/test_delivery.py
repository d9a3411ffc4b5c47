"""Delivery guarantees: retry/backoff, idempotence, offset restore.

These pin the producer/broker/consumer contract the resilience layer
rests on: telemetry buffered through an outage is delivered exactly
once in effect, and a restarted consumer resumes from its last
committed offset instead of re-reading (and re-detecting) history.
"""

import pytest

from repro.simkernel.simulator import Simulator
from repro.streaming.broker import Broker, BrokerUnavailable
from repro.streaming.consumer import Consumer
from repro.streaming.producer import Producer, RetryPolicy


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def broker(sim):
    b = Broker("rsu", clock=lambda: sim.now)
    b.create_topic("IN-DATA")
    return b


def _resilient_producer(broker, sim, **overrides):
    return Producer(
        broker,
        client_id="vehicle-1",
        sim=sim,
        retry=RetryPolicy(**overrides),
        idempotent=True,
    )


class TestRetryPolicy:
    def test_backoff_doubles_to_cap(self):
        policy = RetryPolicy(
            base_backoff_s=0.05, multiplier=2.0, max_backoff_s=0.8
        )
        delays = [policy.backoff_s(n) for n in range(6)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 0.8]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=0.2, max_backoff_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_buffered=0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(-1)


class TestRetryBuffer:
    def test_no_policy_fails_fast(self, sim, broker):
        producer = Producer(broker, sim=sim)
        broker.shutdown()
        with pytest.raises(BrokerUnavailable):
            producer.send("IN-DATA", {"n": 1})

    def test_outage_buffers_then_flushes_in_order(self, sim, broker):
        producer = _resilient_producer(broker, sim)
        producer.send("IN-DATA", {"n": 0}, key="k")
        broker.shutdown()
        for n in (1, 2, 3):
            assert producer.send("IN-DATA", {"n": n}, key="k") is None
        assert producer.buffered == 3
        sim.at(0.5, broker.restart)
        sim.run_until(2.0)
        assert producer.buffered == 0
        assert producer.records_retried == 3
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        assert [r.value["n"] for r in consumer.poll()] == [0, 1, 2, 3]

    def test_full_buffer_drops_oldest(self, sim, broker):
        producer = _resilient_producer(broker, sim, max_buffered=2)
        broker.shutdown()
        for n in range(4):
            producer.send("IN-DATA", {"n": n}, key="k")
        assert producer.buffered == 2
        assert producer.records_dropped == 2
        broker.restart()
        sim.run_until(2.0)
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        assert [r.value["n"] for r in consumer.poll()] == [2, 3]

    def test_send_during_outage_respects_ordering(self, sim, broker):
        # New sends while a backlog exists must queue behind it, even
        # if the broker is back, or replay would reorder telemetry.
        producer = _resilient_producer(broker, sim)
        broker.shutdown()
        producer.send("IN-DATA", {"n": 0}, key="k")
        broker.restart()
        producer.send("IN-DATA", {"n": 1}, key="k")
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        assert [r.value["n"] for r in consumer.poll()] == [0, 1]


class TestIdempotence:
    def test_lost_ack_retry_is_deduplicated(self, sim, broker):
        producer = _resilient_producer(broker, sim)
        # Acks lost until t=0.2: the broker appends, the producer sees
        # a failure and buffers a retry of the *same* sequence.
        broker.drop_acks_until(0.2)
        assert producer.send("IN-DATA", {"n": 1}) is None
        assert producer.buffered == 1
        sim.run_until(1.0)
        assert producer.buffered == 0
        assert broker.duplicates_rejected == 1
        consumer = Consumer(broker)
        consumer.subscribe(["IN-DATA"])
        assert [r.value["n"] for r in consumer.poll()] == [1]

    def test_sequences_are_per_topic(self, sim, broker):
        broker.create_topic("OUT-DATA")
        producer = _resilient_producer(broker, sim)
        producer.send("IN-DATA", {"n": 1})
        producer.send("OUT-DATA", {"n": 1})
        producer.send("IN-DATA", {"n": 2})
        assert broker.duplicates_rejected == 0
        assert producer._sequences == {"IN-DATA": 2, "OUT-DATA": 1}


class TestRebind:
    def test_rebind_replays_backlog_to_new_broker(self, sim, broker):
        producer = _resilient_producer(broker, sim)
        broker.shutdown()
        producer.send("IN-DATA", {"n": 1})
        fallback = Broker("rsu-2", clock=lambda: sim.now)
        fallback.create_topic("IN-DATA")
        producer.rebind(fallback)
        sim.run_until(1.0)
        assert producer.buffered == 0
        consumer = Consumer(fallback)
        consumer.subscribe(["IN-DATA"])
        assert [r.value["n"] for r in consumer.poll()] == [1]

    def test_rebind_drop_pending_abandons_backlog(self, sim, broker):
        producer = _resilient_producer(broker, sim)
        broker.shutdown()
        producer.send("IN-DATA", {"n": 1})
        producer.send("IN-DATA", {"n": 2})
        fallback = Broker("rsu-2", clock=lambda: sim.now)
        fallback.create_topic("IN-DATA")
        producer.rebind(fallback, drop_pending=True)
        sim.run_until(1.0)
        assert producer.records_abandoned == 2
        assert fallback.end_offset("IN-DATA", 0) == 0

    def test_a_record_whose_ack_was_lost_is_appended_not_abandoned(
        self, sim, broker
    ):
        """Buffered behind a lost ack, a record is in the log already:
        neither still-to-append nor, at a ``drop_pending`` rebind,
        abandoned — it must be accounted once, as appended."""
        producer = _resilient_producer(broker, sim)
        broker.drop_acks_until(0.2)
        assert producer.send("IN-DATA", {"n": 1}, key="k") is None
        broker.shutdown()
        assert producer.send("IN-DATA", {"n": 2}, key="k") is None
        assert producer.buffered == 2
        assert producer.buffered_unappended == 1
        fallback = Broker("rsu-2", clock=lambda: sim.now)
        fallback.create_topic("IN-DATA")
        producer.rebind(fallback, drop_pending=True)
        assert producer.records_abandoned == 1
        assert producer.buffered == 0
        appended = sum(
            broker.end_offset("IN-DATA", p) for p in range(3)
        )
        assert appended == 1

    def test_without_idempotence_every_buffered_record_is_unappended(
        self, sim, broker
    ):
        producer = Producer(broker, sim=sim, retry=RetryPolicy())
        broker.shutdown()
        producer.send("IN-DATA", {"n": 1})
        assert producer.buffered_unappended == producer.buffered == 1


class TestOffsetRestore:
    def test_replacement_consumer_resumes_from_commit(self, broker):
        producer = Producer(broker)
        for n in range(3):
            producer.send("IN-DATA", {"n": n}, key="k")
        first = Consumer(broker, group="pipeline")
        first.subscribe(["IN-DATA"])
        assert len(first.poll()) == 3

        # The broker's durable state (log + committed offsets)
        # survives a crash; a replacement consumer under the same
        # group resumes exactly after the committed batch.
        broker.shutdown()
        broker.restart()
        producer.send("IN-DATA", {"n": 99}, key="k")
        second = Consumer(broker, group="pipeline")
        second.subscribe(["IN-DATA"])
        assert [r.value["n"] for r in second.poll()] == [99]
        # Nothing old was re-read: no double detection after restart.
        assert second.poll() == []
