"""Tests for the broker."""

import pytest

from repro.streaming import Broker, BrokerError, BrokerUnavailable, TopicNotFound


@pytest.fixture
def broker():
    b = Broker("rsu-1")
    b.create_topic("IN-DATA")
    return b


class TestTopics:
    def test_create_and_list(self, broker):
        broker.create_topic("OUT-DATA", 2)
        assert broker.topic_names() == ["IN-DATA", "OUT-DATA"]
        assert broker.has_topic("OUT-DATA")

    def test_duplicate_create_rejected(self, broker):
        with pytest.raises(BrokerError):
            broker.create_topic("IN-DATA")

    def test_ensure_topic_idempotent(self, broker):
        first = broker.ensure_topic("CO-DATA")
        second = broker.ensure_topic("CO-DATA")
        assert first is second

    def test_unknown_topic_raises(self, broker):
        with pytest.raises(TopicNotFound):
            broker.topic("NOPE")
        with pytest.raises(TopicNotFound):
            broker.produce("NOPE", b"x")


class TestProduceFetch:
    def test_round_trip(self, broker):
        metadata = broker.produce("IN-DATA", b"hello", key=b"car-1")
        records = broker.fetch("IN-DATA", metadata.partition, 0)
        assert records[-1].value == b"hello"
        assert records[-1].key == b"car-1"

    def test_explicit_partition(self, broker):
        metadata = broker.produce("IN-DATA", b"x", partition=2)
        assert metadata.partition == 2

    def test_timestamps_from_injected_clock(self):
        times = [1.5]
        broker = Broker("b", clock=lambda: times[0])
        broker.create_topic("t", 1)
        metadata = broker.produce("t", b"x")
        assert metadata.timestamp == 1.5

    def test_explicit_timestamp_wins(self, broker):
        metadata = broker.produce("IN-DATA", b"x", timestamp=9.0)
        assert metadata.timestamp == 9.0

    def test_byte_accounting(self, broker):
        broker.produce("IN-DATA", b"12345", key=b"abc")
        assert broker.bytes_in == 8
        assert broker.records_in == 1
        partition = broker.topic("IN-DATA").route(b"abc")
        broker.fetch("IN-DATA", partition, 0)
        assert broker.bytes_out == 8
        assert broker.records_out == 1

    def test_stats_snapshot(self, broker):
        broker.produce("IN-DATA", b"x")
        stats = broker.stats()
        assert stats["records_in"] == 1
        assert stats["bytes_in"] == 1


class TestCommittedOffsets:
    def test_commit_and_read_back(self, broker):
        broker.commit("group-a", "IN-DATA", 0, 5)
        assert broker.committed("group-a", "IN-DATA", 0) == 5

    def test_uncommitted_defaults_to_zero(self, broker):
        assert broker.committed("group-b", "IN-DATA", 1) == 0

    def test_groups_are_independent(self, broker):
        broker.commit("a", "IN-DATA", 0, 3)
        broker.commit("b", "IN-DATA", 0, 7)
        assert broker.committed("a", "IN-DATA", 0) == 3
        assert broker.committed("b", "IN-DATA", 0) == 7

    def test_negative_offset_rejected(self, broker):
        with pytest.raises(BrokerError):
            broker.commit("g", "IN-DATA", 0, -1)

    def test_commit_to_unknown_topic_rejected(self, broker):
        with pytest.raises(TopicNotFound):
            broker.commit("g", "NOPE", 0, 1)


class TestProduceNotification:
    """Broadcast (``subscribe_notify``) and key-routed
    (``subscribe_key``) produce callbacks."""

    def test_cancel_during_dispatch_keeps_the_round_intact(self, broker):
        calls = []
        cancels = {}

        def first(metadata):
            calls.append("first")
            cancels["first"]()  # cancels itself
            cancels["second"]()  # and a sibling not yet called

        def second(metadata):
            calls.append("second")

        cancels["first"] = broker.subscribe_notify("IN-DATA", first)
        cancels["second"] = broker.subscribe_notify("IN-DATA", second)
        broker.produce("IN-DATA", b"x")
        # the round in flight still reaches the sibling; the next does not
        assert calls == ["first", "second"]
        broker.produce("IN-DATA", b"y")
        assert calls == ["first", "second"]
        cancels["first"]()  # idempotent

    def test_subscribing_during_dispatch_waits_for_the_next_produce(
        self, broker
    ):
        calls = []

        def late(metadata):
            calls.append("late")

        def early(metadata):
            calls.append("early")
            if len(calls) == 1:
                broker.subscribe_notify("IN-DATA", late)

        broker.subscribe_notify("IN-DATA", early)
        broker.produce("IN-DATA", b"x")
        assert calls == ["early"]
        broker.produce("IN-DATA", b"y")
        assert calls == ["early", "early", "late"]

    def test_keyed_callback_fires_for_its_key_only(self, broker):
        seen = []
        broker.subscribe_key("IN-DATA", b"7", lambda m: seen.append(m.offset))
        broker.produce("IN-DATA", b"a", key=b"8")
        broker.produce("IN-DATA", b"b")
        assert seen == []
        metadata = broker.produce("IN-DATA", b"c", key=b"7")
        assert seen == [metadata.offset]

    def test_duplicate_key_refused_until_cancelled(self, broker):
        cancel = broker.subscribe_key("IN-DATA", b"7", lambda m: None)
        with pytest.raises(BrokerError, match="already has a subscriber"):
            broker.subscribe_key("IN-DATA", b"7", lambda m: None)
        cancel()
        cancel()  # idempotent
        seen = []
        replacement = broker.subscribe_key("IN-DATA", b"7", seen.append)
        cancel()  # a stale cancel must not evict the new owner
        broker.produce("IN-DATA", b"x", key=b"7")
        assert len(seen) == 1
        replacement()
        broker.produce("IN-DATA", b"x", key=b"7")
        assert len(seen) == 1

    def test_keyed_callback_may_cancel_itself(self, broker):
        seen = []
        cancels = []

        def once(metadata):
            seen.append(metadata.offset)
            cancels[0]()

        cancels.append(broker.subscribe_key("IN-DATA", b"7", once))
        broker.produce("IN-DATA", b"x", key=b"7")
        broker.produce("IN-DATA", b"y", key=b"7")
        assert len(seen) == 1

    def test_keyed_registration_may_precede_the_topic(self):
        broker = Broker("b")
        seen = []
        broker.subscribe_key("LATER", b"k", seen.append)
        broker.create_topic("LATER", 1)
        broker.produce("LATER", b"x", key=b"k")
        assert len(seen) == 1

    def test_notifications_precede_the_ack_loss_raise(self):
        now = [0.0]
        broker = Broker("b", clock=lambda: now[0])
        broker.create_topic("t", 1)
        seen = []
        broker.subscribe_notify("t", lambda m: seen.append("all"))
        broker.subscribe_key("t", b"k", lambda m: seen.append("key"))
        broker.drop_acks_until(1.0)
        with pytest.raises(BrokerUnavailable):
            broker.produce("t", b"x", key=b"k")
        # the record was appended and announced; only the ack was lost
        assert seen == ["all", "key"]
        assert broker.end_offset("t", 0) == 1


class TestOutageLog:
    """The broker stamps its own down windows; settlement
    (``Consumer.settle_polls``) counts the polls that fell inside."""

    @staticmethod
    def _clocked():
        now = [0.0]
        broker = Broker("b", clock=lambda: now[0])
        broker.create_topic("t", 1)
        return broker, now

    def test_a_broker_that_never_crashed_has_no_outages(self, broker):
        broker.produce("IN-DATA", b"x")
        assert broker.outages == []

    def test_shutdown_opens_a_window_restart_closes_it(self):
        broker, now = self._clocked()
        now[0] = 1.5
        broker.shutdown()
        assert broker.outages == [(1.5, float("inf"))]
        now[0] = 2.25
        broker.restart()
        assert broker.outages == [(1.5, 2.25)]
        now[0] = 4.0
        broker.shutdown()
        assert broker.outages == [(1.5, 2.25), (4.0, float("inf"))]
        assert broker.crashes == 2

    def test_nested_shutdown_while_down_adds_no_window(self):
        broker, now = self._clocked()
        now[0] = 1.0
        broker.shutdown()
        now[0] = 1.2
        broker.shutdown()
        assert broker.outages == [(1.0, float("inf"))]
        assert broker.crashes == 1
        now[0] = 2.0
        broker.restart()
        assert broker.outages == [(1.0, 2.0)]

    def test_restart_while_up_is_a_no_op(self):
        broker, now = self._clocked()
        now[0] = 3.0
        broker.restart()
        assert broker.outages == [] and broker.available
        broker.shutdown()
        now[0] = 4.0
        broker.restart()
        now[0] = 9.0
        broker.restart()  # a second restart must not move the edge
        assert broker.outages == [(3.0, 4.0)]

    def test_last_sequence_tracks_idempotent_appends_ack_or_not(self):
        broker, now = self._clocked()
        assert broker.last_sequence("p", "t") == 0
        broker.produce("t", b"x", producer_id="p", sequence=1)
        broker.drop_acks_until(1.0)
        with pytest.raises(BrokerUnavailable):
            broker.produce("t", b"y", producer_id="p", sequence=2)
        # appended, though the producer never heard so
        assert broker.last_sequence("p", "t") == 2
        assert broker.last_sequence("p", "other") == 0
