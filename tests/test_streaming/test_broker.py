"""Tests for the broker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import Broker, BrokerError, BrokerUnavailable, TopicNotFound
from repro.streaming.serde import STRUCT_MAGIC


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


# ----------------------------------------------------------------------
# produce_block: n produces for the price of one
# ----------------------------------------------------------------------
_FRAME = bytes([STRUCT_MAGIC]) + b"\x01" + b"w" * 10
_block_keys = st.none() | st.integers(0, 6).map(lambda n: str(n).encode())
_block_values = st.one_of(
    st.integers(0, 255).map(lambda n: _FRAME[:-1] + bytes([n])),  # uniform
    st.just(_FRAME + b"longer"),  # a struct frame of another size
    st.just(b'{"car":1}'),  # the JSON fallback
    st.just(b""),
)
_block_records = st.lists(st.tuples(_block_keys, _block_values), max_size=12)


def _log_state(broker, listener):
    topic = broker.topic("t")
    logs = []
    for log in topic.partitions:
        block = log.read_block(log.start_offset, 500)
        logs.append(
            (
                log.read(0, 500),
                log.start_offset,
                log.end_offset,
                log.bytes_in,
                log.records_truncated,
                log._cum_sizes,
                log._append_clock,
                log._slab_record_size,
                block and (bytes(block[0]),) + block[1:],
            )
        )
    return logs, topic.version, topic._round_robin, broker.stats(), listener


@settings(max_examples=300, deadline=None)
@given(
    partitions=st.integers(1, 3),
    retention=st.none() | st.integers(1, 5),
    history=_block_records,
    block=_block_records.filter(len),
    timestamp=st.none() | st.just(0.25),
    ack_lost=st.booleans(),
    listened_keys=st.sets(st.integers(0, 6).map(lambda n: str(n).encode())),
    broadcast=st.booleans(),
)
def test_produce_block_is_one_produce_per_record(
    partitions, retention, history, block, timestamp, ack_lost,
    listened_keys, broadcast,
):
    def world():
        now = [1.0]
        broker = Broker("b", clock=lambda: now[0])
        broker.create_topic("t", partitions, retention_records=retention)
        for key, value in history:
            broker.produce("t", value, key=key)
        heard = []
        if broadcast:
            broker.subscribe_notify("t", lambda m: heard.append(("all", m)))
        for key in sorted(listened_keys):
            broker.subscribe_key("t", key, lambda m, k=key: heard.append((k, m)))
        now[0] = 2.0
        if ack_lost:
            broker.drop_acks_until(3.0)
        return broker, heard

    one_by_one, heard_singly = world()
    acks_lost = 0
    for key, value in block:
        try:
            one_by_one.produce("t", value, key=key, timestamp=timestamp)
        except BrokerUnavailable:
            acks_lost += 1
    at_once, heard_at_once = world()
    keys, values = zip(*block)
    if ack_lost:
        with pytest.raises(BrokerUnavailable):
            at_once.produce_block("t", keys, values, timestamp=timestamp)
    else:
        at_once.produce_block("t", keys, values, timestamp=timestamp)
    assert acks_lost == (len(block) if ack_lost else 0)
    assert _log_state(at_once, heard_at_once) == _log_state(
        one_by_one, heard_singly
    )


def test_produce_block_appends_the_whole_block_before_telling_anyone():
    """What a subscriber may not rely on: the log as of *now*.  Told of
    the block's first record it already sees the last one appended."""
    broker = Broker("b")
    topic = broker.create_topic("t", 3)
    keys = [b"0", b"2", b"7", b"0"]
    assert len({topic.route(key) for key in keys}) == 3
    appended = []
    broker.subscribe_key("t", b"0", lambda m: appended.append(topic.total_records))
    broker.produce_block("t", keys, [b"w", b"x", b"y", b"z"])
    assert appended == [4, 4]


def test_produce_block_is_refused_whole_by_a_down_broker():
    broker = Broker("b")
    broker.create_topic("t", 1)
    broker.shutdown()
    with pytest.raises(BrokerUnavailable):
        broker.produce_block("t", [b"k"], [b"x"])
    assert broker.topic("t").total_records == 0
