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
        partition, offset = broker.produce("IN-DATA", b"hello", key=b"car-1")
        assert partition == broker.topic("IN-DATA").route(b"car-1")
        segment = broker.fetch_block("IN-DATA", partition, 0)
        assert segment.value_list() == [b"hello"]
        assert segment.next_offset == offset + 1
        assert broker.topic("IN-DATA").partition(partition)._keys == [b"car-1"]

    def test_timestamps_from_injected_clock(self):
        times = [1.5]
        broker = Broker("b", clock=lambda: times[0])
        broker.create_topic("t", 1)
        broker.produce("t", b"x")
        assert list(broker.topic("t").partition(0)._append_clock) == [1.5]

    def test_append_clock_ignores_a_stated_timestamp(self):
        """The log is stamped by the broker clock, which settlement
        reads; a sender's timestamp is not kept."""
        broker = Broker("b", clock=lambda: 2.0)
        broker.create_topic("t", 1)
        broker.produce("t", b"x", timestamp=9.0)
        assert list(broker.topic("t").partition(0)._append_clock) == [2.0]

    def test_byte_accounting(self, broker):
        broker.produce("IN-DATA", b"12345", key=b"abc")
        assert broker.bytes_in == 8
        assert broker.records_in == 1
        partition = broker.topic("IN-DATA").route(b"abc")
        assert broker.fetch_block("IN-DATA", partition, 1) is None
        assert broker.fetch_block("IN-DATA", partition, 0).nbytes == 8
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
    """Key-routed (``subscribe_key``) produce callbacks."""

    def test_keyed_callback_fires_for_its_key_only(self, broker):
        seen = []
        broker.subscribe_key(
            "IN-DATA", b"7", lambda keys, parts, offsets: seen.extend(offsets)
        )
        broker.produce("IN-DATA", b"a", key=b"8")
        broker.produce("IN-DATA", b"b")
        assert seen == []
        _, offset = broker.produce("IN-DATA", b"c", key=b"7")
        assert seen == [offset]

    def test_duplicate_key_refused_until_cancelled(self, broker):
        cancel = broker.subscribe_key("IN-DATA", b"7", lambda *appended: None)
        with pytest.raises(BrokerError, match="already has a subscriber"):
            broker.subscribe_key("IN-DATA", b"7", lambda *appended: None)
        cancel()
        cancel()  # idempotent
        seen = []
        replacement = broker.subscribe_key(
            "IN-DATA", b"7", lambda *appended: seen.append(appended)
        )
        cancel()  # a stale cancel must not evict the new owner
        broker.produce("IN-DATA", b"x", key=b"7")
        assert len(seen) == 1
        replacement()
        broker.produce("IN-DATA", b"x", key=b"7")
        assert len(seen) == 1

    def test_keyed_callback_may_cancel_itself(self, broker):
        seen = []
        cancels = []

        def once(keys, partitions, offsets):
            seen.extend(offsets)
            cancels[0]()

        cancels.append(broker.subscribe_key("IN-DATA", b"7", once))
        broker.produce("IN-DATA", b"x", key=b"7")
        broker.produce("IN-DATA", b"y", key=b"7")
        assert len(seen) == 1

    def test_keyed_registration_may_precede_the_topic(self):
        broker = Broker("b")
        seen = []
        broker.subscribe_key("LATER", b"k", lambda *appended: seen.append(appended))
        broker.create_topic("LATER", 1)
        broker.produce("LATER", b"x", key=b"k")
        assert len(seen) == 1

    def test_notifications_precede_the_ack_loss_raise(self):
        now = [0.0]
        broker = Broker("b", clock=lambda: now[0])
        broker.create_topic("t", 1)
        seen = []
        broker.subscribe_key("t", b"k", lambda *appended: seen.append("key"))
        broker.drop_acks_until(1.0)
        with pytest.raises(BrokerUnavailable):
            broker.produce("t", b"x", key=b"k")
        # the record was appended and announced; only the ack was lost
        assert seen == ["key"]
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
# produce_block: a block appends as its records one at a time would
# ----------------------------------------------------------------------
_FRAME = bytes([STRUCT_MAGIC]) + b"\x01" + b"w" * 10
_block_keys = st.none() | st.integers(0, 6).map(lambda n: str(n).encode())
_block_values = st.one_of(
    st.integers(0, 255).map(lambda n: _FRAME[:-1] + bytes([n])),  # uniform
    st.just(_FRAME + b"longer"),  # a struct frame of another size
    st.just(b'{"car":1}'),  # a JSON payload: the broker knows no schema
    st.just(b""),
)
_block_records = st.lists(st.tuples(_block_keys, _block_values), max_size=12)


def _log_state(broker, listener):
    topic = broker.topic("t")
    logs = []
    for log in topic.partitions:
        block = log.read_block(0, 500)
        logs.append(
            (
                log._keys,
                log._values,
                log.end_offset,
                log.bytes_in,
                log._cum_sizes,
                log._append_clock,
                log._slab_record_size,
                block and (block.value_list(), block.is_uniform, block.nbytes),
            )
        )
    return (
        logs,
        topic.version,
        topic._round_robin,
        broker.stats(),
        broker._producer_state,
        listener,
    )


#: A record's producer identity: none, or an idempotent producer whose
#: sequences may repeat (a retry of a record the log already holds).
_block_producers = st.none() | st.tuples(
    st.sampled_from(["p", "q"]), st.integers(1, 4)
)


@settings(max_examples=300, deadline=None)
@given(
    partitions=st.integers(1, 3),
    history=_block_records,
    block=_block_records.filter(len),
    producers=st.lists(_block_producers, min_size=12, max_size=12),
    ack_lost=st.booleans(),
    listened_keys=st.sets(st.integers(0, 6).map(lambda n: str(n).encode())),
)
def test_produce_block_is_one_produce_per_record(
    partitions, history, block, producers, ack_lost, listened_keys,
):
    """A block's log, counters, idempotence state and notifications
    equal those of its records produced one block of one at a time."""

    def world():
        now = [1.0]
        broker = Broker("b", clock=lambda: now[0])
        broker.create_topic("t", partitions)
        for key, value in history:
            broker.produce("t", value, key=key)
        broker.produce("t", b"x", producer_id="p", sequence=2)
        heard = []
        for key in sorted(listened_keys):
            broker.subscribe_key(
                "t",
                key,
                lambda keys, parts, offsets, k=key: heard.extend(
                    (k, part, offset) for part, offset in zip(parts, offsets)
                ),
            )
        now[0] = 2.0
        if ack_lost:
            broker.drop_acks_until(3.0)
        return broker, heard

    ids = [None if p is None else p[0] for p in producers[: len(block)]]
    sequences = [None if p is None else p[1] for p in producers[: len(block)]]
    one_by_one, heard_singly = world()
    acks_lost = 0
    for (key, value), producer_id, sequence in zip(block, ids, sequences):
        try:
            one_by_one.produce(
                "t", value, key=key, producer_id=producer_id, sequence=sequence
            )
        except BrokerUnavailable:
            acks_lost += 1
    at_once, heard_at_once = world()
    keys, values = zip(*block)
    columns = {"producer_ids": ids, "sequences": sequences}
    if acks_lost:
        with pytest.raises(BrokerUnavailable):
            at_once.produce_block("t", keys, values, **columns)
    else:
        at_once.produce_block("t", keys, values, **columns)
    assert bool(acks_lost) == (
        ack_lost and one_by_one.records_in > len(history) + 1
    )
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
    broker.subscribe_key(
        "t",
        b"0",
        lambda keys, parts, offsets: appended.extend(
            [topic.total_records] * len(offsets)
        ),
    )
    broker.produce_block("t", keys, [b"w", b"x", b"y", b"z"])
    assert appended == [4, 4]


def test_produce_block_is_refused_whole_by_a_down_broker():
    broker = Broker("b")
    broker.create_topic("t", 1)
    broker.shutdown()
    with pytest.raises(BrokerUnavailable):
        broker.produce_block("t", [b"k"], [b"x"])
    assert broker.topic("t").total_records == 0


def test_produce_block_reports_what_produce_returns():
    """The partitions and offsets a block reports are what one
    ``produce`` per record returns, a rejected duplicate included (it
    reports its producer's last accepted record)."""
    keys = [b"0", b"2", b"7", b"0", b"5", b"2", b"7"]
    ids = ["p", "p", None, "q", "p", "q", None]
    sequences = [3, 4, None, 1, 4, 1, None]  # p:4 and q:1 repeat
    one_by_one, at_once = Broker("b"), Broker("b")
    for broker in (one_by_one, at_once):
        broker.create_topic("t", 3)
        broker.produce("t", b"x", key=b"9", producer_id="p", sequence=2)
    expected = [
        one_by_one.produce(
            "t", bytes([position]), key=key, producer_id=producer_id,
            sequence=sequence,
        )
        for position, (key, producer_id, sequence) in enumerate(
            zip(keys, ids, sequences)
        )
    ]
    partitions, offsets = at_once.produce_block(
        "t", keys, [bytes([position]) for position in range(len(keys))],
        producer_ids=ids, sequences=sequences,
    )
    assert at_once.duplicates_rejected == one_by_one.duplicates_rejected == 2
    assert list(zip(partitions, offsets)) == expected
