"""Tests for partitions and topics."""

import pytest

from repro.streaming import Partition, Topic


def _append(partition, value, key=None, appended_at=0.0):
    return partition.append_block([key], [value], appended_at)


class TestPartition:
    def test_offsets_are_sequential(self):
        partition = Partition("t", 0)
        assert _append(partition, b"a") == 0
        assert partition.append_block([None, None], [b"b", b"c"], 0.2) == 1
        assert partition.end_offset == 3

    def test_read_from_offset(self):
        partition = Partition("t", 0)
        for index in range(5):
            _append(partition, str(index).encode(), appended_at=float(index))
        segment = partition.read_block(2, 10)
        assert segment.value_list() == [b"2", b"3", b"4"]
        assert (segment.count, segment.next_offset) == (3, 5)

    def test_read_respects_max_records(self):
        partition = Partition("t", 0)
        for index in range(5):
            _append(partition, b"x")
        assert partition.read_block(0, 2).count == 2

    def test_read_past_end_is_empty(self):
        partition = Partition("t", 0)
        _append(partition, b"x")
        assert partition.read_block(1, 10) is None
        assert partition.read_block(5, 10) is None

    def test_read_validation(self):
        partition = Partition("t", 0)
        with pytest.raises(ValueError):
            partition.read_block(-1, 10)
        with pytest.raises(ValueError):
            partition.read_block(0, 0)

    def test_bytes_accounting_includes_key(self):
        partition = Partition("t", 0)
        _append(partition, b"value", key=b"key")
        assert partition.bytes_in == 8
        assert partition.read_block(0, 1).nbytes == 8


class TestTopic:
    def test_paper_default_three_partitions(self):
        assert Topic("IN-DATA").num_partitions == 3

    def test_keyed_routing_is_sticky(self):
        topic = Topic("t", 3)
        first = topic.route(b"car-42")
        assert all(topic.route(b"car-42") == first for _ in range(10))

    def test_unkeyed_routing_round_robins(self):
        topic = Topic("t", 3)
        indices = [topic.route(None) for _ in range(6)]
        assert indices == [0, 1, 2, 0, 1, 2]

    def test_partition_index_bounds(self):
        topic = Topic("t", 2)
        with pytest.raises(IndexError):
            topic.partition(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Topic("", 3)
        with pytest.raises(ValueError):
            Topic("t", 0)

    def test_total_records(self):
        topic = Topic("t", 2)
        _append(topic.partition(0), b"a")
        _append(topic.partition(1), b"b")
        assert topic.total_records == 2
