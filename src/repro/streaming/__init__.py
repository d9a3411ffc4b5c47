"""In-process event-streaming substrate (the Apache Kafka substitute).

CAD3 uses Kafka only as a partitioned, offset-tracked pub/sub log:
vehicles push telemetry to ``IN-DATA``, the detection pipeline writes
warnings to ``OUT-DATA`` and inter-RSU summaries to ``CO-DATA`` (three
partitions each), and one consumer per topic and RSU reads it.  This
package implements that and nothing more, with one append path and
one read path, both a block at a time:

- :mod:`repro.streaming.records` — :class:`BlockSegment`, one
  partition's slice of a read.
- :mod:`repro.streaming.serde` — serializers (JSON is the default, as
  in the paper's implementation).  Clients move bytes; callers
  serialize and deserialize.
- :mod:`repro.streaming.topic` — partitioned append-only logs with
  key-hash routing: ``Partition.append_block`` / ``read_block``.
- :mod:`repro.streaming.broker` — topic management,
  ``produce_block`` (dedupe of idempotent retries, keyed
  notifications, ack loss, counters; ``produce`` is a block of one)
  and ``fetch_block``, committed group offsets, byte accounting.
- :mod:`repro.streaming.producer` / :mod:`repro.streaming.consumer` —
  client API after ``kafka-python``: ``Producer.send`` with retry and
  idempotence, ``Consumer.poll_block`` and ``settle_polls``.
"""

from repro.streaming.broker import (
    Broker,
    BrokerError,
    BrokerUnavailable,
    TopicNotFound,
)
from repro.streaming.consumer import Consumer
from repro.streaming.producer import Producer, RetryPolicy
from repro.streaming.serde import JsonSerde, Serde
from repro.streaming.topic import Partition, Topic

__all__ = [
    "Broker",
    "BrokerError",
    "BrokerUnavailable",
    "Consumer",
    "JsonSerde",
    "Partition",
    "Producer",
    "RetryPolicy",
    "Serde",
    "Topic",
    "TopicNotFound",
]
