"""In-process event-streaming substrate (the Apache Kafka substitute).

CAD3 uses Kafka as a partitioned, append-only pub/sub log: producers on
vehicles push telemetry to ``IN-DATA``, the detection pipeline writes
warnings to ``OUT-DATA`` and inter-RSU summaries to ``CO-DATA``, and
consumers poll.  This package implements those semantics in-process:

- :mod:`repro.streaming.records` — producer/consumer record types.
- :mod:`repro.streaming.serde` — serializers (JSON is the default, as
  in the paper's implementation).
- :mod:`repro.streaming.topic` — partitioned append-only logs with
  key-hash routing.
- :mod:`repro.streaming.broker` — topic management, produce/fetch,
  committed offsets for consumer groups, byte accounting.
- :mod:`repro.streaming.producer` / :mod:`repro.streaming.consumer` —
  client API mirroring ``kafka-python``.
"""

from repro.streaming.broker import (
    Broker,
    BrokerError,
    BrokerUnavailable,
    TopicNotFound,
)
from repro.streaming.consumer import Consumer
from repro.streaming.producer import Producer, RetryPolicy
from repro.streaming.records import ConsumerRecord, RecordMetadata
from repro.streaming.serde import JsonSerde, RawSerde, Serde
from repro.streaming.topic import Partition, Topic

__all__ = [
    "Broker",
    "BrokerError",
    "BrokerUnavailable",
    "Consumer",
    "ConsumerRecord",
    "JsonSerde",
    "Partition",
    "Producer",
    "RawSerde",
    "RecordMetadata",
    "RetryPolicy",
    "Serde",
    "Topic",
    "TopicNotFound",
]
