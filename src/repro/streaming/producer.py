"""Producer client.

Mirrors ``kafka-python``'s ``KafkaProducer`` surface at the scale the
pipeline needs: serialize, route, append, return metadata.  The
producer keeps its own byte counters so per-vehicle bandwidth
(Fig. 6c's ~20 Kb/s per vehicle) can be measured at the sender.

On top of the fire-and-forget path the producer offers Kafka's
delivery guarantees, both opt-in so the default behaviour is
unchanged:

- **Retry with exponential backoff** (:class:`RetryPolicy`): when the
  broker is unavailable the record enters a bounded in-flight buffer
  and a flush is scheduled on the simulation clock; the buffer drains
  in order once the broker answers again.  The buffer is bounded —
  when full, the oldest record is dropped (and counted), modelling
  ``buffer.memory`` exhaustion.
- **Idempotent produce** (``idempotent=True``): every record carries
  ``(producer_id, sequence)``; the broker rejects sequences it has
  already accepted, so a retry of a record whose ack was lost never
  double-counts (Kafka's ``enable.idempotence``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from repro.obs import metrics as obs_metrics
from repro.streaming.broker import Broker, BrokerUnavailable
from repro.streaming.records import RecordMetadata
from repro.streaming.serde import JsonSerde, Serde, serialize_key


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff and buffering knobs for the resilient producer.

    Defaults suit the testbed's fault profiles: first retry after
    50 ms, doubling to a 800 ms cap — a broker restarting within the
    2 s recovery budget is found within a few attempts — and a
    256-record in-flight buffer (≥ 25 s of one vehicle's 10 Hz
    telemetry).
    """

    base_backoff_s: float = 0.050
    multiplier: float = 2.0
    max_backoff_s: float = 0.800
    max_buffered: int = 256

    def __post_init__(self) -> None:
        if self.base_backoff_s <= 0:
            raise ValueError("base_backoff_s must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError("max_backoff_s must be >= base_backoff_s")
        if self.max_buffered < 1:
            raise ValueError("max_buffered must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(
            self.base_backoff_s * self.multiplier**attempt,
            self.max_backoff_s,
        )


@dataclass
class _Pending:
    """One buffered record awaiting a (re)send."""

    topic: str
    payload: bytes
    key: Optional[bytes]
    partition: Optional[int]
    timestamp: Optional[float]
    sequence: Optional[int]


class Producer:
    """Publish records to one broker.

    Parameters
    ----------
    broker:
        Target broker.
    serde:
        Value (and key) serializer; JSON by default as in the paper.
    client_id:
        Identity for diagnostics (e.g. ``"vehicle-42"``); doubles as
        the idempotent producer id.
    sim:
        Simulation kernel; required for scheduled backoff retries.
        Without it a configured retry policy still buffers, but only
        re-attempts the buffer on the next ``send``.
    retry:
        :class:`RetryPolicy` enabling buffering + backoff on
        :class:`BrokerUnavailable`.  ``None`` (default) keeps the
        legacy fail-fast behaviour, bit-identical to the seed.
    idempotent:
        Attach ``(producer_id, sequence)`` to every record so broker-
        side dedupe makes retries exactly-once in effect.
    """

    def __init__(
        self,
        broker: Broker,
        serde: Optional[Serde] = None,
        client_id: str = "producer",
        sim=None,
        retry: Optional[RetryPolicy] = None,
        idempotent: bool = False,
    ) -> None:
        self.broker = broker
        self.serde = serde or JsonSerde()
        self.client_id = client_id
        self.sim = sim
        self.retry = retry
        self.idempotent = idempotent
        self.bytes_sent = 0
        self.records_sent = 0
        #: Records that needed at least one retry and were delivered.
        self.records_retried = 0
        #: Records evicted from a full in-flight buffer (lost).
        self.records_dropped = 0
        #: Records deliberately discarded, unappended, at a rebind
        #: (stale data the new broker should not receive); the owner
        #: adds what it held back upstream of this producer.
        self.records_abandoned = 0
        self._sequences: dict = {}
        self._buffer: Deque[_Pending] = deque()
        self._retried_pending = 0
        self._attempt = 0
        self._flush_scheduled = False
        self._closed = False
        #: Called when a retry timer fires, before the buffer drains:
        #: an owner that holds records back upstream of this producer
        #: lands them first, so the broker's log keeps arrival order.
        self.before_retry: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def _next_sequence(self, topic: str) -> Optional[int]:
        if not self.idempotent:
            return None
        sequence = self._sequences.get(topic, 0) + 1
        self._sequences[topic] = sequence
        return sequence

    def _produce(self, pending: _Pending) -> RecordMetadata:
        return self.broker.produce(
            pending.topic,
            pending.payload,
            key=pending.key,
            partition=pending.partition,
            timestamp=pending.timestamp,
            producer_id=self.client_id if self.idempotent else None,
            sequence=pending.sequence,
        )

    def send(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        partition: Optional[int] = None,
        timestamp: Optional[float] = None,
    ) -> Optional[RecordMetadata]:
        """Serialize and append one record.

        Returns the record's metadata, or ``None`` when the broker was
        unavailable and the record entered the retry buffer (only with
        a :class:`RetryPolicy`; otherwise the error propagates).
        """
        if self._closed:
            raise RuntimeError(f"producer {self.client_id!r} is closed")
        payload = self.serde.serialize(value)
        key_bytes = serialize_key(self.serde, key)
        pending = _Pending(
            topic=topic,
            payload=payload,
            key=key_bytes,
            partition=partition,
            timestamp=timestamp,
            sequence=self._next_sequence(topic),
        )
        if self._buffer:
            # Keep per-topic ordering: drain the backlog first.
            self._enqueue(pending)
            self._flush()
            return None
        try:
            metadata = self._produce(pending)
        except BrokerUnavailable:
            if self.retry is None:
                raise
            self._enqueue(pending)
            self._schedule_flush()
            return None
        self.bytes_sent += metadata.serialized_size
        self.records_sent += 1
        return metadata

    # ------------------------------------------------------------------
    # Retry buffer
    # ------------------------------------------------------------------
    def _enqueue(self, pending: _Pending) -> None:
        assert self.retry is not None
        registry = obs_metrics.active()
        if len(self._buffer) >= self.retry.max_buffered:
            self._buffer.popleft()
            self.records_dropped += 1
            if registry is not None:
                registry.counter("producer.records_dropped").inc()
        self._buffer.append(pending)
        if registry is not None:
            registry.gauge("producer.retry_buffer_peak", agg="max").set(
                len(self._buffer)
            )

    @property
    def buffered(self) -> int:
        """Records currently awaiting retry."""
        return len(self._buffer)

    @property
    def buffered_unappended(self) -> int:
        """Buffered records the broker's log does not hold.  A record
        whose ack was lost is appended already and waits here only for
        a retry the broker will reject as a duplicate."""
        if not self.idempotent:
            return len(self._buffer)
        last_sequence = self.broker.last_sequence
        return sum(
            pending.sequence > last_sequence(self.client_id, pending.topic)
            for pending in self._buffer
        )

    def _schedule_flush(self) -> None:
        if self._flush_scheduled or self.sim is None or not self._buffer:
            return
        delay = self.retry.backoff_s(self._attempt)
        self._attempt += 1
        registry = obs_metrics.active()
        if registry is not None:
            registry.counter("producer.backoff_events").inc()
        self._flush_scheduled = True
        self.sim.after(
            delay, self._on_flush_timer, label=f"{self.client_id}-retry"
        )

    def _on_flush_timer(self) -> None:
        self._flush_scheduled = False
        if self.before_retry is not None:
            self.before_retry()
        self._flush()

    def _flush(self) -> None:
        """Drain the buffer in order; reschedule on the first failure."""
        while self._buffer:
            pending = self._buffer[0]
            try:
                metadata = self._produce(pending)
            except BrokerUnavailable:
                self._schedule_flush()
                return
            self._buffer.popleft()
            self.bytes_sent += metadata.serialized_size
            self.records_sent += 1
            self.records_retried += 1
        self._attempt = 0

    def rebind(self, broker: Broker, drop_pending: bool = False) -> None:
        """Point the producer at a new broker (vehicle handover or
        failover), replaying any buffered records there.

        Sequence numbers keep counting up, so idempotent dedupe stays
        correct on the new broker too.  With ``drop_pending`` the
        buffer is discarded instead (and what the old broker had not
        appended counted as abandoned) — for rebinds where the buffered
        data is stale, e.g. a handover to a different road whose RSU
        has no model for the old records.
        """
        if drop_pending and self._buffer:
            self.records_abandoned += self.buffered_unappended
            self._buffer.clear()
        self.broker = broker
        if self._buffer:
            self._attempt = 0
            if self.sim is not None:
                if not self._flush_scheduled:
                    self._flush_scheduled = True
                    self.sim.after(
                        0.0,
                        self._on_flush_timer,
                        label=f"{self.client_id}-rebind-flush",
                    )
            else:
                self._flush()

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return (
            f"Producer(client_id={self.client_id!r}, "
            f"records_sent={self.records_sent})"
        )
