"""Producer client.

Mirrors ``kafka-python``'s ``KafkaProducer`` surface at the scale the
pipeline needs: append pre-serialized bytes, return where they landed.
The producer keeps its own byte counters so per-vehicle bandwidth
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
from typing import Callable, Deque, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.streaming.broker import Broker, BrokerUnavailable


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


class _Pending(NamedTuple):
    """One buffered record awaiting a (re)send: the arguments of
    :meth:`Producer._produce`."""

    topic: str
    payload: bytes
    key: Optional[bytes]
    sequence: Optional[int]


class Producer:
    """Publish records to one broker.

    Parameters
    ----------
    broker:
        Target broker.
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
        client_id: str = "producer",
        sim=None,
        retry: Optional[RetryPolicy] = None,
        idempotent: bool = False,
    ) -> None:
        self.broker = broker
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

    def _produce(
        self,
        topic: str,
        payload: bytes,
        key: Optional[bytes],
        sequence: Optional[int],
    ) -> Tuple[int, int]:
        placed = self.broker.produce(
            topic,
            payload,
            key,
            producer_id=self.client_id if self.idempotent else None,
            sequence=sequence,
        )
        self.bytes_sent += len(payload) + (len(key) if key else 0)
        self.records_sent += 1
        return placed

    def send(
        self,
        topic: str,
        value: bytes,
        key: Optional[bytes] = None,
    ) -> Optional[Tuple[int, int]]:
        """Append one serialized record.

        Returns the record's ``(partition, offset)``, or ``None`` when
        the broker was unavailable and the record entered the retry
        buffer (only with a :class:`RetryPolicy`; otherwise the error
        propagates).
        """
        if self._closed:
            raise RuntimeError(f"producer {self.client_id!r} is closed")
        pending = (topic, value, key, self._next_sequence(topic))
        if self._buffer:
            # Keep per-topic ordering: drain the backlog first.
            self._enqueue(_Pending(*pending))
            self._flush()
            return None
        try:
            return self._produce(*pending)
        except BrokerUnavailable:
            if self.retry is None:
                raise
            self._enqueue(_Pending(*pending))
            self._schedule_flush()
            return None

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
        return len(self._unappended())

    def _unappended(self) -> List[_Pending]:
        """The buffered records the broker's log does not hold, in
        order (all of them without idempotence: nothing tells)."""
        if not self.idempotent:
            return list(self._buffer)
        last_sequence = self.broker.last_sequence
        return [
            pending
            for pending in self._buffer
            if pending.sequence > last_sequence(self.client_id, pending.topic)
        ]

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
                self._produce(*pending)
            except BrokerUnavailable:
                self._schedule_flush()
                return
            self._buffer.popleft()
            self.records_retried += 1
        self._attempt = 0

    def rebind(self, broker: Broker, drop_pending: bool = False) -> None:
        """Point the producer at a new broker (vehicle handover or
        failover), replaying any buffered records there.

        Sequence numbers keep counting up, so idempotent dedupe stays
        correct on the new broker too.  A buffered record the old
        broker already appended (only its ack was lost) is not
        replayed: the new broker has no dedupe state for it and would
        append it a second time.  With ``drop_pending`` the buffer is
        discarded instead (and what the old broker had not appended
        counted as abandoned) — for rebinds where the buffered data is
        stale, e.g. a handover to a different road whose RSU has no
        model for the old records.
        """
        if self._buffer:
            unappended = self._unappended()
            if drop_pending:
                self.records_abandoned += len(unappended)
                unappended = []
            self._buffer = deque(unappended)
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


def send_block(
    producers: Sequence[Producer],
    topic: str,
    keys: Sequence[Optional[bytes]],
    values: Sequence[bytes],
) -> None:
    """Record ``i`` sent by ``producers[i]``, all as one
    :meth:`~repro.streaming.broker.Broker.produce_block`: the log, the
    broker and producer counters, the sequences and the idempotence
    state end as one :meth:`Producer.send` per record leaves them.

    Pre-serialized values only, and only where ``send`` would simply
    append: every producer bound to the same broker, which is up and
    acknowledging, none closed and none holding a retry backlog (its
    fresh sequences are then never duplicates).
    """
    broker = producers[0].broker
    producer_ids = sequences = None
    if any(producer.idempotent for producer in producers):
        producer_ids = [
            producer.client_id if producer.idempotent else None
            for producer in producers
        ]
        sequences = [producer._next_sequence(topic) for producer in producers]
    broker.produce_block(
        topic,
        keys,
        values,
        producer_ids=producer_ids,
        sequences=sequences,
    )
    for producer, key, value in zip(producers, keys, values):
        producer.bytes_sent += len(value) + (len(key) if key else 0)
        producer.records_sent += 1
