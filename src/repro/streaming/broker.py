"""Broker: topic management, produce/fetch, group offsets, accounting.

One broker instance plays the role of one Kafka server; the paper runs
"2 servers (Brokers) to act as motorway and motorway link RSUs" and
later five.  The broker also keeps byte counters, which the bandwidth
experiments (Fig. 6c/6d) read.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.streaming.coordinator import GroupCoordinator
from repro.streaming.records import BlockSegment, RecordMetadata, StoredRecord
from repro.streaming.topic import Partition, Topic


class BrokerError(RuntimeError):
    """Generic broker-side failure."""


class TopicNotFound(BrokerError):
    """Operation on a topic that does not exist."""


class BrokerUnavailable(BrokerError):
    """The broker is down (crashed, or the ack was lost in flight).

    Clients treat this as Kafka's retriable errors
    (``NotEnoughReplicas`` / request timeout): the resilient producer
    buffers and retries with backoff, consumers skip the poll.
    """


class Broker:
    """An in-process event-streaming server.

    Parameters
    ----------
    name:
        Broker identity (e.g. ``"rsu-motorway-1"``).
    clock:
        Zero-argument callable returning the current time; experiments
        inject the simulator clock so record timestamps live on
        simulated time.
    """

    def __init__(
        self, name: str, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self._topics: Dict[str, Topic] = {}
        # (group, topic, partition) -> committed offset
        self._committed: Dict[Tuple[str, str, int], int] = {}
        self.coordinator = GroupCoordinator()
        # topic -> record key -> its one callback (see subscribe_key).
        # Callbacks may be registered before their topic exists: produce
        # looks them up by name, so they attach the moment the topic
        # gets traffic.
        self._keyed_notify: Dict[str, Dict[bytes, Callable]] = {}
        # (producer_id, topic) -> (last accepted sequence, its metadata):
        # the idempotent-produce dedupe table (Kafka's per-partition
        # producer state, collapsed to per-topic at this model's scale).
        self._producer_state: Dict[Tuple[str, str], Tuple[int, RecordMetadata]] = {}
        # (topic, partition) -> Partition, filled lazily by fetch.
        # Partition objects are created once per topic and survive
        # crash/restart (the durable log), so the cache never goes
        # stale; it exists because consumers poll every 10 ms and the
        # topic()/partition() validation chain dominated empty polls.
        self._partition_cache: Dict[Tuple[str, int], Partition] = {}
        self._available = True
        #: Down windows ``(down_at, up_at)`` on this broker's clock,
        #: oldest first, half-open; an open one ends at +inf.  A poll at
        #: an instant inside one was refused, so consumers settling
        #: polls they never ran walk their grid across these
        #: (:meth:`~repro.streaming.consumer.Consumer.settle_polls`).
        #: Empty on a broker that never went down.
        self.outages: List[Tuple[float, float]] = []
        #: Simulated-time horizon below which produce acks are "lost":
        #: the record is appended but the producer sees a failure —
        #: the window where idempotence earns its keep.
        self._drop_acks_until = float("-inf")
        #: Before this instant a produce does not simply append and
        #: acknowledge: +inf while down, the ack-loss horizon after a
        #: restart.  Senders that defer delivery compare it per frame.
        self.unsteady_until = float("-inf")
        self.bytes_in = 0
        self.bytes_out = 0
        self.records_in = 0
        self.records_out = 0
        self.duplicates_rejected = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # Availability (fault injection)
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        return self._available

    def shutdown(self) -> None:
        """Crash the broker: produce/fetch/commit raise until restart.

        The log and committed offsets survive (they model the durable
        on-disk state a real broker recovers from); only availability
        is lost.
        """
        if self._available:
            self._available = False
            self.crashes += 1
            self.outages.append((self._clock(), float("inf")))
            self.unsteady_until = float("inf")

    def restart(self) -> None:
        """Bring a crashed broker back with its durable state intact."""
        if not self._available:
            self._available = True
            self.outages[-1] = (self.outages[-1][0], self._clock())
            self.unsteady_until = self._drop_acks_until

    def drop_acks_until(self, until_time: float) -> None:
        """Lose produce acks until simulated time ``until_time``.

        Each produce in the window appends normally but raises
        :class:`BrokerUnavailable`, so a retrying producer re-sends a
        record the log already holds — exactly the double-count that
        idempotent produce (sequence numbers) must reject.
        """
        self._drop_acks_until = until_time
        if self._available:
            self.unsteady_until = until_time

    def _check_available(self, operation: str) -> None:
        if not self._available:
            raise BrokerUnavailable(
                f"broker {self.name!r} is down ({operation} refused)"
            )

    # ------------------------------------------------------------------
    # Topic management
    # ------------------------------------------------------------------
    def create_topic(
        self,
        name: str,
        num_partitions: int = 3,
        retention_records: Optional[int] = None,
    ) -> Topic:
        """Create a topic; creating an existing name is an error."""
        if name in self._topics:
            raise BrokerError(f"topic {name!r} already exists on {self.name!r}")
        topic = Topic(name, num_partitions, retention_records=retention_records)
        self._topics[name] = topic
        return topic

    def ensure_topic(self, name: str, num_partitions: int = 3) -> Topic:
        """Create the topic if absent, return it either way."""
        if name not in self._topics:
            return self.create_topic(name, num_partitions)
        return self._topics[name]

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise TopicNotFound(
                f"topic {name!r} does not exist on broker {self.name!r}"
            ) from None

    def topic_names(self) -> List[str]:
        return sorted(self._topics)

    def has_topic(self, name: str) -> bool:
        return name in self._topics

    # ------------------------------------------------------------------
    # Produce / fetch
    # ------------------------------------------------------------------
    def produce(
        self,
        topic_name: str,
        value: bytes,
        key: Optional[bytes] = None,
        partition: Optional[int] = None,
        timestamp: Optional[float] = None,
        producer_id: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> RecordMetadata:
        """Append a serialized record, returning its metadata.

        With ``producer_id`` and ``sequence`` set the append is
        idempotent: a sequence at or below the producer's last accepted
        one is a retry of a record the log already holds, so the broker
        skips the append and returns the original metadata (Kafka's
        exactly-once-per-partition producer protocol).
        """
        self._check_available("produce")
        state_key = None
        if producer_id is not None and sequence is not None:
            state_key = (producer_id, topic_name)
            state = self._producer_state.get(state_key)
            if state is not None and sequence <= state[0]:
                self.duplicates_rejected += 1
                return state[1]
        topic = self.topic(topic_name)
        index = topic.route(key) if partition is None else partition
        log = topic.partition(index)
        now = self._clock()
        record_time = now if timestamp is None else timestamp
        offset = log.append(record_time, key, value, now)
        topic.version += 1
        size = len(value) + (len(key) if key else 0)
        self.bytes_in += size
        self.records_in += 1
        metadata = RecordMetadata(
            topic=topic_name,
            partition=index,
            offset=offset,
            timestamp=record_time,
            serialized_size=size,
        )
        if state_key is not None:
            self._producer_state[state_key] = (sequence, metadata)
        keyed = self._keyed_notify.get(topic_name)
        if keyed:
            callback = keyed.get(key)
            if callback is not None:
                callback((key,), (index,), (offset,))
        if now < self._drop_acks_until:
            # The append happened; the ack did not make it back.
            raise BrokerUnavailable(
                f"broker {self.name!r} lost the produce ack for "
                f"{topic_name!r}[{index}]@{offset}"
            )
        return metadata

    def produce_block(
        self,
        topic_name: str,
        keys: Sequence[Optional[bytes]],
        values: Sequence[bytes],
        timestamp: Optional[float] = None,
        timestamps: Optional[Sequence[float]] = None,
        producer_ids: Optional[Sequence[Optional[str]]] = None,
        sequences: Optional[Sequence[Optional[int]]] = None,
    ) -> Tuple[List[int], List[int]]:
        """Append a block of records produced at one instant: the log,
        the counters, the idempotence state and the notifications of one
        :meth:`produce` per record, in block order, for one
        availability check, one clock read and one append per
        partition.  Returns the partition and the offset of each
        record, as :meth:`produce` reports them, as two lists: no
        :class:`RecordMetadata` is built but the idempotence state's.

        Records are stamped ``timestamps[i]`` when given, else
        ``timestamp`` (else now).  With ``producer_ids`` and
        ``sequences`` a record carrying both is idempotent, exactly as
        in :meth:`produce`: a sequence at or below its producer's last
        accepted one is rejected as a duplicate, not appended, and
        reported as that last accepted record.

        Every record is appended before the first subscriber is told,
        each subscriber once per run of consecutive records it owns.
        A subscriber may rely on that only for what the log held
        strictly before now — all a keyed OUT-DATA subscriber reads.
        A lost ack raises once, after the notifications, for the block.
        """
        self._check_available("produce")
        topic = self.topic(topic_name)
        now = self._clock()
        if timestamps is None:
            timestamps = [now if timestamp is None else timestamp] * len(keys)
        accepted: Dict[Tuple[str, str], Tuple[int, int]] = {}
        sources = None
        if producer_ids is not None and sequences is not None:
            keys, values, timestamps, sources = self._dedupe_block(
                topic_name, keys, values, timestamps, producer_ids, sequences,
                accepted,
            )
        indexes = topic.route_block(keys)
        present = list(dict.fromkeys(indexes))
        groups = [(timestamps, keys, values)]
        if len(present) > 1:
            # each partition's records in block order: one stable sort
            pick = itemgetter(*sorted(range(len(indexes)), key=indexes.__getitem__))
            columns = [pick(column) for column in groups[0]]
            present.sort()
            bounds = list(accumulate(map(indexes.count, present), initial=0))
            groups = [
                [column[start:stop] for column in columns]
                for start, stop in zip(bounds, bounds[1:])
            ]
        firsts = {}
        for index, group in zip(present, groups):
            log = topic.partitions[index]
            held = log.bytes_in
            firsts[index] = count(log.append_block(*group, now))
            self.bytes_in += log.bytes_in - held
        # each partition's offsets, in turn, in block order
        offsets = list(map(next, map(firsts.__getitem__, indexes)))
        topic.version += len(indexes)
        self.records_in += len(indexes)
        for state_key, (sequence, position) in accepted.items():
            key = keys[position]
            self._producer_state[state_key] = (
                sequence,
                RecordMetadata(
                    topic=topic_name,
                    partition=indexes[position],
                    offset=offsets[position],
                    timestamp=timestamps[position],
                    serialized_size=len(values[position]) + (len(key) if key else 0),
                ),
            )
        keyed = self._keyed_notify.get(topic_name)
        if keyed:
            owned = list(map(keyed.get, keys))
            runs = groupby(
                compress(zip(owned, keys, indexes, offsets), owned), itemgetter(0)
            )
            for callback, run in runs:
                _, run_keys, run_indexes, run_offsets = zip(*run)
                callback(run_keys, run_indexes, run_offsets)
        if sources is not None:
            # a rejected duplicate reports its producer's last accepted
            # record: a kept position, or the prior metadata
            reported = [
                (indexes[source], offsets[source])
                if isinstance(source, int)
                else (source.partition, source.offset)
                for source in sources
            ]
            indexes = list(map(itemgetter(0), reported))
            offsets = list(map(itemgetter(1), reported))
        if len(keys) and now < self._drop_acks_until:
            # (a rejected duplicate is acknowledged with its original)
            raise BrokerUnavailable(
                f"broker {self.name!r} lost the produce acks for a block of "
                f"{len(keys)} on {topic_name!r}"
            )
        return indexes, offsets

    def _dedupe_block(
        self, topic_name, keys, values, timestamps, producer_ids, sequences,
        accepted,
    ):
        """The records of a block :meth:`produce` would append, in
        order; fills ``accepted`` with each idempotent producer's last
        appended ``(sequence, position among the kept records)``.  Also
        returns each record's source: its position among the kept
        records, or for a rejected duplicate, its producer's last
        accepted record (a kept position, or the prior metadata)."""
        state = self._producer_state
        kept_keys, kept_values, kept_times, sources = [], [], [], []
        for key, value, record_time, producer_id, sequence in zip(
            keys, values, timestamps, producer_ids, sequences
        ):
            if producer_id is not None and sequence is not None:
                state_key = (producer_id, topic_name)
                last = accepted.get(state_key)
                if last is None:
                    last = state.get(state_key)
                if last is not None and sequence <= last[0]:
                    self.duplicates_rejected += 1
                    sources.append(last[1])
                    continue
                accepted[state_key] = (sequence, len(kept_keys))
            sources.append(len(kept_keys))
            kept_keys.append(key)
            kept_values.append(value)
            kept_times.append(record_time)
        return kept_keys, kept_values, kept_times, sources

    def last_sequence(self, producer_id: str, topic_name: str) -> int:
        """The highest sequence accepted from an idempotent producer on
        a topic (0 before its first): a record at or below it is in the
        log, whether or not its ack reached the producer."""
        state = self._producer_state.get((producer_id, topic_name))
        return 0 if state is None else state[0]

    def subscribe_key(
        self,
        topic_name: str,
        key: bytes,
        callback: Callable[[Sequence[bytes], Sequence[int], Sequence[int]], None],
    ) -> Callable[[], None]:
        """Invoke ``callback(keys, partitions, offsets)`` with the
        records produced to the topic carrying ``key``: one dict lookup
        per record however many subscribers, and one call per run of
        consecutive records of one block with the same callback (a
        subscriber registered under many keys hears a block once).
        Vehicles register their fleet under their car id, the key of
        every warning for them, so an append wakes the warned vehicles'
        fleet only.  A key has one owner per topic (a second is refused).
        Registration does not require the topic to exist yet; returns a
        zero-argument cancel function."""
        keyed = self._keyed_notify.setdefault(topic_name, {})
        if key in keyed:
            raise BrokerError(
                f"key {key!r} of {topic_name!r} already has a subscriber "
                f"on {self.name!r}"
            )
        keyed[key] = callback

        def cancel() -> None:
            if keyed.get(key) is callback:
                del keyed[key]

        return cancel

    def fetch(
        self,
        topic_name: str,
        partition: int,
        from_offset: int,
        max_records: int = 500,
    ) -> List[StoredRecord]:
        """Read records from one partition starting at ``from_offset``."""
        if not self._available:
            self._check_available("fetch")
        log = self._partition_cache.get((topic_name, partition))
        if log is None:
            log = self.topic(topic_name).partition(partition)
            self._partition_cache[(topic_name, partition)] = log
        if from_offset >= 0 and from_offset - log._start_offset >= len(
            log._values
        ):
            # Nothing new past the caller's position — the overwhelming
            # majority of 10 ms polls; skip the slice and accounting.
            return []
        records = log.read(from_offset, max_records)
        if records:
            self.bytes_out += sum(r.size for r in records)
            self.records_out += len(records)
        return records

    def fetch_block(
        self,
        topic_name: str,
        partition: int,
        from_offset: int,
        max_records: int = 500,
    ) -> Optional[BlockSegment]:
        """Block variant of :meth:`fetch`: one contiguous wire slab.

        Returns ``None`` when nothing is available past ``from_offset``;
        otherwise a :class:`BlockSegment` — zero-copy off the
        partition's columnar slab when the log is uniformly
        struct-encoded, or carrying the per-record value list as a
        fallback.  Byte/record accounting matches :meth:`fetch` exactly.
        """
        if not self._available:
            self._check_available("fetch")
        log = self._partition_cache.get((topic_name, partition))
        if log is None:
            log = self.topic(topic_name).partition(partition)
            self._partition_cache[(topic_name, partition)] = log
        if from_offset >= 0 and from_offset - log._start_offset >= len(
            log._values
        ):
            return None
        block = log.read_block(from_offset, max_records)
        if block is not None:
            view, record_size, count, next_offset, nbytes = block
            self.bytes_out += nbytes
            self.records_out += count
            return BlockSegment(
                topic=topic_name,
                partition=partition,
                count=count,
                next_offset=next_offset,
                nbytes=nbytes,
                data=view,
                record_size=record_size,
            )
        records = log.read(from_offset, max_records)
        if not records:
            return None
        nbytes = sum(r.size for r in records)
        self.bytes_out += nbytes
        self.records_out += len(records)
        return BlockSegment(
            topic=topic_name,
            partition=partition,
            count=len(records),
            next_offset=records[-1].offset + 1,
            nbytes=nbytes,
            values=[r.value for r in records],
        )

    def end_offset(self, topic_name: str, partition: int) -> int:
        return self.topic(topic_name).partition(partition).end_offset

    # ------------------------------------------------------------------
    # Consumer-group offsets
    # ------------------------------------------------------------------
    def commit(
        self, group: str, topic_name: str, partition: int, offset: int
    ) -> None:
        """Store a consumer group's committed offset."""
        self._check_available("commit")
        if offset < 0:
            raise BrokerError(f"cannot commit negative offset {offset}")
        self.topic(topic_name).partition(partition)  # validate existence
        self._committed[(group, topic_name, partition)] = offset

    def committed(self, group: str, topic_name: str, partition: int) -> int:
        """The group's committed offset, 0 if never committed."""
        return self._committed.get((group, topic_name, partition), 0)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Accounting snapshot used by the bandwidth experiments."""
        return {
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "duplicates_rejected": self.duplicates_rejected,
        }

    def __repr__(self) -> str:
        return (
            f"Broker(name={self.name!r}, topics={len(self._topics)}, "
            f"records_in={self.records_in})"
        )
