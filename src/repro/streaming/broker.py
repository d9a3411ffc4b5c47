"""Broker: topic management, block produce/fetch, group offsets, accounting.

One broker instance plays the role of one Kafka server; the paper runs
"2 servers (Brokers) to act as motorway and motorway link RSUs" and
later five.  The broker also keeps byte counters, which the bandwidth
experiments (Fig. 6c/6d) read.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.streaming.records import BlockSegment
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
        inject the simulator clock so the partitions' append clocks
        live on simulated time.
    """

    def __init__(
        self, name: str, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self._topics: Dict[str, Topic] = {}
        # (group, topic, partition) -> committed offset
        self._committed: Dict[Tuple[str, str, int], int] = {}
        # topic -> record key -> its one callback (see subscribe_key).
        # Callbacks may be registered before their topic exists: produce
        # looks them up by name, so they attach the moment the topic
        # gets traffic.
        self._keyed_notify: Dict[str, Dict[bytes, Callable]] = {}
        # (producer_id, topic) -> (last accepted sequence, its partition,
        # its offset): the idempotent-produce dedupe table (Kafka's
        # per-partition producer state, collapsed to per-topic at this
        # model's scale).
        self._producer_state: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
        # (topic, partition) -> Partition, filled lazily by fetch_block.
        # Partition objects are created once per topic and survive
        # crash/restart (the durable log), so the cache never goes
        # stale; it spares each fetch the topic()/partition()
        # validation chain.
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
    def create_topic(self, name: str, num_partitions: int = 3) -> Topic:
        """Create a topic; creating an existing name is an error."""
        if name in self._topics:
            raise BrokerError(f"topic {name!r} already exists on {self.name!r}")
        topic = Topic(name, num_partitions)
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
        timestamp: Optional[float] = None,
        producer_id: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Append one serialized record: :meth:`produce_block` of a
        block of one.  Returns its ``(partition, offset)``.

        ``timestamp`` is the record's time as its sender states it.  The
        log keeps none (a record is stamped by the broker's append
        clock); the argument is part of the one-record surface that the
        cross-shard stand-in (``repro.parallel.worker._CaptureBroker``)
        shares, which ships it to order the summaries it carries.
        """
        # only an idempotent record needs the block's dedupe pass
        idempotent = producer_id is not None and sequence is not None
        partitions, offsets = self.produce_block(
            topic_name,
            (key,),
            (value,),
            producer_ids=(producer_id,) if idempotent else None,
            sequences=(sequence,) if idempotent else None,
        )
        return partitions[0], offsets[0]

    def produce_block(
        self,
        topic_name: str,
        keys: Sequence[Optional[bytes]],
        values: Sequence[bytes],
        producer_ids: Optional[Sequence[Optional[str]]] = None,
        sequences: Optional[Sequence[Optional[int]]] = None,
    ) -> Tuple[List[int], List[int]]:
        """Append a block of records produced at one instant, in block
        order, for one availability check, one clock read and one
        append per partition.  Returns the partition and the offset of
        each record as two lists.  Keyed records route by key hash,
        unkeyed ones round-robin.  Every record is stamped with the
        broker clock.

        With ``producer_ids`` and
        ``sequences`` a record carrying both is idempotent: a sequence
        at or below its producer's last accepted one is a retry of a
        record the log already holds, so it is rejected as a
        duplicate, not appended, and reported as that last accepted
        record (Kafka's exactly-once-per-partition producer protocol).

        Every record is appended before the first subscriber is told,
        each subscriber once per run of consecutive records it owns.
        A subscriber may rely on that only for what the log held
        strictly before now — all a keyed OUT-DATA subscriber reads.
        A lost ack raises once, after the notifications, for the block
        (a rejected duplicate is acknowledged with its original).
        """
        self._check_available("produce")
        topic = self.topic(topic_name)
        now = self._clock()
        # (producer_id, topic) -> (sequence, position among the kept)
        accepted: Dict[Tuple[str, str], Tuple[int, int]] = {}
        sources = None
        if producer_ids is not None and sequences is not None:
            keys, values, sources = self._dedupe_block(
                topic_name, keys, values, producer_ids, sequences, accepted
            )
        indexes = topic.route_block(keys)
        present = list(dict.fromkeys(indexes))
        groups = [(keys, values)]
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
            self._producer_state[state_key] = (
                sequence, indexes[position], offsets[position]
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
            # record: a kept position, or the prior (partition, offset)
            reported = [
                (indexes[source], offsets[source])
                if isinstance(source, int)
                else source
                for source in sources
            ]
            indexes = list(map(itemgetter(0), reported))
            offsets = list(map(itemgetter(1), reported))
        if len(keys) and now < self._drop_acks_until:
            # The appends happened; the acks did not make it back.
            raise BrokerUnavailable(
                f"broker {self.name!r} lost the produce acks for a block of "
                f"{len(keys)} on {topic_name!r}"
            )
        return indexes, offsets

    def _dedupe_block(
        self, topic_name, keys, values, producer_ids, sequences, accepted
    ):
        """The records of a block that are not duplicates, in order;
        fills ``accepted`` with each idempotent producer's last appended
        ``(sequence, position among the kept records)``.  Also returns
        each record's source: its position among the kept records, or
        for a rejected duplicate, its producer's last accepted record
        (a kept position, or the prior ``(partition, offset)``)."""
        state = self._producer_state
        kept_keys, kept_values, sources = [], [], []
        for key, value, producer_id, sequence in zip(
            keys, values, producer_ids, sequences
        ):
            if producer_id is not None and sequence is not None:
                state_key = (producer_id, topic_name)
                last = accepted.get(state_key)
                if last is None:
                    last = state.get(state_key)
                if last is not None and sequence <= last[0]:
                    self.duplicates_rejected += 1
                    sources.append(last[1] if len(last) == 2 else last[1:])
                    continue
                accepted[state_key] = (sequence, len(kept_keys))
            sources.append(len(kept_keys))
            kept_keys.append(key)
            kept_values.append(value)
        return kept_keys, kept_values, sources

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

    def fetch_block(
        self,
        topic_name: str,
        partition: int,
        from_offset: int,
        max_records: int = 500,
    ) -> Optional[BlockSegment]:
        """Read up to ``max_records`` records of one partition from
        ``from_offset`` (:meth:`Partition.read_block`), or ``None`` when
        nothing is past it, and account them as fetched."""
        if not self._available:
            self._check_available("fetch")
        log = self._partition_cache.get((topic_name, partition))
        if log is None:
            log = self.topic(topic_name).partition(partition)
            self._partition_cache[(topic_name, partition)] = log
        segment = log.read_block(from_offset, max_records)
        if segment is not None:
            self.bytes_out += segment.nbytes
            self.records_out += segment.count
        return segment

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
