"""Consumer client with consumer-group offset tracking.

Mirrors ``kafka-python``'s poll loop: subscribe to topics, ``poll`` for
a batch, offsets advance per partition, and groups commit offsets back
to the broker so another consumer (or a restart) resumes where the
group left off — the property the paper's warning-dissemination path
relies on ("each Kafka consumer pulls every 10 ms").
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from repro.streaming.broker import Broker
from repro.streaming.records import BlockSegment, ConsumerRecord
from repro.streaming.topic import Partition
from repro.streaming.serde import JsonSerde, Serde

_consumer_ids = itertools.count(1)

#: A record :meth:`Consumer.settle_polls` must hand to its caller:
#: ``((topic, partition), offset, broker clock at its append)``.
OwnRecord = Tuple[Tuple[str, int], int, float]


class Consumer:
    """Poll records from one broker.

    Parameters
    ----------
    broker:
        Source broker.
    group:
        Consumer-group id.  Consumers in the same group share committed
        offsets on the broker; a ``None`` group keeps offsets local.
    serde:
        Value/key deserializer.
    auto_commit:
        Commit offsets back to the broker after each poll (only
        meaningful with a group).
    """

    def __init__(
        self,
        broker: Broker,
        group: Optional[str] = None,
        serde: Optional[Serde] = None,
        auto_commit: bool = True,
        client_id: Optional[str] = None,
    ) -> None:
        self.broker = broker
        self.group = group
        self.serde = serde or JsonSerde()
        self.auto_commit = auto_commit
        self.client_id = client_id or f"consumer-{next(_consumer_ids)}"
        self._subscriptions: List[str] = []
        self._positions: Dict[Tuple[str, int], int] = {}
        #: Partition visit order for poll — sorted once when the
        #: assignment changes, not on every 10 ms poll.
        self._poll_order: List[Tuple[str, int]] = []
        #: ``_poll_order`` with each key's partition log, for settlement.
        self._poll_logs: List[Tuple[Tuple[str, int], Partition]] = []
        self._balanced = False
        self._generation = -1
        #: topic -> the topic's produce-version counter at the last
        #: poll that came back empty with every position at the log
        #: end.  While the versions are unchanged, a poll is answered
        #: with one integer compare per topic instead of a
        #: per-partition fetch.  Invalidated whenever positions move by
        #: other means (subscribe / seek / rebalance).
        self._idle_versions: Dict[str, int] = {}
        self._topic_cache: Dict[str, object] = {}
        self.records_consumed = 0
        self.bytes_consumed = 0

    # ------------------------------------------------------------------
    def subscribe(self, topics: List[str], balanced: bool = False) -> None:
        """Subscribe to ``topics``.

        With ``balanced=False`` (default) this consumer reads every
        partition of every topic.  With ``balanced=True`` (requires a
        group) it joins the broker's group coordinator, which divides
        partitions among the group's members — Kafka's consumer-group
        semantics.  Positions resume from the group's committed
        offsets (or 0).
        """
        if balanced and self.group is None:
            raise ValueError("balanced subscription requires a consumer group")
        topic_partitions = {}
        for name in topics:
            topic = self.broker.topic(name)  # validates existence
            if name not in self._subscriptions:
                self._subscriptions.append(name)
            topic_partitions[name] = topic.num_partitions
        self._idle_versions.clear()
        if balanced:
            self._balanced = True
            self._generation = self.broker.coordinator.join(
                self.group, self.client_id, topic_partitions
            )
            self._refresh_assignment()
            return
        for name, num_partitions in topic_partitions.items():
            for partition in range(num_partitions):
                if (name, partition) in self._positions:
                    continue
                self._positions[(name, partition)] = self._committed_or_zero(
                    name, partition
                )
        self._order_partitions()

    def _committed_or_zero(self, topic: str, partition: int) -> int:
        if self.group is not None:
            return self.broker.committed(self.group, topic, partition)
        return 0

    def _refresh_assignment(self) -> None:
        assigned = self.broker.coordinator.assignment(
            self.group, self.client_id
        )
        self._positions = {
            (topic, partition): self._committed_or_zero(topic, partition)
            for topic, partition in assigned
        }
        self._order_partitions()
        self._idle_versions.clear()

    def _order_partitions(self) -> None:
        self._poll_order = sorted(self._positions)
        self._poll_logs = [
            (key, self._topic(key[0]).partitions[key[1]])
            for key in self._poll_order
        ]

    def close(self) -> None:
        """Leave the group (balanced mode), triggering a rebalance."""
        if self._balanced:
            self.broker.coordinator.leave(self.group, self.client_id)
            self._balanced = False
            self._positions = {}
            self._order_partitions()

    @property
    def assigned_partitions(self) -> List[Tuple[str, int]]:
        return sorted(self._positions)

    @property
    def subscriptions(self) -> List[str]:
        return list(self._subscriptions)

    def seek_to_end(self) -> None:
        """Skip to the log end of every subscribed partition (consume
        only records produced after this call)."""
        for (topic, partition) in list(self._positions):
            self._positions[(topic, partition)] = self.broker.end_offset(
                topic, partition
            )
        self._idle_versions.clear()

    def seek(self, topic: str, partition: int, offset: int) -> None:
        if (topic, partition) not in self._positions:
            raise KeyError(
                f"consumer {self.client_id!r} is not subscribed to "
                f"{topic!r}[{partition}]"
            )
        if offset < 0:
            raise ValueError(f"offset must be non-negative: {offset}")
        self._positions[(topic, partition)] = offset
        self._idle_versions.clear()

    def position(self, topic: str, partition: int) -> int:
        return self._positions[(topic, partition)]

    # ------------------------------------------------------------------
    def _topic(self, name: str):
        topic = self._topic_cache.get(name)
        if topic is None:
            topic = self.broker.topic(name)
            self._topic_cache[name] = topic
        return topic

    def _still_idle(self) -> bool:
        """True when no subscribed topic produced since the last empty
        poll — the poll can return [] without touching any partition.

        Only valid while the broker is up (a down broker must raise
        from fetch, as the per-partition loop would).
        """
        idle = self._idle_versions
        if len(idle) != len(self._subscriptions):
            return False
        for name in self._subscriptions:
            version = idle.get(name)
            if version is None or version != self._topic(name).version:
                return False
        return True

    def _mark_idle(self) -> None:
        for name in self._subscriptions:
            self._idle_versions[name] = self._topic(name).version

    def poll(
        self, max_records: int = 500, deserialize: bool = True
    ) -> List[ConsumerRecord]:
        """Fetch available records past the current positions.

        Balanced consumers first check the group generation and pick
        up any rebalance (another member joined or left).

        With ``deserialize=False`` the records carry the raw wire bytes
        in ``key``/``value`` — the columnar pipeline polls this way and
        batch-decodes the whole micro-batch in one numpy pass instead
        of deserializing record by record.
        """
        if not self._subscriptions:
            return []
        if self._balanced:
            generation = self.broker.coordinator.generation(self.group)
            if generation != self._generation:
                self._generation = generation
                self._refresh_assignment()
        if self.broker.available and self._still_idle():
            return []
        out: List[ConsumerRecord] = []
        budget = max_records
        serde = self.serde
        positions = self._positions
        fetch = self.broker.fetch
        for key in self._poll_order:
            if budget <= 0:
                break
            topic, partition = key
            stored = fetch(topic, partition, positions[key], budget)
            if not stored:
                continue
            for record in stored:
                if deserialize:
                    key = (
                        serde.deserialize(record.key)
                        if record.key is not None
                        else None
                    )
                    value = serde.deserialize(record.value)
                else:
                    key = record.key
                    value = record.value
                out.append(
                    ConsumerRecord(
                        topic=topic,
                        partition=partition,
                        offset=record.offset,
                        timestamp=record.timestamp,
                        key=key,
                        value=value,
                    )
                )
                self.bytes_consumed += record.size
            new_position = stored[-1].offset + 1
            self._positions[(topic, partition)] = new_position
            budget -= len(stored)
            if self.group is not None and self.auto_commit:
                self.broker.commit(self.group, topic, partition, new_position)
        if out:
            self.records_consumed += len(out)
        else:
            self._mark_idle()
        return out

    def poll_block(self, max_records: int = 500) -> List[BlockSegment]:
        """Block variant of :meth:`poll`: contiguous wire-byte slabs.

        Visits partitions in the same order, advances the same
        positions, commits the same offsets, and accounts the same
        bytes as ``poll(deserialize=False)`` — but hands back one
        :class:`BlockSegment` per non-empty partition instead of
        per-record objects, zero-copy off the broker's columnar slabs
        whenever the log is uniformly struct-encoded.
        """
        if not self._subscriptions:
            return []
        if self._balanced:
            generation = self.broker.coordinator.generation(self.group)
            if generation != self._generation:
                self._generation = generation
                self._refresh_assignment()
        if self.broker.available and self._still_idle():
            return []
        segments: List[BlockSegment] = []
        budget = max_records
        positions = self._positions
        fetch_block = self.broker.fetch_block
        total = 0
        for key in self._poll_order:
            if budget <= 0:
                break
            topic, partition = key
            segment = fetch_block(topic, partition, positions[key], budget)
            if segment is None:
                continue
            segments.append(segment)
            self.bytes_consumed += segment.nbytes
            positions[key] = segment.next_offset
            budget -= segment.count
            total += segment.count
            if self.group is not None and self.auto_commit:
                self.broker.commit(
                    self.group, topic, partition, segment.next_offset
                )
        if total:
            self.records_consumed += total
        else:
            self._mark_idle()
        return segments

    def settle_polls(
        self,
        first: float,
        interval: float,
        limit: float,
        max_records: int = 500,
        own: Optional[List[OwnRecord]] = None,
        receive: Optional[Callable[[float, OwnRecord], None]] = None,
    ) -> Tuple[float, int]:
        """Account, without executing them, the polls at the grid
        instants ``first, first + interval, ...`` strictly before
        ``limit``; returns the first grid instant not settled and how
        many of the polls the broker refused.

        For a caller that would drop their records unread, the polls'
        only effects are position advances and the fetched / consumed
        counters here and on the broker, which the partitions' append
        clocks and size prefix sums reproduce.  A poll at an instant
        inside one of the broker's down windows moved nothing — the
        first partition's fetch raises before any position advances —
        so it is only counted; the stretches between windows settle
        independently.  The grid is walked by repeated addition, as a
        recurrence accumulates it.  Nothing is committed (ungrouped
        consumers only).

        The records the caller would *not* drop go in ``own``:
        ``((topic, partition), offset, append clock)`` entries, oldest
        append first.  ``receive(instant, entry)`` is called for each,
        and the entry removed, at the instant whose poll read it — the
        one at which the position passes its offset — in the order that
        poll returned them.
        """
        refused = 0
        instant = first
        for down_at, up_at in self.broker.outages:
            if up_at <= instant:
                continue
            if down_at >= limit:
                break
            instant = self._settle_served(
                instant, interval, down_at, max_records, own, receive
            )
            back_up = min(up_at, limit)
            while instant < back_up:
                refused += 1
                instant += interval
        return (
            self._settle_served(
                instant, interval, limit, max_records, own, receive
            ),
            refused,
        )

    def _settle_served(
        self,
        first: float,
        interval: float,
        limit: float,
        max_records: int,
        own: Optional[List[OwnRecord]],
        receive: Optional[Callable[[float, OwnRecord], None]],
    ) -> float:
        """:meth:`settle_polls` over a stretch the broker was up for.

        While the records appended by a run of instants fit one poll's
        budget, each of its polls drained its partitions: the budget
        rule at the run's last instant settles them all, and an own
        record was read at the run's first instant at or after its
        append.  The stretch is cut into the longest such runs; where
        not even one poll drains, that poll alone is the run and the
        budget cuts it short.
        """
        instants = []
        while first < limit:
            instants.append(first)
            first += interval
        positions = self._positions
        logs = self._poll_logs

        def ends_at(index: int) -> List[int]:
            instant = instants[index]
            return [log.end_offset_at(instant) for _, log in logs]

        def overflows(ends: List[int]) -> bool:
            backlog = 0
            for (key, _), end in zip(logs, ends):
                if end > positions[key]:
                    backlog += end - positions[key]
            return backlog > max_records

        start, count = 0, len(instants)
        while start < count:
            # The run [start, stop): bisect for the first instant whose
            # backlog overflows the budget (backlogs only grow).
            stop = count
            ends = ends_at(count - 1)
            if overflows(ends):
                low, stop = start, count - 1
                while low < stop:
                    middle = (low + stop) // 2
                    if overflows(ends_at(middle)):
                        stop = middle
                    else:
                        low = middle + 1
                stop = max(stop, start + 1)
                ends = ends_at(stop - 1)
            budget = max_records
            for (key, log), end in zip(logs, ends):
                position = positions[key]
                take = min(budget, end - position)
                if take > 0:
                    nbytes = log.range_bytes(position, take)
                    positions[key] = position + take
                    budget -= take
                    self.records_consumed += take
                    self.bytes_consumed += nbytes
                    self.broker.records_out += take
                    self.broker.bytes_out += nbytes
            if own:
                reads = sorted(
                    (instants[max(start, bisect_left(instants, e[2]))], e)
                    for e in own
                    if e[1] < positions[e[0]]
                )
                if reads:
                    own[:] = [e for e in own if e[1] >= positions[e[0]]]
                    for instant, entry in reads:
                        receive(instant, entry)
            start = stop
        return first

    def commit(self) -> None:
        """Explicitly commit current positions (manual-commit mode)."""
        if self.group is None:
            raise RuntimeError(
                "commit requires a consumer group; this consumer has none"
            )
        for (topic, partition), position in self._positions.items():
            self.broker.commit(self.group, topic, partition, position)

    def lag(self) -> int:
        """Total records available but not yet consumed.

        Positions below a truncated log's start offset only count the
        records actually retained (Kafka's consumer-lag semantics).
        """
        total = 0
        for (topic, partition), position in self._positions.items():
            log = self.broker.topic(topic).partition(partition)
            effective = max(position, log.start_offset)
            total += log.end_offset - effective
        return total

    def __repr__(self) -> str:
        return (
            f"Consumer(client_id={self.client_id!r}, group={self.group!r}, "
            f"consumed={self.records_consumed})"
        )
