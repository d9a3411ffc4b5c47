"""Consumer client with consumer-group offset tracking.

Mirrors ``kafka-python``'s poll loop at the scale the pipeline needs:
subscribe to topics, poll a block of records per partition, positions
advance per partition, and a grouped consumer commits its positions to
the broker after every poll so a replacement (or a restart) resumes
where the group left off.  A consumer whose polls would only drop
other cars' records settles them without running them
(:meth:`Consumer.settle_polls`) — the warning-dissemination path the
paper describes as "each Kafka consumer pulls every 10 ms".
"""

from __future__ import annotations

import itertools
from operator import itemgetter, lt, not_
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.streaming.broker import Broker
from repro.streaming.records import BlockSegment
from repro.streaming.topic import Partition

_consumer_ids = itertools.count(1)

#: A record :meth:`Consumer.settle_polls` must hand to its caller:
#: ``((topic, partition), offset, broker clock at its append)``.
OwnRecord = Tuple[Tuple[str, int], int, float]


def grid_before(
    first: float, interval: float, limit: float
) -> Tuple[np.ndarray, float]:
    """The grid instants ``first, first + interval, ...`` strictly
    before ``limit``, and the first one at or past it.

    Each instant is its predecessor plus ``interval``, one float
    addition at a time, as a recurrence accumulates them:
    ``np.add.accumulate`` is a left fold, so the array equals repeated
    ``+=`` bit for bit.
    """
    if not first < limit:
        return np.empty(0), first
    steps = np.full(int((limit - first) / interval) + 2, interval)
    steps[0] = first
    instants = np.add.accumulate(steps)
    while instants[-1] < limit:
        # rounding left the estimate short: continue from the last one
        steps[0] = instants[-1]
        instants = np.concatenate((instants[:-1], np.add.accumulate(steps)))
    count = int(np.searchsorted(instants, limit, "left"))
    return instants[:count], float(instants[count])


class Consumer:
    """Poll records from one broker.

    Parameters
    ----------
    broker:
        Source broker.
    group:
        Consumer-group id.  Consumers in the same group share committed
        offsets on the broker, committed after every poll; a ``None``
        group keeps offsets local.
    """

    def __init__(
        self,
        broker: Broker,
        group: Optional[str] = None,
        client_id: Optional[str] = None,
    ) -> None:
        self.broker = broker
        self.group = group
        self.client_id = client_id or f"consumer-{next(_consumer_ids)}"
        self._subscriptions: List[str] = []
        self._positions: Dict[Tuple[str, int], int] = {}
        #: Partition visit order for poll_block — sorted once at
        #: subscribe, not on every poll.
        self._poll_order: List[Tuple[str, int]] = []
        #: ``_poll_order`` with each key's partition log, for settlement.
        self._poll_logs: List[Tuple[Tuple[str, int], Partition]] = []
        #: topic -> the topic's produce-version counter at the last
        #: poll that came back empty with every position at the log
        #: end.  While the versions are unchanged, a poll is answered
        #: with one integer compare per topic instead of a
        #: per-partition fetch.  Invalidated whenever positions move by
        #: other means (subscribe / seek_to_end).
        self._idle_versions: Dict[str, int] = {}
        self._topic_cache: Dict[str, object] = {}
        self.records_consumed = 0
        self.bytes_consumed = 0

    # ------------------------------------------------------------------
    def subscribe(self, topics: List[str]) -> None:
        """Read every partition of each of ``topics``, from the group's
        committed offsets (or 0)."""
        for name in topics:
            topic = self.broker.topic(name)  # validates existence
            if name not in self._subscriptions:
                self._subscriptions.append(name)
            for partition in range(topic.num_partitions):
                if (name, partition) not in self._positions:
                    self._positions[(name, partition)] = (
                        0
                        if self.group is None
                        else self.broker.committed(self.group, name, partition)
                    )
        self._idle_versions.clear()
        self._poll_order = sorted(self._positions)
        self._poll_logs = [
            (key, self._topic(key[0]).partitions[key[1]])
            for key in self._poll_order
        ]

    def seek_to_end(self) -> None:
        """Skip to the log end of every subscribed partition (consume
        only records produced after this call)."""
        for (topic, partition) in list(self._positions):
            self._positions[(topic, partition)] = self.broker.end_offset(
                topic, partition
            )
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

    def poll_block(self, max_records: int = 500) -> List[BlockSegment]:
        """Fetch up to ``max_records`` records past the current
        positions: one :class:`BlockSegment` per non-empty partition,
        partitions in (topic, index) order, zero-copy off the broker's
        slabs whenever a log is uniformly struct-encoded.  Advances the
        positions past what it returns (and commits them, in a group).
        """
        if not self._subscriptions:
            return []
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
            if self.group is not None:
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
        receive: Optional[Callable[[List[Tuple[float, OwnRecord]]], None]] = None,
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
        append first.  Each is removed and handed to ``receive`` as
        ``(instant, entry)``, the instant being that of the poll that
        read it — the one at which the position passes its offset — in
        the order the polls returned them: one call per stretch of polls
        that read any.
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
            polls, instant = grid_before(instant, interval, min(up_at, limit))
            refused += len(polls)
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
        receive: Optional[Callable[[List[Tuple[float, OwnRecord]]], None]],
    ) -> float:
        """:meth:`settle_polls` over a stretch the broker was up for.

        A poll whose backlog fits the budget drains its partitions, and
        the poll after a draining one sees only what was appended in
        between.  So the stretch splits at the polls that find more than
        the budget appended since the instant before: up to such a poll
        every poll drained (positions end at the log ends of the last
        instant before it, and an own record was read at the first
        instant at or after its append); the overflowing poll takes the
        budget in partition order and leaves the rest, and the polls
        after it catch up one at a time until one drains again.

        In arrays: one search per partition gives its log end at every
        instant.  Positions never pass those ends (a position is a log
        end as of an earlier instant), so a poll's backlog is the summed
        ends less the summed positions, and the overflowing polls of a
        drained stretch are where the summed ends step by more than the
        budget.
        """
        instants, following = grid_before(first, interval, limit)
        count = len(instants)
        logs = self._poll_logs
        if not count or not logs:
            return following
        positions = self._positions
        ends = [log.end_offset_at(instants) for _, log in logs]
        assert all(
            positions[key] <= end[0] for (key, _), end in zip(logs, ends)
        ), "a read position passed its log end"
        summed = ends[0] if len(ends) == 1 else np.add.reduce(ends)
        steps = np.flatnonzero(np.diff(summed) > max_records) + 1
        start = 0
        while start < count:
            held = sum([positions[key] for key, _ in logs])
            cut = summed[start] - held > max_records
            if cut:
                stop = start + 1
            else:
                # drained up to the next poll that overflows on its own
                later = steps[steps.searchsorted(start, "right") :]
                stop = int(later[0]) if later.size else count
            budget = max_records
            for (key, log), end in zip(logs, ends):
                position = positions[key]
                take = int(end[stop - 1]) - position
                if cut:
                    take = min(budget, take)
                if take > 0:
                    nbytes = log.range_bytes(position, take)
                    positions[key] = position + take
                    budget -= take
                    self.records_consumed += take
                    self.bytes_consumed += nbytes
                    self.broker.records_out += take
                    self.broker.bytes_out += nbytes
            if own:
                passed = list(
                    map(
                        lt,
                        map(itemgetter(1), own),
                        map(positions.__getitem__, map(itemgetter(0), own)),
                    )
                )
                if True in passed:
                    read = list(itertools.compress(own, passed))
                    own[:] = list(itertools.compress(own, map(not_, passed)))
                    # each at the first instant at or after its append
                    # that a poll of this stretch ran
                    clocks = list(map(itemgetter(2), read))
                    at = instants.searchsorted(clocks, "left")
                    polled = instants[np.maximum(at, start)].tolist()
                    receive(sorted(zip(polled, read)))
            start = stop
        return following

    def lag(self) -> int:
        """Total records available but not yet consumed."""
        return sum(
            log.end_offset - self._positions[key] for key, log in self._poll_logs
        )

    def __repr__(self) -> str:
        return (
            f"Consumer(client_id={self.client_id!r}, group={self.group!r}, "
            f"consumed={self.records_consumed})"
        )
