"""Partitioned append-only topic logs.

The paper assigns "three partitions for each topic to speed up reading
and writing"; partitions here are append-only lists of serialized
records with monotonically increasing offsets, and key-carrying records
route by key hash (so one vehicle's records stay ordered within a
partition, as in Kafka).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from itertools import accumulate, islice
from typing import List, Optional, Sequence, Tuple

from repro.streaming.records import StoredRecord
from repro.streaming.serde import STRUCT_MAGIC


class _Slab:
    """Append-only byte arena backing a partition's block reads.

    Grows by doubling into a fresh buffer; the old buffer is never
    mutated afterwards, so borrowed ``memoryview`` windows handed out
    before a resize keep reading the correct (append-only) bytes — no
    ``BufferError`` on growth, unlike exporting views of a plain
    ``bytearray`` that must later ``extend``.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, initial: int = 4096) -> None:
        self._buf = bytearray(initial)
        self._len = 0

    def append(self, value: bytes) -> None:
        needed = self._len + len(value)
        if needed > len(self._buf):
            grown = bytearray(max(needed, 2 * len(self._buf)))
            grown[: self._len] = memoryview(self._buf)[: self._len]
            self._buf = grown
        self._buf[self._len : needed] = value
        self._len = needed

    def view(self, start: int, stop: int) -> memoryview:
        return memoryview(self._buf)[start:stop]


class Partition:
    """One append-only log with optional size-based retention.

    With ``retention_records`` set, the oldest records are truncated
    once the log exceeds the cap — Kafka's retention semantics.
    Offsets are durable: truncation advances ``start_offset`` and
    reads below it return from the earliest retained record (the
    ``auto.offset.reset=earliest`` behaviour).
    """

    def __init__(
        self,
        topic_name: str,
        index: int,
        retention_records: Optional[int] = None,
    ) -> None:
        if retention_records is not None and retention_records < 1:
            raise ValueError(
                f"retention must be >= 1 record: {retention_records}"
            )
        self.topic_name = topic_name
        self.index = index
        self.retention_records = retention_records
        self._records: List[StoredRecord] = []
        self._start_offset = 0
        self.bytes_in = 0
        self.records_truncated = 0
        # Columnar sidecar for the zero-copy block-fetch path.  The
        # slab mirrors every appended value while they stay uniform
        # fixed-size struct payloads; the first non-conforming append
        # disables it for the partition's lifetime (mixed logs fall
        # back to per-record reads).  Retention-bounded logs never get
        # one: truncation would have to rebase it.  ``_cum_sizes[k]``
        # is the total consumed size (value + key bytes) of records
        # ``[0, k)``, so any fetch range's byte accounting is two list
        # lookups instead of a per-record sum.  ``_append_clock[k]`` is
        # the broker clock when record ``k`` was appended (monotone,
        # unlike timestamps): the log end as of an instant is a bisect.
        if retention_records is None:
            self._slab: Optional[_Slab] = _Slab()
            self._cum_sizes: Optional[List[int]] = [0]
            self._append_clock: Optional[List[float]] = []
        else:
            self._slab = None
            self._cum_sizes = None
            self._append_clock = None
        self._slab_record_size: Optional[int] = None

    @property
    def start_offset(self) -> int:
        """Earliest retained offset (Kafka's log-start offset)."""
        return self._start_offset

    def append(
        self,
        timestamp: float,
        key: Optional[bytes],
        value: bytes,
        appended_at: Optional[float] = None,
    ) -> int:
        """Append a record (``appended_at``: the clock); returns its offset."""
        offset = self._start_offset + len(self._records)
        record = StoredRecord(
            offset=offset, timestamp=timestamp, key=key, value=value
        )
        self._records.append(record)
        self.bytes_in += record.size
        if self._cum_sizes is not None:
            self._cum_sizes.append(self._cum_sizes[-1] + record.size)
            self._append_clock.append(
                timestamp if appended_at is None else appended_at
            )
        slab = self._slab
        if slab is not None:
            size = len(value)
            if size and value[0] == STRUCT_MAGIC and (
                self._slab_record_size is None
                or self._slab_record_size == size
            ):
                if self._slab_record_size is None:
                    self._slab_record_size = size
                slab.append(value)
            else:
                self._slab = None
        if self.retention_records is not None:
            self._truncate()
        return offset

    def _truncate(self) -> None:
        drop = len(self._records) - self.retention_records
        if drop > 0:
            del self._records[:drop]
            self._start_offset += drop
            self.records_truncated += drop

    def append_block(
        self,
        timestamp: float,
        keys: Sequence[Optional[bytes]],
        values: Sequence[bytes],
        appended_at: Optional[float] = None,
    ) -> int:
        """Append records sharing one timestamp and clock; returns the
        first one's offset.  Leaves the log — records, byte prefix
        sums, append clocks, slab, retention — exactly as one
        :meth:`append` per record would."""
        first = self._start_offset + len(self._records)
        self._records.extend(
            [
                StoredRecord(offset, timestamp, key, value)
                for offset, (key, value) in enumerate(zip(keys, values), first)
            ]
        )
        sizes = [
            len(value) + (len(key) if key else 0)
            for key, value in zip(keys, values)
        ]
        self.bytes_in += sum(sizes)
        if self._cum_sizes is not None:
            self._cum_sizes.extend(
                islice(accumulate(sizes, initial=self._cum_sizes[-1]), 1, None)
            )
            self._append_clock.extend(
                [timestamp if appended_at is None else appended_at] * len(sizes)
            )
        if self._slab is not None:
            # ``append``'s rule value by value, the slab written once.
            size = self._slab_record_size
            conforming = 0
            for value in values:
                if not (
                    value
                    and value[0] == STRUCT_MAGIC
                    and (size is None or len(value) == size)
                ):
                    break
                size = len(value)
                conforming += 1
            if conforming:
                self._slab_record_size = size
            if conforming == len(sizes):
                self._slab.append(b"".join(values))
            else:
                self._slab = None
        if self.retention_records is not None:
            self._truncate()
        return first

    def read(self, from_offset: int, max_records: int) -> List[StoredRecord]:
        """Records with offset >= ``from_offset``, up to ``max_records``.

        Offsets below the retained range resume from the earliest
        retained record.
        """
        if from_offset < 0:
            raise ValueError(f"offset must be non-negative: {from_offset}")
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1: {max_records}")
        index = max(0, from_offset - self._start_offset)
        return self._records[index : index + max_records]

    def read_block(
        self, from_offset: int, max_records: int
    ) -> Optional[Tuple[memoryview, int, int, int, int]]:
        """Zero-copy block read off the columnar slab.

        Returns ``(view, record_size, count, next_offset, nbytes)`` for
        the same record range :meth:`read` would return, where ``view``
        is ``count * record_size`` contiguous wire bytes and ``nbytes``
        the range's consumed size including key bytes — or ``None``
        when the slab is unavailable (mixed payloads or retention) and
        the caller must fall back to per-record reads.
        """
        if self._slab is None or self._slab_record_size is None:
            return None
        index = max(0, from_offset - self._start_offset)
        count = min(max_records, len(self._records) - index)
        if count <= 0:
            return None
        size = self._slab_record_size
        view = self._slab.view(index * size, (index + count) * size)
        nbytes = self._cum_sizes[index + count] - self._cum_sizes[index]
        return view, size, count, self._start_offset + index + count, nbytes

    def range_bytes(self, index: int, count: int) -> int:
        """Consumed bytes of records ``[index, index + count)`` (needs
        the prefix sums: not on a retention-bounded partition)."""
        return self._cum_sizes[index + count] - self._cum_sizes[index]

    @property
    def end_offset(self) -> int:
        """Offset the next record will receive (Kafka's log-end offset)."""
        return self._start_offset + len(self._records)

    def end_offset_at(self, instant: float) -> int:
        """The log-end offset a fetch at ``instant`` saw: every append
        clocked at or before it counts."""
        if self._append_clock is None:
            raise ValueError("a retention-bounded log keeps no append clock")
        return bisect_right(self._append_clock, instant)

    def __len__(self) -> int:
        return len(self._records)


class Topic:
    """A named set of partitions with key-hash routing."""

    def __init__(
        self,
        name: str,
        num_partitions: int = 3,
        retention_records: Optional[int] = None,
    ) -> None:
        if not name:
            raise ValueError("topic name must be non-empty")
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1: {num_partitions}")
        self.name = name
        self.partitions = [
            Partition(name, i, retention_records=retention_records)
            for i in range(num_partitions)
        ]
        self._round_robin = 0
        #: Bumped by the broker on every produce to any partition.  An
        #: idle consumer that saw version ``v`` with all its positions
        #: at the log end can answer its next poll with one integer
        #: compare instead of a per-partition fetch.
        self.version = 0

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def route(self, key: Optional[bytes]) -> int:
        """Partition index for ``key``.

        Keyed records hash (crc32, stable across runs); unkeyed records
        round-robin.
        """
        if key is None:
            index = self._round_robin
            self._round_robin = (self._round_robin + 1) % self.num_partitions
            return index
        return zlib.crc32(key) % self.num_partitions

    def partition(self, index: int) -> Partition:
        if not 0 <= index < self.num_partitions:
            raise IndexError(
                f"topic {self.name!r} has no partition {index} "
                f"(has {self.num_partitions})"
            )
        return self.partitions[index]

    @property
    def total_records(self) -> int:
        return sum(len(p) for p in self.partitions)

    @property
    def bytes_in(self) -> int:
        return sum(p.bytes_in for p in self.partitions)
