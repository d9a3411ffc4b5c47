"""Partitioned append-only topic logs.

The paper assigns "three partitions for each topic to speed up reading
and writing"; partitions here are append-only lists of serialized
records with monotonically increasing offsets, and key-carrying records
route by key hash (so one vehicle's records stay ordered within a
partition, as in Kafka).
"""

from __future__ import annotations

import zlib
from array import array
from itertools import accumulate, islice
from operator import add
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.streaming.records import BlockSegment
from repro.streaming.serde import STRUCT_MAGIC

_MAGIC = bytes([STRUCT_MAGIC])


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
    """One append-only log.

    Records live in two columns (keys, values).  Beside them:
    ``_cum_sizes[k]``, the total consumed size (value + key bytes) of
    records ``[0, k)``, so any read range's byte accounting is two list
    lookups; ``_append_clock[k]``, the broker clock when record ``k``
    was appended (monotone), a growable float64 array, so the log ends as of any number of instants are
    one search; and the slab, which mirrors every appended value while
    they stay uniform fixed-size struct payloads.  The broker knows no
    schema: the first non-conforming append (a JSON topic's first
    record) disables the slab for the partition's lifetime, and reads
    of that log hand out the value bytes instead.
    """

    def __init__(self, topic_name: str, index: int) -> None:
        self.topic_name = topic_name
        self.index = index
        self._keys: List[Optional[bytes]] = []
        self._values: List[bytes] = []
        self.bytes_in = 0
        self._slab: Optional[_Slab] = _Slab()
        self._slab_record_size: Optional[int] = None
        self._cum_sizes: List[int] = [0]
        self._append_clock = array("d")

    def append_block(
        self,
        keys: Sequence[Optional[bytes]],
        values: Sequence[bytes],
        appended_at: float,
    ) -> int:
        """Append records sharing one clock; returns the first one's
        offset."""
        first = len(self._values)
        self._keys.extend(keys)
        self._values.extend(values)
        if None in keys:
            sizes = [
                len(value) + (len(key) if key else 0)
                for key, value in zip(keys, values)
            ]
        else:
            sizes = list(map(add, map(len, values), map(len, keys)))
        self.bytes_in += sum(sizes)
        self._cum_sizes.extend(
            islice(accumulate(sizes, initial=self._cum_sizes[-1]), 1, None)
        )
        self._append_clock.extend(array("d", [appended_at]) * len(sizes))
        if self._slab is not None and values:
            # every value of the slab's width and led by the struct
            # magic, or no slab from here on
            width = self._slab_record_size or len(values[0])
            joined = b"".join(values)
            if (
                width
                and set(map(len, values)) == {width}
                and joined[::width] == _MAGIC * len(values)
            ):
                self._slab_record_size = width
                self._slab.append(joined)
            else:
                self._slab = self._slab_record_size = None
        return first

    def read_block(
        self, from_offset: int, max_records: int
    ) -> Optional[BlockSegment]:
        """Records with offset >= ``from_offset``, up to ``max_records``,
        as one :class:`BlockSegment` (``None`` past the log end):
        zero-copy off the slab while it is live, else the value bytes."""
        if from_offset < 0:
            raise ValueError(f"offset must be non-negative: {from_offset}")
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1: {max_records}")
        count = min(max_records, len(self._values) - from_offset)
        if count <= 0:
            return None
        stop = from_offset + count
        nbytes = self.range_bytes(from_offset, count)
        size = self._slab_record_size
        if size is None:
            return BlockSegment(
                self.topic_name, self.index, count, stop, nbytes,
                values=self._values[from_offset:stop],
            )
        return BlockSegment(
            self.topic_name, self.index, count, stop, nbytes,
            data=self._slab.view(from_offset * size, stop * size),
            record_size=size,
        )

    def range_bytes(self, index: int, count: int) -> int:
        """Consumed bytes of records ``[index, index + count)``."""
        return self._cum_sizes[index + count] - self._cum_sizes[index]

    @property
    def end_offset(self) -> int:
        """Offset the next record will receive (Kafka's log-end offset)."""
        return len(self._values)

    def end_offset_at(self, instants):
        """The log-end offset a fetch at each of ``instants`` (an array,
        or one instant) saw: every append clocked at or before it
        counts."""
        clock = np.frombuffer(self._append_clock, dtype=np.float64)
        return clock.searchsorted(instants, "right")

    def __len__(self) -> int:
        return len(self._values)


class Topic:
    """A named set of partitions with key-hash routing."""

    def __init__(self, name: str, num_partitions: int = 3) -> None:
        if not name:
            raise ValueError("topic name must be non-empty")
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1: {num_partitions}")
        self.name = name
        self.partitions = [Partition(name, i) for i in range(num_partitions)]
        self._round_robin = 0
        #: Key -> partition index of every keyed record routed so far
        #: (a vehicle's key never changes, so blocks route by lookup).
        self._routes: Dict[bytes, int] = {}
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
        index = self._routes.get(key)
        if index is None:
            index = self._routes[key] = zlib.crc32(key) % self.num_partitions
        return index

    def route_block(self, keys: Sequence[Optional[bytes]]) -> List[int]:
        """:meth:`route` of each of ``keys``, in order: one lookup per
        key once every key has been routed before."""
        try:
            return list(map(self._routes.__getitem__, keys))
        except KeyError:  # a new key, or an unkeyed record
            return [self.route(key) for key in keys]

    def values_at(
        self, partitions: Sequence[int], offsets: Sequence[int]
    ) -> List[bytes]:
        """The value bytes of the record at offset ``offsets[i]`` of
        partition ``partitions[i]``, for each ``i``."""
        logs = self.partitions
        return [
            logs[partition]._values[offset]
            for partition, offset in zip(partitions, offsets)
        ]

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
