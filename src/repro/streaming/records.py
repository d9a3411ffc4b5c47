"""Record types crossing the streaming substrate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class RecordMetadata:
    """Returned by a successful produce (Kafka's ``RecordMetadata``)."""

    topic: str
    partition: int
    offset: int
    timestamp: float
    serialized_size: int


@dataclass(frozen=True)
class StoredRecord:
    """One record read off a partition log: serialized bytes (the log
    itself keeps them as columns)."""

    offset: int
    timestamp: float
    key: Optional[bytes]
    value: bytes

    @property
    def size(self) -> int:
        return len(self.value) + (len(self.key) if self.key else 0)


@dataclass(frozen=True)
class ConsumerRecord:
    """What a consumer's poll returns: deserialized payloads."""

    topic: str
    partition: int
    offset: int
    timestamp: float
    key: Any
    value: Any


class BlockSegment:
    """One partition's slice of a block fetch: contiguous wire bytes.

    The zero-copy currency of :meth:`Broker.fetch_block` /
    :meth:`Consumer.poll_block`.  When the partition's append-only slab
    is live (every record struct-encoded at one fixed size), ``data``
    is a borrowed ``memoryview`` of ``count * record_size`` bytes that
    ``np.frombuffer`` decodes without materializing per-record objects.
    When the slab is unavailable (mixed JSON fallback payloads, or a
    retention-bounded log), ``values`` carries the per-record value
    bytes instead and ``data`` is ``None``.

    ``nbytes`` is the exact consumed size (values plus record keys),
    matching the per-record path's accounting bit for bit.
    """

    __slots__ = (
        "topic",
        "partition",
        "count",
        "next_offset",
        "nbytes",
        "data",
        "record_size",
        "values",
    )

    def __init__(
        self,
        topic: str,
        partition: int,
        count: int,
        next_offset: int,
        nbytes: int,
        data: Optional[memoryview] = None,
        record_size: Optional[int] = None,
        values: Optional[list] = None,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.count = count
        self.next_offset = next_offset
        self.nbytes = nbytes
        self.data = data
        self.record_size = record_size
        self.values = values

    @property
    def is_uniform(self) -> bool:
        """True when ``data`` holds ``count`` fixed-size struct records."""
        return self.data is not None

    def value_list(self) -> list:
        """Materialize the per-record value bytes (fallback decoding)."""
        if self.values is not None:
            return self.values
        size = self.record_size
        data = self.data
        return [
            bytes(data[i * size : (i + 1) * size]) for i in range(self.count)
        ]

    def __repr__(self) -> str:
        return (
            f"BlockSegment({self.topic!r}[{self.partition}], "
            f"count={self.count}, uniform={self.is_uniform})"
        )
