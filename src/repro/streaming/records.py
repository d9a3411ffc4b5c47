"""The record type crossing the streaming substrate: a block read."""

from __future__ import annotations

from typing import Optional


class BlockSegment:
    """One partition's slice of a read: ``count`` records ending at
    offset ``next_offset``.

    What :meth:`Partition.read_block`, :meth:`Broker.fetch_block` and
    :meth:`Consumer.poll_block` return.  When the partition's
    append-only slab is live (every record struct-encoded at one fixed
    size), ``data`` is a borrowed ``memoryview`` of
    ``count * record_size`` bytes that ``np.frombuffer`` decodes
    without materializing per-record objects.  When it is not (a JSON
    topic's partition never has a slab), ``values`` carries the
    per-record value bytes instead and ``data`` is ``None``.

    ``nbytes`` is the exact consumed size: values plus record keys.
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
