"""The RDD analogue: an immutable batch with functional operators."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Tuple


class Batch:
    """An immutable collection of records for one micro-batch interval.

    Operators return new batches; the underlying tuple is never
    mutated.  ``batch_time`` is the start of the micro-batch interval
    the records were collected in (simulated seconds).
    """

    __slots__ = ("_items", "batch_time")

    def __init__(self, items: Iterable[Any], batch_time: float = 0.0) -> None:
        self._items: Tuple[Any, ...] = tuple(items)
        self.batch_time = batch_time

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def count(self) -> int:
        return len(self._items)

    def collect(self) -> List[Any]:
        return list(self._items)

    def first(self) -> Any:
        if not self._items:
            raise IndexError("first() on an empty batch")
        return self._items[0]

    def is_empty(self) -> bool:
        return not self._items

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "Batch":
        return Batch((fn(item) for item in self._items), self.batch_time)

    def filter(self, predicate: Callable[[Any], bool]) -> "Batch":
        return Batch(
            (item for item in self._items if predicate(item)), self.batch_time
        )

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "Batch":
        return Batch(
            (out for item in self._items for out in fn(item)), self.batch_time
        )

    def map_partitions(
        self, fn: Callable[[List[Any]], Iterable[Any]]
    ) -> "Batch":
        """Apply ``fn`` to the whole record list at once.

        This is how the detection stage runs: one vectorised model call
        per batch rather than one per record.
        """
        return Batch(fn(list(self._items)), self.batch_time)

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        if not self._items:
            raise ValueError("reduce() on an empty batch")
        result = self._items[0]
        for item in self._items[1:]:
            result = fn(result, item)
        return result

    def group_by(self, key_fn: Callable[[Any], Any]) -> dict:
        groups: dict = {}
        for item in self._items:
            groups.setdefault(key_fn(item), []).append(item)
        return groups

    def __repr__(self) -> str:
        return f"Batch(n={len(self._items)}, t={self.batch_time:.3f})"


class BlockBatch:
    """A micro-batch of contiguous wire-byte segments (the block path).

    Where :class:`Batch` holds one Python object per record, a
    BlockBatch holds the :class:`~repro.streaming.records.BlockSegment`
    slabs a :meth:`Consumer.poll_block` returned — per-record objects
    are never materialized between the broker log and the vectorized
    sink (the RSU decodes the segments with one
    ``np.frombuffer`` each).  Only the introspection subset of the
    Batch API is provided; block-mode sinks own the decode.

    Segments borrow append-only slab storage, so a BlockBatch stays
    readable while it waits in the processing queue even as the
    partition keeps appending.
    """

    __slots__ = ("segments", "batch_time", "_count")

    def __init__(self, segments, batch_time: float = 0.0) -> None:
        self.segments = list(segments)
        self.batch_time = batch_time
        self._count = sum(segment.count for segment in self.segments)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def count(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def collect(self) -> List[Any]:
        """Materialize the per-record value bytes, in segment order
        (the record order the per-record poll would have returned)."""
        values: List[Any] = []
        for segment in self.segments:
            values.extend(segment.value_list())
        return values

    def __repr__(self) -> str:
        return (
            f"BlockBatch(n={self._count}, segments={len(self.segments)}, "
            f"t={self.batch_time:.3f})"
        )
