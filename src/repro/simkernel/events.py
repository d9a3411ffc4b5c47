"""Event and event-queue primitives for the simulation kernel.

Events fire in strict ``(time, priority, seq)`` order.  The sequence
number is a global insertion counter, which makes ordering total and the
whole simulation deterministic: two events scheduled for the same instant
fire in the order they were scheduled (unless a priority says otherwise).

The queue is one :mod:`heapq` of ``(time, priority, seq, event)``
tuples, so every comparison happens in C without calling back into
``Event.__lt__``.  Cancellation is lazy: a cancelled event stays in the
heap and is dropped when it reaches the top.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    priority:
        Tie-breaker for events at the same time; lower fires first.
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag, used in error messages and traces.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "label",
        "_cancelled",
        "_queued",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self._cancelled = False
        #: Still in its queue: cleared when the queue pops the event to
        #: fire it, so a late cancel leaves the queue's counts alone.
        self._queued = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        state = " cancelled" if self._cancelled else ""
        return f"Event(t={self.time:.6f}{tag}{state})"


#: Heap entry: ``(time, priority, seq, event)``.  ``seq`` is unique, so
#: tuple comparison never falls through to the trailing event.
Entry = Tuple[float, int, int, Event]


class EventQueue:
    """Binary heap of :class:`Event` objects with lazy cancellation.

    ``len`` counts live events.  ``depth_peak`` and ``cancelled_peak``
    are the high-water marks of live events and of cancelled events
    still in the heap, for the obs layer.
    """

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self.depth_peak = 0
        self.cancelled_peak = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, priority, label)
        heappush(self._heap, (time, priority, seq, event))
        live = self._live + 1
        self._live = live
        if live > self.depth_peak:
            self.depth_peak = live
        return event

    def cancel(self, event: Event) -> None:
        """Drop ``event`` unfired.  Cancelling an event that already
        fired, or was already cancelled, changes no count."""
        if event._queued and not event._cancelled:
            self._live -= 1
            cancelled = self._cancelled + 1
            self._cancelled = cancelled
            if cancelled > self.cancelled_peak:
                self.cancelled_peak = cancelled
        event._cancelled = True

    def _pop(self, limit: Optional[float], strict: bool) -> Optional[Event]:
        """Remove and return the next live event, or ``None``.

        With a ``limit``, events beyond it stay queued: ``strict=False``
        pops events with ``time <= limit`` and ``strict=True`` only
        ``time < limit`` (the sharded engine's conservative barrier).
        """
        heap = self._heap
        while heap:
            time, _, _, event = heap[0]
            if event._cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if limit is not None and (time >= limit if strict else time > limit):
                return None
            heappop(heap)
            event._queued = False
            self._live -= 1
            return event
        return None

    def pop_next(self) -> Optional[Event]:
        """The next live event, or ``None`` if the queue is empty."""
        return self._pop(None, False)

    def pop_next_until(self, deadline: float) -> Optional[Event]:
        """Like :meth:`pop_next`, but leaves events with
        ``time > deadline`` in place and returns ``None``."""
        return self._pop(deadline, False)

    def pop_next_before(self, deadline: float) -> Optional[Event]:
        """Like :meth:`pop_next`, but strictly before ``deadline``."""
        return self._pop(deadline, True)

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises ``IndexError`` if the queue is empty.
        """
        event = self._pop(None, False)
        if event is None:
            raise IndexError("pop from an empty EventQueue")
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None
